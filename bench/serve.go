package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	loadgen "github.com/bpmax-go/bpmax/internal/workload"
)

// repoRoot finds the checkout the benchmark runs in: the nearest ancestor of
// the working directory that holds the server's source. `go run -C bench .`
// and `go test` both start in bench/, one level below it.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "bpmaxd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("cannot find the repository root (no cmd/bpmaxd above the working directory)")
		}
		dir = parent
	}
}

// outDir is where the benchmark writes: bench/out inside the checkout.
func outDir(root string) string { return filepath.Join(root, "bench", "out") }

// buildServer compiles cmd/bpmaxd from the checkout into bench/out/bin. It
// runs before any timing; an up-to-date binary makes it a no-op relink
// check.
func buildServer(ctx context.Context, root string) (string, error) {
	bin := filepath.Join(outDir(root), "bin", "bpmaxd")
	if err := os.MkdirAll(filepath.Dir(bin), 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/bpmaxd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/bpmaxd: %w\n%s", err, out)
	}
	return bin, nil
}

// server is one bpmaxd subprocess and the keep-alive client talking to it.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	bootMs float64 // spawn to the first 200 from /healthz
}

// serveFlags is the measured server configuration; everything else is the
// binary's default.
var serveFlags = []string{"-cache", "64MB", "-admit", "2", "-admit-queue", "64"}

// startServer spawns bpmaxd on a free loopback port with its output
// discarded and waits until /healthz answers 200.
func startServer(ctx context.Context, bin string, conns int, extra ...string) (*server, error) {
	addrFile := filepath.Join(filepath.Dir(filepath.Dir(bin)), fmt.Sprintf("bpmaxd-%d.addr", os.Getpid()))
	_ = os.Remove(addrFile) // a stale file would be read as this server's address
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, serveFlags...)
	cmd := exec.Command(bin, append(args, extra...)...)
	// A benchmark killed mid-run must not leave a server behind. (The
	// signal follows the starting thread, which the Go runtime keeps for
	// the life of the process unless a goroutine exits locked to it; none
	// here is locked.)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &server{cmd: cmd, client: &http.Client{Transport: &http.Transport{
		MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		DialContext: (&net.Dialer{}).DialContext,
	}}}
	deadline := t0.Add(20 * time.Second)
	for ; ; time.Sleep(2 * time.Millisecond) {
		if ctx.Err() != nil || time.Now().After(deadline) {
			s.kill()
			return nil, fmt.Errorf("bpmaxd did not become healthy within %v", time.Since(t0).Round(time.Millisecond))
		}
		if s.base == "" {
			b, err := os.ReadFile(addrFile)
			if err != nil || !bytes.HasSuffix(b, []byte("\n")) {
				continue
			}
			s.base = "http://" + strings.TrimSpace(string(b))
			_ = os.Remove(addrFile)
		}
		resp, err := s.client.Get(s.base + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			s.bootMs = float64(time.Since(t0)) / 1e6
			return s, nil
		}
	}
}

func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// stop drains the server with SIGTERM and waits for it to exit. A server
// that exits nonzero dropped requests or failed its drain: the run is bad.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("bpmaxd: SIGTERM: %w", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			return fmt.Errorf("bpmaxd drain: %w", err)
		}
		return nil
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return errors.New("bpmaxd did not drain within 15s of SIGTERM; killed")
	}
}

// foldReply and batchReply are the response fields the benchmark checks.
type foldReply struct {
	Score     float32 `json:"score"`
	Structure *struct {
		Bracket1 string `json:"bracket1"`
		Bracket2 string `json:"bracket2"`
	} `json:"structure"`
}

type batchReply struct {
	Results []struct {
		Score float32 `json:"score"`
		Error string  `json:"error"`
	} `json:"results"`
	Failed int `json:"failed"`
}

// do sends op and returns the scores it answered, the caller-side wall time
// of the request (connection reuse, send, server, receive, decode) and the
// Server-Timing header.
func (s *server) do(ctx context.Context, op serveOp) (scores []float32, d time.Duration, timing string, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+op.path(), bytes.NewReader(op.body))
	if err != nil {
		return nil, 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	t0 := time.Now()
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, 0, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, "", fmt.Errorf("%s: status %d: %s", op.path(), resp.StatusCode, bytes.TrimSpace(body))
	}
	if op.kind == opBatch {
		var r batchReply
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, 0, "", err
		}
		d = time.Since(t0)
		if r.Failed != 0 || len(r.Results) != len(op.pairs) {
			return nil, d, "", fmt.Errorf("batch: %d results, %d failed, for %d items", len(r.Results), r.Failed, len(op.pairs))
		}
		for _, it := range r.Results {
			scores = append(scores, it.Score)
		}
	} else {
		var r foldReply
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, 0, "", err
		}
		d = time.Since(t0)
		p := op.pairs[0]
		if r.Structure == nil || len(r.Structure.Bracket1) != len(p[0]) || len(r.Structure.Bracket2) != len(p[1]) {
			return nil, d, "", fmt.Errorf("fold: structure missing or not %d/%d long", len(p[0]), len(p[1]))
		}
		scores = []float32{r.Score}
	}
	return scores, d, resp.Header.Get("Server-Timing"), nil
}

// recheckEvery is the sampling stride of after-the-fact verification: every
// recheckEvery-th op with a unique pair is folded again in-process on the
// reference path once the timed section is over.
const recheckEvery = 50

// recheck is one sampled answer awaiting its reference fold.
type recheck struct {
	op    int
	pair  [2]string
	score float32
}

// setupServe boots a server, primes the hot set (checking it against the
// reference answers) and returns an instance whose ops are HTTP requests.
func setupServe(ctx context.Context, env *environment, in inputs, want answers) (*instance, error) {
	srv, err := startServer(ctx, env.bpmaxd, 2)
	if err != nil {
		return nil, err
	}
	for k, p := range in.Pairs {
		scores, _, _, err := srv.do(ctx, foldOp(opHit, p))
		if err == nil && !sameScore(scores[0], want.Scores[k]) {
			err = fmt.Errorf("score %v, reference %v", scores[0], want.Scores[k])
		}
		if err != nil {
			srv.kill()
			return nil, fmt.Errorf("priming hot pair %d: %w", k, err)
		}
	}
	var mu sync.Mutex
	var pending []recheck
	op := func(ctx context.Context, i, lane int, rec *recorder) (time.Duration, error) {
		o := makeServeOp(env.seed, i, in.Pairs, env.sz)
		root := rec.begin(o.kind.String(), lane, i, -1)
		start := rec.now()
		scores, d, timing, err := srv.do(ctx, o)
		rec.end(root)
		if err != nil {
			return 0, err
		}
		if rec != nil {
			addStageSpans(rec, timing, lane, i, root, start)
		}
		if o.kind == opHit {
			if !sameScore(scores[0], want.Scores[o.hot]) {
				return d, fmt.Errorf("hot pair %d: score %v, reference %v", o.hot, scores[0], want.Scores[o.hot])
			}
			return d, nil
		}
		if i/len(servePeriod)%recheckEvery == 0 {
			mu.Lock()
			for k, p := range o.pairs {
				pending = append(pending, recheck{op: i, pair: p, score: scores[k]})
			}
			mu.Unlock()
		}
		return d, nil
	}
	closeFn := func() (int, error) {
		err := srv.stop()
		failed := 0
		in := inputs{}
		for _, r := range pending {
			in.Pairs = append(in.Pairs, r.pair)
		}
		ref, rerr := reference("serve", in, false)
		if rerr != nil {
			return len(pending), errors.Join(err, rerr)
		}
		for k, r := range pending {
			if !sameScore(r.score, ref.Scores[k]) {
				failed++
				fmt.Fprintf(env.log, "bench: serve op %d answered %v, reference %v\n", r.op, r.score, ref.Scores[k])
			}
		}
		return failed, err
	}
	return &instance{op: op, close: closeFn}, nil
}

// addStageSpans lays the stages the server reported for one request out as
// child spans of the client's request span, in the order the server lists
// them (which is the order they ran).
func addStageSpans(rec *recorder, timing string, lane, op, parent int, start time.Duration) {
	durs := loadgen.ParseServerTiming(timing)
	at := start
	for _, part := range strings.Split(timing, ",") {
		name, _, _ := strings.Cut(strings.TrimSpace(part), ";")
		if name == "" || name == "total" {
			continue
		}
		rec.add("bpmaxd."+name, lane, op, parent, at, durs[name])
		at += durs[name]
	}
}
