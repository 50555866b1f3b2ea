package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"hash/fnv"
)

// sizes fixes every input dimension of the benchmark. fullSizes is what the
// benchmark measures; smokeSizes exists so bench_test.go can drive every
// code path in seconds.
type sizes struct {
	foldN1, foldN2 int // fold workload and the max-plus fill probes
	partN1, partN2 int // partition workload and the partition fill probes
	pairs          int // distinct pairs fold and partition walk round-robin
	singleN        int // single workload, Four-Russians and classic probes
	strands        int // distinct strands single walks round-robin
	serveN1        int // serve: every pair is serveN1 × serveN2
	serveN2        int
	hot            int // serve: primed hot set
	serveRound     int // serve: ops per round, a multiple of the period
	serveWarm      int // serve: warm-up ops of a set-up
	batchTargets   int // serve: targets per /v1/batch op
	nussinovSmall  int // second classic-build probe size
	genericN       int // float64 generic substrate probe size
	windowN        int // windowed-scan probe: windowN × windowN, span window
	window         int
	screenTargets  int // pipeline.batch_item_ms: targets against one query
}

var fullSizes = sizes{
	foldN1: 16, foldN2: 128,
	partN1: 8, partN2: 64,
	pairs:   4,
	singleN: 1024, strands: 4,
	serveN1: 8, serveN2: 48, hot: 32, serveRound: 100, serveWarm: 500, batchTargets: 4,
	nussinovSmall: 256, genericN: 64,
	windowN: 96, window: 12,
	screenTargets: 8,
}

var smokeSizes = sizes{
	foldN1: 6, foldN2: 40,
	partN1: 4, partN2: 24,
	pairs:   3,
	singleN: 200, strands: 3,
	serveN1: 4, serveN2: 24, hot: 4, serveRound: 20, serveWarm: 40, batchTargets: 2,
	nussinovSmall: 64, genericN: 24,
	windowN: 32, window: 8,
	screenTargets: 2,
}

// rng is splitmix64: the benchmark's own generator, so a seed names the
// same inputs on every Go version and the program under test never sees
// anything but the generated sequences.
type rng struct{ s uint64 }

// newRNG derives an independent stream from the run seed, a stream label
// and an index within the stream.
func newRNG(seed int64, stream string, index int) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	r := &rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ h.Sum64() ^ uint64(index)*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// seq returns n uniformly random RNA bases.
func (r *rng) seq(n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = "ACGU"[r.next()>>62]
	}
	return string(b)
}

// inputs is everything one workload feeds the program.
type inputs struct {
	Pairs   [][2]string `json:"pairs,omitempty"`   // fold, partition; serve's hot set
	Strands []string    `json:"strands,omitempty"` // single
}

// generate synthesizes the inputs of one workload from the seed.
func generate(workload string, seed int64, sz sizes) inputs {
	var in inputs
	pairs := func(n, n1, n2 int) {
		for i := 0; i < n; i++ {
			r := newRNG(seed, workload, i)
			in.Pairs = append(in.Pairs, [2]string{r.seq(n1), r.seq(n2)})
		}
	}
	switch workload {
	case "fold":
		pairs(sz.pairs, sz.foldN1, sz.foldN2)
	case "partition":
		pairs(sz.pairs, sz.partN1, sz.partN2)
	case "single":
		for i := 0; i < sz.strands; i++ {
			in.Strands = append(in.Strands, newRNG(seed, workload, i).seq(sz.singleN))
		}
	case "serve":
		pairs(sz.hot, sz.serveN1, sz.serveN2)
	}
	return in
}

// digest fingerprints inputs; golden.json stores it so a generator change
// cannot silently pair new inputs with old reference answers.
func (in inputs) digest() string {
	b, err := json.Marshal(in)
	if err != nil {
		panic(err) // strings and slices always marshal
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// opKind classes the ops of the serve stream.
type opKind int

const (
	opHit opKind = iota
	opMiss
	opBatch
)

func (k opKind) String() string { return [...]string{"hit", "miss", "batch"}[k] }

// servePeriod is the repeating class pattern of the serve stream: one
// batch, two unique misses and seven hot-set hits per ten ops, so every
// round (a multiple of the period) holds exactly the same mix. The batch
// leads and hits close the period so a round ends on sub-millisecond ops
// and the two callers finish it together.
var servePeriod = [10]opKind{opBatch, opHit, opHit, opMiss, opHit, opHit, opMiss, opHit, opHit, opHit}

// serveOp is op i of the serve stream: its class, the pairs it folds and
// the request it sends.
type serveOp struct {
	kind  opKind
	hot   int         // hit: index into the hot set
	pairs [][2]string // the folds the op asks for (one, or batchTargets)
	body  []byte
}

func (op serveOp) path() string {
	if op.kind == opBatch {
		return "/v1/batch"
	}
	return "/v1/fold"
}

// hitSlot[p] is how many hits precede position p within one period, and
// hitsPerPeriod how many one period holds.
var hitSlot, hitsPerPeriod = func() (slot [len(servePeriod)]int, n int) {
	for p, k := range servePeriod {
		slot[p] = n
		if k == opHit {
			n++
		}
	}
	return slot, n
}()

// foldOp is one /v1/fold request for pair p, traced back.
func foldOp(kind opKind, p [2]string) serveOp {
	op := serveOp{kind: kind, pairs: [][2]string{p}}
	op.body = serveBody(op)
	return op
}

// makeServeOp builds op i. Hits walk the hot set round-robin; every miss
// and every batch target is a pair no other op of the run uses, and a
// batch's targets share one query strand.
func makeServeOp(seed int64, i int, hot [][2]string, sz sizes) serveOp {
	pos := i % len(servePeriod)
	switch servePeriod[pos] {
	case opHit:
		k := (i/len(servePeriod)*hitsPerPeriod + hitSlot[pos]) % len(hot)
		op := foldOp(opHit, hot[k])
		op.hot = k
		return op
	case opMiss:
		r := newRNG(seed, "serve-miss", i)
		return foldOp(opMiss, [2]string{r.seq(sz.serveN1), r.seq(sz.serveN2)})
	}
	r := newRNG(seed, "serve-batch", i)
	op := serveOp{kind: opBatch}
	query := r.seq(sz.serveN2)
	for t := 0; t < sz.batchTargets; t++ {
		op.pairs = append(op.pairs, [2]string{r.seq(sz.serveN1), query})
	}
	op.body = serveBody(op)
	return op
}

// serveBody renders the JSON request of op.
func serveBody(op serveOp) []byte {
	type item struct {
		Seq1 string `json:"seq1"`
		Seq2 string `json:"seq2"`
	}
	var v any
	if op.kind == opBatch {
		items := make([]item, len(op.pairs))
		for i, p := range op.pairs {
			items[i] = item{p[0], p[1]}
		}
		v = struct {
			Items []item `json:"items"`
		}{items}
	} else {
		v = struct {
			item
			Structure bool `json:"structure"`
		}{item{op.pairs[0][0], op.pairs[0][1]}, true}
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain strings always marshal
	}
	return b
}
