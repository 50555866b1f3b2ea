package cliflags

import (
	"flag"
	"io"
	"testing"

	"github.com/bpmax-go/bpmax"
)

// parseServing registers the shared flags on a fresh FlagSet, parses args,
// and builds the components.
func parseServing(t *testing.T, args ...string) (*Components, error) {
	t.Helper()
	f := NewServing()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f.Build()
}

func TestBuildDefaults(t *testing.T) {
	c, err := parseServing(t)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer c.Close()
	if s := bpmax.Stats(c.Options...); s.Pool != nil || s.Cache != nil || s.Admission != nil || s.Faults != nil {
		t.Errorf("default build created components: %+v", s)
	}
	if len(c.Options) == 0 {
		t.Error("default build produced no options")
	}
	// The default option set must fold.
	if _, err := bpmax.Fold("GGGAAACCC", "GGGUUUCCC", c.Options...); err != nil {
		t.Errorf("fold with default options: %v", err)
	}
}

func TestBuildComponents(t *testing.T) {
	c, err := parseServing(t, "-cache", "1MB", "-admit", "2", "-admit-queue", "4", "-retry", "2",
		"-failpoints", "batch-item=error")
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer c.Close()
	if _, err := bpmax.Fold("GGGAAACCC", "GGGUUUCCC", c.Options...); err != nil {
		t.Errorf("fold with full components: %v", err)
	}
	// The options carry the components: the one snapshot assembly finds them.
	s := bpmax.Stats(c.Options...)
	if s.Cache == nil || s.Admission == nil || s.Faults == nil {
		t.Fatalf("components missing: cache=%v admission=%v faults=%v",
			s.Cache != nil, s.Admission != nil, s.Faults != nil)
	}
	if s.Cache.SubstrateMisses == 0 {
		t.Error("cache saw no traffic from the fold")
	}
	if s.Admission.Admitted == 0 {
		t.Error("admission gate saw no traffic from the fold")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := [][]string{
		{"-mem-limit", "lots"},            // unparsable size
		{"-cache", "many"},                // unparsable size
		{"-degrade-window", "4"},          // needs -mem-limit
		{"-admit-queue", "4"},             // needs -admit
		{"-failpoints", "nowhere=error"},  // unknown site
		{"-failpoints", "cache-leader=?"}, // bad mode
	}
	for _, args := range cases {
		c, err := parseServing(t, args...)
		if err == nil {
			c.Close()
			t.Errorf("Build(%v): expected error", args)
		}
	}
}

// TestBuildSubstrateRejected: the substrate fill is not a serving knob — it
// had one legal answer — so -substrate is an undefined flag, refused at parse
// time by both binaries; so is -pool, which only ever mattered to the CLI's
// batch mode (the server's session always pools) and lives there now.
func TestBuildSubstrateRejected(t *testing.T) {
	for _, args := range [][]string{{"-substrate", "auto"}, {"-pool"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		NewServing().Register(fs)
		if err := fs.Parse(args); err == nil {
			t.Errorf("%s is still a shared flag", args[0])
		}
	}
}

func TestRegisterRespectsPresetDefaults(t *testing.T) {
	f := NewServing()
	f.Admit = 8
	f.Cache = "64MB"
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	c, err := f.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	defer c.Close()
	if s := bpmax.Stats(c.Options...); s.Admission == nil || s.Cache == nil {
		t.Error("per-binary defaults were not honored by Build")
	}
}

func TestParseBytes(t *testing.T) {
	good := map[string]int64{
		"":       0,
		"123":    123,
		"123B":   123,
		"1KB":    1 << 10,
		"2K":     2 << 10,
		"1.5MB":  3 << 19,
		"2GB":    2 << 30,
		"1tb":    1 << 40,
		" 4 MB ": 4 << 20,
	}
	for in, want := range good {
		got, err := ParseBytes(in)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"x", "-5", "1XB", "GB", "1.2.3MB"} {
		if _, err := ParseBytes(in); err == nil {
			t.Errorf("ParseBytes(%q) accepted", in)
		}
	}
}
