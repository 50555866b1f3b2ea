// Package cliflags is the one flag surface for the serving knobs shared by
// the bpmax CLI and the bpmaxd network server: schedule variant, memory map,
// memory budget and degradation, cache, admission control, retry policy and
// failpoint arming. Both binaries register the same Serving struct, so a knob
// added here appears in both with identical names, defaults and parsing — the
// two cannot drift.
package cliflags

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"github.com/bpmax-go/bpmax"
	"github.com/bpmax-go/bpmax/internal/fault"
)

// Serving holds the parsed values of the shared serving flags. Construct
// one with NewServing (which fills the canonical defaults), adjust any
// per-binary defaults, then Register it on the binary's FlagSet and Build
// after parsing.
type Serving struct {
	Variant string
	Workers int
	Unit    bool
	Packed  bool

	MemLimit      string
	DegradeWindow int

	Cache      string
	Admit      int
	AdmitQueue int
	Retry      int
	Failpoints string
}

// NewServing returns a Serving pre-filled with the canonical defaults the
// bpmax CLI has always used (everything off, hybrid-tiled schedule).
func NewServing() *Serving {
	return &Serving{Variant: string(bpmax.HybridTiled)}
}

// Register declares every shared flag on fs, using the Serving's current
// field values as defaults — set a field before Register to give one binary
// a different default without renaming the knob.
func (f *Serving) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Variant, "variant", f.Variant,
		"schedule: base, coarse, fine, hybrid, hybrid-tiled")
	fs.IntVar(&f.Workers, "workers", f.Workers,
		"parallel workers (0 = all CPUs): the width of the worker team a fold, a batch or the server's session runs on")
	fs.BoolVar(&f.Unit, "unit", f.Unit, "unweighted pair counting instead of GC=3/AU=2/GU=1")
	fs.BoolVar(&f.Packed, "packed", f.Packed, "use the packed (quarter-space) memory map")
	fs.StringVar(&f.MemLimit, "mem-limit", f.MemLimit,
		"refuse folds whose table exceeds this size, e.g. 500MB or 2GB (empty = unlimited)")
	fs.IntVar(&f.DegradeWindow, "degrade-window", f.DegradeWindow,
		"with -mem-limit: fall back to a windowed scan with this span when the full table is over budget")
	fs.StringVar(&f.Cache, "cache", f.Cache,
		"serve repeated strands/pairs from a content-addressed cache; value is the retention budget, e.g. 256MB ('0' = unlimited, empty = off)")
	fs.IntVar(&f.Admit, "admit", f.Admit,
		"admit at most this many concurrent folds; excess requests queue FIFO (0 = off)")
	fs.IntVar(&f.AdmitQueue, "admit-queue", f.AdmitQueue,
		"with -admit: bound the wait queue, rejecting requests beyond it (0 = unbounded)")
	fs.IntVar(&f.Retry, "retry", f.Retry,
		"retry transiently failed folds (solver panics, injected faults) up to this many total attempts with exponential backoff (0 = off)")
	fs.StringVar(&f.Failpoints, "failpoints", f.Failpoints,
		"arm fault-injection sites for resilience testing: comma-separated site=[count*]mode entries, "+
			"e.g. 'cache-leader=3*error,engine-iter=p0.01/7*panic,pool-acquire=once*delay(2ms)'; sites: "+
			strings.Join(fault.SiteNames(), ", "))
}

// Components is the long-lived serving state Build assembled from the
// flags: the option set to fold with, carrying every component that was
// turned on (bpmax.Stats, or the Session built from the options, snapshots
// them). Close releases what Build created.
type Components struct {
	Options []bpmax.Option

	failpoints bool
}

// Build validates the parsed flags and constructs the serving components
// and fold options they select. The returned Components must be Closed when
// serving ends (it owns any armed failpoints).
func (f *Serving) Build() (*Components, error) {
	limitBytes, err := ParseBytes(f.MemLimit)
	if err != nil {
		return nil, fmt.Errorf("-mem-limit: %w", err)
	}
	c := &Components{}
	c.Options = []bpmax.Option{
		bpmax.WithVariant(bpmax.Variant(f.Variant)),
		bpmax.WithWorkers(f.Workers),
	}
	if f.Unit {
		c.Options = append(c.Options, bpmax.WithWeights(bpmax.Weights{Unit: true}))
	}
	if f.Packed {
		c.Options = append(c.Options, bpmax.WithPackedMemory())
	}
	if limitBytes > 0 {
		c.Options = append(c.Options, bpmax.WithMemoryLimit(limitBytes))
	}
	if f.DegradeWindow > 0 {
		if limitBytes <= 0 {
			return nil, fmt.Errorf("-degrade-window requires -mem-limit")
		}
		c.Options = append(c.Options, bpmax.WithDegradeToWindowed(f.DegradeWindow, f.DegradeWindow))
	}
	if f.Retry > 0 {
		c.Options = append(c.Options, bpmax.WithRetry(bpmax.RetryConfig{MaxAttempts: f.Retry}))
	}
	if f.Failpoints != "" {
		if err := fault.ArmSpec(f.Failpoints); err != nil {
			fault.Reset()
			return nil, fmt.Errorf("-failpoints: %w", err)
		}
		c.failpoints = true
	}
	if f.Cache != "" {
		budget, err := ParseBytes(f.Cache)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("-cache: %w", err)
		}
		c.Options = append(c.Options, bpmax.WithCache(bpmax.NewCache(bpmax.CacheConfig{MaxBytes: budget})))
	}
	if f.Admit > 0 {
		c.Options = append(c.Options, bpmax.WithAdmission(bpmax.NewAdmission(bpmax.AdmissionConfig{
			MaxConcurrent: f.Admit, MaxQueue: f.AdmitQueue,
		})))
	} else if f.AdmitQueue > 0 {
		c.Close()
		return nil, fmt.Errorf("-admit-queue requires -admit")
	}
	return c, nil
}

// Close releases what Build created: armed failpoints are reset. Pools,
// caches and admission gates hold no goroutines and need no teardown. Safe
// on a nil receiver.
func (c *Components) Close() {
	if c == nil {
		return
	}
	if c.failpoints {
		fault.Reset()
	}
}

// ParseBytes parses a human byte size: a plain integer is bytes, and the
// suffixes KB/MB/GB/TB (binary, case-insensitive, optionally just K/M/G/T)
// scale by 1024 steps. Empty means 0 (unlimited).
func ParseBytes(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	num := s
	for _, u := range []struct {
		suffix string
		scale  int64
	}{
		{"KB", 1 << 10}, {"MB", 1 << 20}, {"GB", 1 << 30}, {"TB", 1 << 40},
		{"K", 1 << 10}, {"M", 1 << 20}, {"G", 1 << 30}, {"T", 1 << 40},
		{"B", 1},
	} {
		if strings.HasSuffix(s, u.suffix) {
			mult = u.scale
			num = strings.TrimSpace(strings.TrimSuffix(s, u.suffix))
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("invalid size %q", s)
	}
	return int64(v * float64(mult)), nil
}
