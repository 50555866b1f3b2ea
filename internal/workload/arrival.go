// Package workload synthesizes, records and replays serving workloads for
// the bpmaxd front-end: arrival processes (Poisson, bursty on/off),
// strand-length distributions (uniform, bounded-Pareto heavy tail, mixes),
// JSONL request traces, and client-side latency/shed accounting with a
// per-stage breakdown reduced from the server's Server-Timing headers.
//
// The shape follows the inference-serving simulators' workload layer: a
// trace is the unit of record — synthesized or captured once, then replayed
// open-loop against a live server so tail latency reflects the arrival
// process, not the client's closed-loop pacing.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Arrival yields successive inter-arrival gaps of a point process. Next is
// not safe for concurrent use; processes with state (Bursty) advance it per
// call.
type Arrival interface {
	Next(rng *rand.Rand) time.Duration
}

// Poisson is a memoryless arrival process: gaps are exponential with mean
// 1/Rate seconds.
type Poisson struct {
	// Rate is the arrival intensity in requests per second (> 0).
	Rate float64
}

// Next draws one exponential inter-arrival gap.
func (p Poisson) Next(rng *rand.Rand) time.Duration {
	return time.Duration(rng.ExpFloat64() / p.Rate * float64(time.Second))
}

// Bursty is an on/off modulated Poisson process: during an on-period
// (exponential, mean OnMean) arrivals come at Rate; each off-period
// (exponential, mean OffMean) contributes pure silence. Long-run average
// intensity is Rate · OnMean/(OnMean+OffMean), but arrivals cluster — the
// shape that stresses admission queues and shedding in a way a flat Poisson
// stream cannot.
type Bursty struct {
	// Rate is the in-burst intensity in requests per second (> 0).
	Rate float64
	// OnMean and OffMean are the mean burst and silence durations.
	OnMean, OffMean time.Duration

	inBurst bool
	left    time.Duration
}

// Next draws the gap to the next arrival, crossing as many on/off phase
// boundaries as the draw requires. Exponential gaps are memoryless, so the
// partial draw discarded at a phase boundary does not bias the process.
func (b *Bursty) Next(rng *rand.Rand) time.Duration {
	var gap time.Duration
	for {
		if b.left <= 0 {
			if b.inBurst {
				b.inBurst, b.left = false, expDur(rng, b.OffMean)
			} else {
				b.inBurst, b.left = true, expDur(rng, b.OnMean)
			}
			continue
		}
		if !b.inBurst {
			gap += b.left
			b.left = 0
			continue
		}
		step := time.Duration(rng.ExpFloat64() / b.Rate * float64(time.Second))
		if step <= b.left {
			b.left -= step
			return gap + step
		}
		gap += b.left
		b.left = 0
	}
}

// expDur draws an exponential duration with the given mean.
func expDur(rng *rand.Rand, mean time.Duration) time.Duration {
	return time.Duration(rng.ExpFloat64() * float64(mean))
}

// LengthDist draws strand lengths for synthetic sequences.
type LengthDist interface {
	Next(rng *rand.Rand) int
}

// UniformLen draws lengths uniformly from [Min, Max].
type UniformLen struct {
	Min, Max int
}

// Next draws one uniform length.
func (u UniformLen) Next(rng *rand.Rand) int {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + rng.Intn(u.Max-u.Min+1)
}

// HeavyTailLen draws lengths from a bounded Pareto distribution: mostly
// near Min, with a power-law tail up to Max. Smaller Alpha means a heavier
// tail. This is the strand-length mix that makes p99 diverge from p50 — a
// few giant folds convoying behind screening-sized ones.
type HeavyTailLen struct {
	// Alpha is the Pareto shape (> 0; 1–2 is realistic for heavy tails).
	Alpha float64
	// Min and Max bound the drawn lengths (0 < Min <= Max).
	Min, Max int
}

// Next draws one bounded-Pareto length by inverse-CDF sampling.
func (h HeavyTailLen) Next(rng *rand.Rand) int {
	lo, hi := float64(h.Min), float64(h.Max)
	if hi <= lo {
		return h.Min
	}
	a := h.Alpha
	if a <= 0 {
		a = 1.5
	}
	// Bounded Pareto inverse CDF: x = (L^-a - u (L^-a - H^-a))^(-1/a).
	u := rng.Float64()
	la, ha := math.Pow(lo, -a), math.Pow(hi, -a)
	x := math.Pow(la-u*(la-ha), -1/a)
	n := int(math.Round(x))
	if n < h.Min {
		n = h.Min
	}
	if n > h.Max {
		n = h.Max
	}
	return n
}

// MixComponent weights one length distribution inside a MixLen.
type MixComponent struct {
	Weight float64
	Dist   LengthDist
}

// MixLen draws from one of several component distributions with
// probability proportional to its weight (e.g. 90% screening-sized strands
// + 10% full-length transcripts).
type MixLen []MixComponent

// Next picks a component by weight and draws from it.
func (m MixLen) Next(rng *rand.Rand) int {
	var total float64
	for _, c := range m {
		total += c.Weight
	}
	if total <= 0 || len(m) == 0 {
		return 0
	}
	u := rng.Float64() * total
	for _, c := range m {
		if u < c.Weight {
			return c.Dist.Next(rng)
		}
		u -= c.Weight
	}
	return m[len(m)-1].Dist.Next(rng)
}

// NamedArrival resolves the bpmaxload -arrival spellings to a process:
// "poisson" (rate), "bursty" (rate while bursting, 300ms on / 700ms off).
func NamedArrival(name string, rate float64) (Arrival, error) {
	switch name {
	case "poisson":
		return Poisson{Rate: rate}, nil
	case "bursty":
		return &Bursty{Rate: rate, OnMean: 300 * time.Millisecond, OffMean: 700 * time.Millisecond}, nil
	}
	return nil, fmt.Errorf("unknown arrival process %q (want poisson or bursty)", name)
}

// NamedLengths resolves the bpmaxload -mix spellings to a length
// distribution over [min, max]: "uniform", "heavytail" (bounded Pareto
// alpha 1.3), or "screen" (90% short uniform + 10% heavy tail to max).
func NamedLengths(name string, min, max int) (LengthDist, error) {
	switch name {
	case "uniform":
		return UniformLen{Min: min, Max: max}, nil
	case "heavytail":
		return HeavyTailLen{Alpha: 1.3, Min: min, Max: max}, nil
	case "screen":
		short := min + (max-min)/4
		return MixLen{
			{Weight: 0.9, Dist: UniformLen{Min: min, Max: short}},
			{Weight: 0.1, Dist: HeavyTailLen{Alpha: 1.3, Min: short + 1, Max: max}},
		}, nil
	}
	return nil, fmt.Errorf("unknown length mix %q (want uniform, heavytail or screen)", name)
}
