package bpmax

import (
	"time"

	"github.com/bpmax-go/bpmax/internal/metrics"
)

// obsState is the per-solve observability handle: a nil-able pair of
// destinations (FoldMetrics sink, Tracer callbacks) that every schedule
// threads through its wavefront loop. The zero value is fully disabled and
// every method is then a branch-predicted no-op, so uninstrumented solves
// pay nothing — not even a time.Now.
//
// All calls happen on the solve's coordinating goroutine (pf returns
// before the next phase starts), so FoldMetrics writes need no atomics.
type obsState struct {
	m  *metrics.FoldMetrics
	tr metrics.Tracer
}

// observe builds the solve's observability handle and stamps the static
// fold identity (schedule, streaming-kernel implementation, shape, width)
// into the sink.
func (c Config) observe(p *Problem, schedule, kernel string) obsState {
	o := obsState{m: c.Metrics, tr: c.Tracer}
	if o.m != nil {
		o.m.Schedule = schedule
		o.m.Kernel = kernel
		o.m.N1, o.m.N2 = p.N1, p.N2
		o.m.Workers = resolveWorkers(c.Workers)
	}
	return o
}

// on reports whether any destination is attached.
func (o obsState) on() bool { return o.m != nil || o.tr != nil }

// start opens a phase span. The returned time is the span's start, or the
// zero Time when observability is disabled.
func (o obsState) start(p metrics.Phase) time.Time {
	if !o.on() {
		return time.Time{}
	}
	if o.tr != nil {
		o.tr.BeginPhase(p)
	}
	return time.Now()
}

// done closes a phase span, crediting its wall time and unit count.
func (o obsState) done(p metrics.Phase, start time.Time, units int64) {
	if !o.on() {
		return
	}
	d := time.Since(start)
	if o.m != nil {
		st := &o.m.Phases[p]
		st.Nanos += int64(d)
		st.Units += units
	}
	if o.tr != nil {
		o.tr.EndPhase(p, d)
	}
}

// interrupt closes a phase span cut short by an error (cancellation, fault
// injection): the partial wall time is credited with zero units, keeping
// every Tracer's Begin/End pairing balanced on error exits — request traces
// and pprof-label adapters rely on that.
func (o obsState) interrupt(p metrics.Phase, start time.Time) {
	o.done(p, start, 0)
}

// wavefront counts one completed outer anti-diagonal.
func (o obsState) wavefront() {
	if o.m != nil {
		o.m.Wavefronts++
	}
}
