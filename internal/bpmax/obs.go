package bpmax

import (
	"time"

	"github.com/bpmax-go/bpmax/internal/metrics"
)

// obsState is the per-solve observability handle: the fold's FoldMetrics
// sink, which every schedule threads through its wavefront loop. It is the
// solver's one record of where a fill's time went; request traces and
// aggregates read it after the solve. The zero value is disabled and every
// method is then a branch-predicted no-op, so a solve without a sink pays
// nothing — not even a time.Now.
//
// All calls happen on the solve's coordinating goroutine (pf returns
// before the next phase starts), so FoldMetrics writes need no atomics.
type obsState struct {
	m *metrics.FoldMetrics
}

// observe builds the solve's observability handle and stamps the static
// fold identity (schedule, streaming-kernel implementation, shape, width)
// into the sink.
func (c Config) observe(p *Problem, schedule, kernel string) obsState {
	o := obsState{m: c.Metrics}
	if o.m != nil {
		o.m.Schedule = schedule
		o.m.Kernel = kernel
		o.m.N1, o.m.N2 = p.N1, p.N2
		o.m.Workers = resolveWorkers(c.Workers)
	}
	return o
}

// start opens a phase span. The returned time is the span's start, or the
// zero Time when no sink is attached.
func (o obsState) start() time.Time {
	if o.m == nil {
		return time.Time{}
	}
	return time.Now()
}

// done closes a span on phase p, crediting its wall time and unit count.
func (o obsState) done(p metrics.Phase, start time.Time, units int64) {
	if o.m == nil {
		return
	}
	st := &o.m.Phases[p]
	st.Nanos += int64(time.Since(start))
	st.Units += units
}

// interrupt closes a phase span cut short by an error (cancellation, fault
// injection): the partial wall time is credited with zero units, so the
// record of a failed fill still says where its time went — the request
// trace reports it on error exits.
func (o obsState) interrupt(p metrics.Phase, start time.Time) {
	o.done(p, start, 0)
}

// wavefront counts one completed outer anti-diagonal.
func (o obsState) wavefront() {
	if o.m != nil {
		o.m.Wavefronts++
	}
}
