package trace

import (
	"encoding/json"
	"io"
)

// Chrome trace-event export: renders request snapshots in the Trace Event
// Format that chrome://tracing and Perfetto load directly. Each request
// becomes one "process" (pid), each of its stages one "thread" (tid) with
// a single complete ("X") event spanning the stage's [First, Last] extent;
// args carry the exact busy time and span count, so a stage whose spans
// were interleaved with others (wavefront phases) still reads correctly:
// the bar shows the extent, args.busy_ns the attributed work.

// chromeEvent is one entry in the traceEvents array.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	TS    float64        `json:"ts,omitempty"`  // microseconds
	Dur   float64        `json:"dur,omitempty"` // microseconds
	Args  map[string]any `json:"args,omitempty"`
}

// chromeFile is the JSON-object container form of the format.
type chromeFile struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

// WriteChrome renders snaps as Chrome trace-event JSON. Timestamps are
// microseconds relative to the earliest request start, so concurrent
// requests appear with their real overlap.
func WriteChrome(w io.Writer, snaps []Snapshot) error {
	file := chromeFile{DisplayUnit: "ms", TraceEvents: []chromeEvent{}}
	var epoch int64 // earliest start, unix nanos
	for _, s := range snaps {
		if ns := s.Start.UnixNano(); epoch == 0 || ns < epoch {
			epoch = ns
		}
	}
	for pid, s := range snaps {
		name := s.Op
		if s.Name != "" {
			name += " " + s.Name
		}
		base := float64(s.Start.UnixNano()-epoch) / 1e3
		reqArgs := map[string]any{"request_id": s.ID, "status": s.Status}
		for k, v := range s.Labels {
			reqArgs[k] = v
		}
		file.TraceEvents = append(file.TraceEvents,
			chromeEvent{
				Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]any{"name": name + " [" + s.ID + "]"},
			},
			chromeEvent{
				Name: name, Phase: "X", PID: pid, TID: 0, TS: base,
				Dur:  float64(s.TotalNanos) / 1e3,
				Args: reqArgs,
			},
			chromeEvent{
				Name: "thread_name", Phase: "M", PID: pid, TID: 0,
				Args: map[string]any{"name": "request"},
			},
		)
		for i, st := range s.Stages {
			tid := i + 1
			file.TraceEvents = append(file.TraceEvents,
				chromeEvent{
					Name: "thread_name", Phase: "M", PID: pid, TID: tid,
					Args: map[string]any{"name": st.Stage},
				},
				chromeEvent{
					Name: st.Stage, Phase: "X", PID: pid, TID: tid,
					TS:  base + float64(st.FirstNanos)/1e3,
					Dur: float64(st.LastNanos-st.FirstNanos) / 1e3,
					Args: map[string]any{
						"busy_ns": st.BusyNanos,
						"spans":   st.Count,
					},
				},
			)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(file)
}
