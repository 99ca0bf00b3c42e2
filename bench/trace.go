package bench

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// tracer records spans around the public calls a workload makes. A nil
// tracer records nothing, which is how the untraced pass runs: the ops
// call the same span methods either way.
type tracer struct {
	start time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call: its name, the lane (Chrome trace thread) it
// ran on, and the op it belongs to, which ties a run's spans together.
type span struct {
	Name  string
	Lane  int
	Op    int
	Start time.Duration
	Dur   time.Duration
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

// begin opens a span and returns the function that closes it.
func (t *tracer) begin(name string, lane, op int) func() {
	if t == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		d := time.Since(t0)
		t.mu.Lock()
		t.spans = append(t.spans, span{Name: name, Lane: lane, Op: op, Start: t0.Sub(t.start), Dur: d})
		t.mu.Unlock()
	}
}

// durations returns every recorded span's duration in ms, by name.
func (t *tracer) durations() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], ms(s.Dur))
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X" complete
// events, microsecond timestamps), which chrome://tracing and Perfetto
// load.
func (t *tracer) writeChrome(path, process string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	t.mu.Lock()
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": process}}}
	for _, s := range t.spans {
		events = append(events, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			Args: map[string]any{"op": s.Op},
		})
	}
	t.mu.Unlock()
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
