package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one simulation
// share its id; parent is the index of the enclosing span, -1 for a root.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int
	sim        int
}

// tracer keeps spans in memory until the run ends. The benchmark is
// single-threaded around the calls it times, so a stack of open spans gives
// every span its parent. A nil *tracer records nothing: the untraced run
// passes nil and pays one nil check per boundary.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	sim   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginSim opens the root span of a new simulation and returns its index.
func (t *tracer) beginSim(name string) int {
	if t == nil {
		return -1
	}
	t.sim++
	return t.begin(name)
}

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, sim: t.sim})
	t.open = append(t.open, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open one.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// span times f as a child of the innermost open span.
func (t *tracer) span(name string, f func()) {
	if t == nil {
		f()
		return
	}
	i := t.begin(name)
	f()
	t.end(i)
}

// selfSince sums, by name, the self time of the spans recorded from index
// from on: a span's duration minus the part its children cover.
func (t *tracer) selfSince(from int) map[string]time.Duration {
	self := map[string]time.Duration{}
	child := make([]time.Duration, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		if s.parent >= from {
			child[s.parent] += s.end - s.start
		}
	}
	for i := from; i < len(t.spans); i++ {
		s := t.spans[i]
		self[s.name] += s.end - s.start - child[i]
	}
	return self
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events, one thread row per simulation).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Ph: "X", Ts: us(s.start), Dur: us(s.end - s.start),
			Tid: s.sim, Args: map[string]int{"parent": s.parent, "sim": s.sim}}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
