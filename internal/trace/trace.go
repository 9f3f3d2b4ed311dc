// Package trace records and analyzes simulator event traces: task
// lifecycles, stalls, message traffic. A Recorder plugs into the kernel
// through core.Config.Tracer; the analysis helpers turn the event stream
// into per-core utilization profiles and an ASCII activity timeline —
// the practical observability a downstream user of an architecture
// simulator needs to understand where virtual time goes.
package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"simany/internal/core"
	"simany/internal/vtime"
)

// Recorder collects trace events up to a limit (0 = unlimited). When the
// limit is reached further events are counted but dropped.
//
// Truncation semantics: the retained prefix is a valid trace up to the
// virtual time of the last kept event, but it is a *prefix* — tasks still
// running at that point have no closing event, and the analysis helpers
// will treat their final spans as extending to endVT. Check Truncated (or
// Dropped) before trusting aggregate numbers from a limited recording.
type Recorder struct {
	// Limit bounds the retained events (0 = unlimited).
	Limit int

	events  []core.TraceEvent
	dropped int64
}

// NewRecorder creates a Recorder with the given retention limit.
func NewRecorder(limit int) *Recorder {
	return &Recorder{Limit: limit}
}

var _ core.Tracer = (*Recorder)(nil)

// Trace implements core.Tracer.
func (r *Recorder) Trace(ev core.TraceEvent) {
	if r.Limit > 0 && len(r.events) >= r.Limit {
		r.dropped++
		return
	}
	r.events = append(r.events, ev)
}

// Events returns the retained events in simulation order.
func (r *Recorder) Events() []core.TraceEvent { return r.events }

// Dropped returns how many events exceeded the limit.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Truncated reports whether the recording is incomplete: at least one
// event was dropped because the retention limit was reached. Analyses of a
// truncated trace only describe the retained prefix.
func (r *Recorder) Truncated() bool { return r.dropped > 0 }

// WriteText dumps the trace as one line per event.
func (r *Recorder) WriteText(w io.Writer) error {
	for _, ev := range r.events {
		var err error
		switch ev.Kind {
		case core.TraceSend:
			_, err = fmt.Fprintf(w, "%8d %12s core%-4d %-11s -> core%d\n",
				ev.Seq, ev.VT, ev.Core, ev.Kind, ev.Aux)
		case core.TraceHandle:
			_, err = fmt.Fprintf(w, "%8d %12s core%-4d %-11s <- core%d\n",
				ev.Seq, ev.VT, ev.Core, ev.Kind, ev.Aux)
		default:
			_, err = fmt.Fprintf(w, "%8d %12s core%-4d %-11s %s(%d)\n",
				ev.Seq, ev.VT, ev.Core, ev.Kind, ev.Task, ev.TaskID)
		}
		if err != nil {
			return err
		}
	}
	if r.dropped > 0 {
		if _, err := fmt.Fprintf(w, "... %d events dropped (limit %d)\n", r.dropped, r.Limit); err != nil {
			return err
		}
	}
	return nil
}

// busyInterval is a span of virtual time during which a core executed a
// task.
type busyInterval struct {
	core     int
	from, to vtime.Time
}

// busyIntervals reconstructs per-core execution spans from the event
// stream: a span opens at task-start/resume and closes at the next
// stall/block/end on the same core. Stall closes the span only virtually —
// the task resumes at the same VT — so consecutive spans merge naturally.
//
// Spans still open when the stream ends — a task running at the end of the
// simulated window, or one whose closing event fell past a Recorder's
// retention limit — are closed at endVT instead of being dropped, so the
// busy time they represent is not silently lost. Pass the simulated end
// time (e.g. Result.VT); with endVT ≤ the last event's VT the open spans
// are clipped to whatever extends beyond their start.
func busyIntervals(events []core.TraceEvent, endVT vtime.Time) []busyInterval {
	open := map[int]vtime.Time{} // core -> span start
	var out []busyInterval
	for _, ev := range events {
		switch ev.Kind {
		case core.TraceTaskStart, core.TraceTaskResume:
			if _, ok := open[ev.Core]; !ok {
				open[ev.Core] = ev.VT
			}
		case core.TraceTaskBlock, core.TraceTaskEnd, core.TraceTaskStall:
			if from, ok := open[ev.Core]; ok {
				if ev.VT > from {
					out = append(out, busyInterval{core: ev.Core, from: from, to: ev.VT})
				}
				delete(open, ev.Core)
				if ev.Kind == core.TraceTaskStall {
					// The task still owns the core; it resumes at the
					// same VT once the stall lifts.
					open[ev.Core] = ev.VT
				}
			}
		}
	}
	// Close the remaining spans at endVT, in sorted core order so the
	// output does not depend on map iteration.
	cores := make([]int, 0, len(open))
	for c := range open {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	for _, c := range cores {
		if from := open[c]; endVT > from {
			out = append(out, busyInterval{core: c, from: from, to: endVT})
		}
	}
	return out
}

// Utilization returns, per core, the fraction of the simulated duration
// [0, endVT] spent executing tasks. Spans attributed to core indices
// outside [0, numCores) are ignored here — use Anomalies to surface them.
//
// Values above 1.0 are returned as-is rather than clamped: a utilization
// over 100% means the reconstructed busy time exceeds the simulated
// duration, which indicates a malformed trace (overlapping spans,
// truncated stream, or a wrong endVT) and should be visible, not hidden.
func Utilization(events []core.TraceEvent, numCores int, endVT vtime.Time) []float64 {
	busy := make([]vtime.Time, numCores)
	for _, iv := range busyIntervals(events, endVT) {
		if iv.core < 0 || iv.core >= numCores {
			continue
		}
		busy[iv.core] += iv.to - iv.from
	}
	out := make([]float64, numCores)
	if endVT <= 0 {
		return out
	}
	for i, b := range busy {
		out[i] = vtime.Ratio(b, endVT)
	}
	return out
}

// Anomalies scans the event stream for accounting problems the aggregate
// helpers would otherwise hide: spans attributed to core indices outside
// [0, numCores) and per-core busy time exceeding the simulated duration
// (utilization > 100%). It returns one human-readable string per finding,
// in deterministic order (out-of-range cores first, both groups sorted by
// core index); an empty slice means the trace is consistent.
func Anomalies(events []core.TraceEvent, numCores int, endVT vtime.Time) []string {
	busy := map[int]vtime.Time{}
	for _, iv := range busyIntervals(events, endVT) {
		busy[iv.core] += iv.to - iv.from
	}
	cores := make([]int, 0, len(busy))
	for c := range busy {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	var out []string
	for _, c := range cores {
		if c < 0 || c >= numCores {
			out = append(out, fmt.Sprintf("busy time %v attributed to out-of-range core %d (machine has %d cores)",
				busy[c], c, numCores))
		}
	}
	if endVT > 0 {
		for _, c := range cores {
			if c < 0 || c >= numCores {
				continue
			}
			if b := busy[c]; b > endVT {
				out = append(out, fmt.Sprintf("core %d: busy time %v exceeds simulated duration %v (utilization %.1f%%)",
					c, b, endVT, 100*vtime.Ratio(b, endVT)))
			}
		}
	}
	return out
}

// Timeline renders an ASCII activity chart: one row per core, width
// columns spanning [0, endVT], '#' where the core was executing. A row
// whose utilization exceeds 100% is flagged with a trailing '!' — see
// Anomalies for the diagnosis.
func Timeline(w io.Writer, events []core.TraceEvent, numCores int, endVT vtime.Time, width int) error {
	if width <= 0 {
		width = 64
	}
	rows := make([][]byte, numCores)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	if endVT > 0 {
		for _, iv := range busyIntervals(events, endVT) {
			if iv.core < 0 || iv.core >= numCores {
				continue
			}
			//lint:allow rawvtime proportional column index: the millicycle unit cancels in from*width/end
			a := int(int64(iv.from) * int64(width) / int64(endVT))
			//lint:allow rawvtime proportional column index: the millicycle unit cancels in to*width/end
			b := int(int64(iv.to) * int64(width) / int64(endVT))
			if b >= width {
				b = width - 1
			}
			for x := a; x <= b; x++ {
				rows[iv.core][x] = '#'
			}
		}
	}
	util := Utilization(events, numCores, endVT)
	for i, row := range rows {
		mark := ""
		if util[i] > 1 {
			mark = " !"
		}
		if _, err := fmt.Fprintf(w, "core%-4d |%s| %5.1f%%%s\n", i, row, 100*util[i], mark); err != nil {
			return err
		}
	}
	return nil
}
