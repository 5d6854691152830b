package obs

import (
	"encoding/json"
	"net/http"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
)

// /trace exports the run journal's kept events in the Chrome trace-event
// (catapult) JSON format, loadable in chrome://tracing, Perfetto, or
// speedscope; a gap where older events were dropped shows as an instant
// "overflow" mark.
// Timed journal events become "X" (complete) slices — the journal
// stamps events at completion, so each slice starts at T - Dur — and
// untimed bookkeeping events become "i" (instant) marks. Ranks map to
// trace pids (rank -1, the harness, becomes pid 0) so per-pair
// timelines render as separate process tracks.

// TraceEvent is one catapult trace entry. Timestamps are microseconds
// relative to the earliest event in the journal.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// TraceFile is the catapult JSON object format.
type TraceFile struct {
	TraceEvents     []TraceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// handleTrace serves /trace.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Journal == nil {
		http.Error(w, "no journal attached (start with Config.Journal)", http.StatusNotFound)
		return
	}
	events := s.cfg.Journal.Events()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="eth-trace.json"`)
	json.NewEncoder(w).Encode(BuildTrace(events))
}

// BuildTrace converts journal events to a catapult trace. Exported so
// offline tools (ethinfo, tests) can reuse the conversion.
func BuildTrace(events []journal.Event) TraceFile {
	tf := TraceFile{TraceEvents: []TraceEvent{}, DisplayTimeUnit: "ms"}
	if len(events) == 0 {
		return tf
	}
	// Epoch: the earliest slice start across the journal, so every ts is
	// non-negative.
	t0 := events[0].T.Add(-events[0].Dur())
	for _, ev := range events {
		if start := ev.T.Add(-ev.Dur()); start.Before(t0) {
			t0 = start
		}
	}
	for _, ev := range events {
		te := TraceEvent{
			Name: traceName(ev),
			Cat:  ev.Type,
			Pid:  ev.Rank + 1,
			Tid:  ev.Rank + 1,
			Args: traceArgs(ev),
		}
		if ev.DurNS > 0 {
			te.Ph = "X"
			te.Ts = usSince(t0, ev.T.Add(-ev.Dur()))
			te.Dur = float64(ev.DurNS) / 1e3
		} else {
			te.Ph = "i"
			te.Ts = usSince(t0, ev.T)
			te.S = "t" // thread-scoped instant mark
		}
		tf.TraceEvents = append(tf.TraceEvents, te)
	}
	return tf
}

// traceName picks the slice label: the pipeline phase when the event is
// phase-attributed, its type otherwise.
func traceName(ev journal.Event) string {
	if ev.Phase != "" {
		return ev.Phase
	}
	return ev.Type
}

// traceArgs carries the journal fields tracing UIs show on click.
func traceArgs(ev journal.Event) map[string]any {
	args := map[string]any{"step": ev.Step}
	if ev.Bytes != 0 {
		args["bytes"] = ev.Bytes
	}
	if ev.Elements != 0 {
		args["elements"] = ev.Elements
	}
	if ev.Detail != "" {
		args["detail"] = ev.Detail
	}
	if ev.Err != "" {
		args["err"] = ev.Err
	}
	return args
}

func usSince(t0, t time.Time) float64 {
	return float64(t.Sub(t0)) / 1e3
}
