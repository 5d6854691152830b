package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
)

// /events streams the run journal as NDJSON: every existing event, then
// a live tail until the client disconnects. Each subscriber polls the
// journal independently with a bounded backlog — a subscriber slower
// than the run drops its oldest pending events rather than applying
// backpressure to the instrumented process, and the drop itself becomes
// a journal.TypeOverflow event, both on the stream (so the consumer
// knows its view has a hole) and in the run journal (so the gap is part
// of the permanent record). This is the backpressure contract the
// ROADMAP's multi-viewer frame fan-out inherits.

// eventsPollInterval is how often a subscriber checks the journal for
// new events between flushes.
const eventsPollInterval = 50 * time.Millisecond

// eventQueue bounds each /events subscriber's per-poll backlog; excess
// events are dropped oldest-first and the drop is journaled.
const eventQueue = 1024

// handleEvents serves /events. Query parameters: queue=N overrides the
// server's per-subscriber backlog bound for this subscriber.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jw := s.cfg.Journal
	if jw == nil {
		http.Error(w, "no journal attached (start with Config.Journal)", http.StatusNotFound)
		return
	}
	queue := eventQueue
	if qs := r.URL.Query().Get("queue"); qs != "" {
		n, err := strconv.Atoi(qs)
		if err != nil || n <= 0 {
			http.Error(w, "queue must be a positive integer", http.StatusBadRequest)
			return
		}
		queue = n
	}

	flusher, _ := w.(http.Flusher)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}

	gaugeSubs.Add(1)
	defer gaugeSubs.Add(-1)

	enc := json.NewEncoder(w)
	ctx := r.Context()
	tick := time.NewTicker(eventsPollInterval)
	defer tick.Stop()
	for cur := 0; ; {
		evs := jw.EventsSince(cur)
		cur += len(evs)
		if dropped := len(evs) - queue; dropped > 0 {
			// The subscriber fell further behind than its backlog bound:
			// keep the newest, journal the hole, and tell the stream.
			evs = evs[dropped:]
			ctrDropped.Add(int64(dropped))
			over := journal.Event{
				T: time.Now(), Type: journal.TypeOverflow, Rank: -1, Step: -1,
				Elements: dropped,
				Detail:   fmt.Sprintf("obs /events subscriber over backlog bound %d", queue),
			}
			// The journaled overflow event reaches the stream through the
			// normal tail on a later poll, so it is not also written here.
			jw.Emit(over)
		}
		for _, ev := range evs {
			if err := enc.Encode(ev); err != nil {
				return
			}
		}
		if len(evs) > 0 && flusher != nil {
			flusher.Flush()
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}
