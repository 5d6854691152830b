package obs

import (
	"encoding/json"
	"net/http"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
)

// /events streams the run journal as NDJSON: every kept event, then a
// live tail until the client disconnects. Each subscriber polls the
// journal independently, and the journal's kept tail is its backlog: a
// subscriber slower than the run drops its oldest pending events rather
// than applying backpressure to the instrumented process, and the drop
// itself becomes a journal.TypeOverflow event, both on the stream (so the
// consumer knows its view has a hole) and in the run journal (so the gap
// is part of the permanent record). This is the backpressure contract the
// ROADMAP's multi-viewer frame fan-out inherits.

// eventsPollInterval is how often a subscriber checks the journal for
// new events between flushes.
const eventsPollInterval = 50 * time.Millisecond

// handleEvents serves /events.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jw := s.cfg.Journal
	if jw == nil {
		http.Error(w, "no journal attached (start with Config.Journal)", http.StatusNotFound)
		return
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
		evs, missed := jw.EventsSince(cur)
		cur += missed + len(evs)
		if missed > 0 {
			// The subscriber fell behind the journal's kept tail: journal
			// the hole. The overflow event reaches the stream through the
			// normal tail on a later poll, so it is not also written here.
			ctrDropped.Add(int64(missed))
			jw.Emit(journal.Event{
				T: time.Now(), Type: journal.TypeOverflow, Rank: -1, Step: -1,
				Elements: missed,
				Detail:   "obs /events subscriber fell behind the journal's kept tail",
			})
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
