package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// Handler exposes the scheduler's control surface as a local HTTP API:
//
//	POST /specs       submit one spec or a JSON array of specs
//	GET  /specs       list every spec with its live state
//	GET  /specs/{id}  one spec's state
//	GET  /fleet       the live counts (conservation-law tally)
//	POST /drain       request a graceful drain
//
// The API is a steering plane, not a public service: ethserve binds it
// to localhost. Submissions are validated and their submit events
// fsynced to the fleet journal before the 200 returns, so an
// acknowledged spec survives any crash.
func (s *Scheduler) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /specs", s.handleSubmit)
	mux.HandleFunc("GET /specs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Snapshot())
	})
	mux.HandleFunc("GET /specs/{id}", func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		for _, st := range s.Snapshot() {
			if st.ID == id {
				writeJSON(w, http.StatusOK, st)
				return
			}
		}
		http.Error(w, fmt.Sprintf("unknown spec %q", id), http.StatusNotFound)
	})
	mux.HandleFunc("GET /fleet", func(w http.ResponseWriter, r *http.Request) {
		c := s.Counts()
		writeJSON(w, http.StatusOK, struct {
			Counts
			Balanced bool `json:"balanced"`
		}{c, c.Balanced()})
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, r *http.Request) {
		s.Drain()
		writeJSON(w, http.StatusAccepted, map[string]bool{"draining": true})
	})
	return mux
}

// handleSubmit accepts one spec or an array. All-or-nothing per
// request is NOT promised — each spec is acknowledged individually and
// the first failure stops the batch with its index reported, matching
// the persistence order.
func (s *Scheduler) handleSubmit(w http.ResponseWriter, r *http.Request) {
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusBadRequest)
		return
	}
	var specs []Spec
	if err := json.Unmarshal(raw, &specs); err != nil {
		// Not an array: retry as a single spec object.
		var one Spec
		if oerr := json.Unmarshal(raw, &one); oerr != nil {
			http.Error(w, fmt.Sprintf("decoding specs: %v (send a spec object or an array of specs)", err), http.StatusBadRequest)
			return
		}
		specs = []Spec{one}
	}
	for i, sp := range specs {
		if err := s.Submit(sp); err != nil {
			status := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrBadSpec):
				status = http.StatusBadRequest
			case errors.Is(err, ErrDuplicate):
				status = http.StatusConflict
			}
			http.Error(w, fmt.Sprintf("spec %d (%d submitted before it): %v", i, i, err), status)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"submitted": len(specs)})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
