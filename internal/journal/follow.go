package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// Follower tails a journal file while it is being written — the live
// half of the replay API. Each Drain call parses every complete
// (newline-terminated) event appended since the follower's byte offset;
// an unterminated final line is the writer's in-flight event and simply
// stays pending until its newline lands, so following a live journal
// never reports a torn tail for an event that is still being written.
//
// The one genuinely exceptional shape is a torn-tail repair:
// journal.Append truncated a torn final line away (the writer crashed
// mid-event and restarted). The follower detects it three ways — the
// file shrinking below its consumed offset, an unterminated fragment
// it was holding as pending shrinking out from under it, or the bytes
// where that fragment sat changing (the repair already overwritten by
// the restarted writer's new events) — and in every case resumes at
// the repaired tail and reports ErrTornTail exactly once, so
// subscribers can surface the discontinuity; no complete event is
// lost.
type Follower struct {
	path string
	off  int64
	// frag is the unterminated trailing fragment observed by the
	// previous Drain — the writer's in-flight event, or a crash's torn
	// tail. A later Drain finding the file shorter than off+len(frag),
	// or different bytes where the fragment was, knows the fragment was
	// repaired away (an in-flight write only ever extends it).
	frag []byte
}

// NewFollower tails the journal at path from the beginning. The file
// may not exist yet — Drain reports no events until it appears.
func NewFollower(path string) *Follower { return &Follower{path: path} }

// Drain parses every complete event appended since the last call and
// advances the offset past them. A missing file yields no events and no
// error; an unterminated final line stays pending for the next call. A
// shrunken file (torn-tail repair by a restarted writer) resets the
// offset to the new end and returns the complete events read so far
// along with an ErrTornTail-wrapped error.
func (f *Follower) Drain() ([]Event, error) {
	file, err := os.Open(f.path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("journal: following %s: %w", f.path, err)
	}
	defer file.Close()

	size, err := file.Seek(0, io.SeekEnd)
	if err != nil {
		return nil, fmt.Errorf("journal: following %s: %w", f.path, err)
	}
	if size < f.off {
		// The writer's restart repaired a torn tail we were waiting on.
		f.off, f.frag = size, nil
		return nil, fmt.Errorf("journal: %s shrank below offset (torn-tail repair): %w", f.path, ErrTornTail)
	}
	if pend := int64(len(f.frag)); pend > 0 && size < f.off+pend {
		// The unterminated fragment we were holding as a pending event
		// shrank away: the restarted writer's tail repair truncated it.
		// Only complete lines were ever consumed, so nothing is lost —
		// but the discontinuity is reported exactly once.
		f.frag = nil
		return nil, fmt.Errorf("journal: %s torn tail repaired under follow: %w", f.path, ErrTornTail)
	}
	if size == f.off {
		f.frag = nil
		return nil, nil
	}
	raw := make([]byte, size-f.off)
	if _, err := file.ReadAt(raw, f.off); err != nil {
		return nil, fmt.Errorf("journal: following %s: %w", f.path, err)
	}
	if pend := len(f.frag); pend > 0 && !bytes.Equal(raw[:pend], f.frag) {
		// The bytes where the fragment sat have changed. A live writer
		// only ever appends, so this is a tail repair that was already
		// overwritten by the restarted incarnation's new events — the
		// race where the file regrows past the old fragment before the
		// next poll. Report the discontinuity once; the events now at
		// the offset are the new incarnation's and parse below as usual.
		f.frag = nil
		return f.drainRaw(raw, fmt.Errorf("journal: %s torn tail repaired and overwritten under follow: %w", f.path, ErrTornTail))
	}
	return f.drainRaw(raw, nil)
}

// drainRaw parses the complete lines of raw (the bytes from f.off to
// the file end), advances the offset past them, and remembers the
// unterminated remainder as the pending fragment. tornErr, when set,
// is a torn-tail discontinuity detected by the caller and is returned
// alongside the successfully parsed events.
func (f *Follower) drainRaw(raw []byte, tornErr error) ([]Event, error) {
	// Only complete lines are consumable; the remainder is the writer's
	// in-flight event (or a crash's torn tail — indistinguishable until
	// the writer either finishes the line or repairs it on restart).
	keep := bytes.LastIndexByte(raw, '\n') + 1
	pending := raw[keep:]
	raw = raw[:keep]

	var events []Event
	consumed := int64(0)
	for len(raw) > 0 {
		nl := bytes.IndexByte(raw, '\n')
		line := bytes.TrimRight(raw[:nl], "\r")
		lineLen := int64(nl + 1)
		raw = raw[nl+1:]
		if len(line) == 0 {
			consumed += lineLen
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			// A malformed *terminated* line is real corruption, not a torn
			// tail; stop before it so the caller sees a stable offset.
			f.off += consumed
			f.frag = nil
			return events, fmt.Errorf("journal: following %s at offset %d: %w", f.path, f.off, err)
		}
		events = append(events, ev)
		consumed += lineLen
	}
	f.off += consumed
	f.frag = append([]byte(nil), pending...)
	return events, tornErr
}
