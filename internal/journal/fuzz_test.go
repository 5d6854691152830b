package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// FuzzJournalRead is the hardening gate for the journal reader, which
// replays whatever a crashed or foreign writer left on disk: Read must
// never panic on any bytes, and a journal of valid events cut at any
// byte must give back exactly the events whose JSON is whole — a cut
// just after an object's closing brace still counts — with an
// ErrTornTail-wrapped error when, and only when, the cut lands inside an
// object.
func FuzzJournalRead(f *testing.F) {
	f.Add("algorithm=raycast images=2", uint16(0), []byte(nil))
	f.Add("", uint16(90), []byte("{\"type\":\"render\""))
	f.Add("quote\" newline\n brace} \xff", uint16(200), []byte("{}\n{corrupt}\n"))
	f.Add("x", uint16(65535), []byte("\n\n{\"step\":1}"))
	f.Fuzz(func(t *testing.T, detail string, cut uint16, junk []byte) {
		Read(bytes.NewReader(junk))

		var buf bytes.Buffer
		j := NewWriter(&buf)
		at := time.Date(2020, 5, 18, 0, 0, 0, 0, time.UTC)
		j.Emit(Event{T: at, Type: TypeRunStart, Rank: -1, Step: -1, Detail: detail})
		j.Emit(Event{T: at, Type: TypeRender, Phase: PhaseRender, Step: 0, DurNS: 7, Elements: 3, Detail: detail})
		j.Emit(Event{T: at, Type: TypeError, Rank: 1, Step: 1, Err: detail, Src: detail})
		j.Emit(Event{T: at, Type: TypeRunEnd, Rank: -1, Step: -1, DurNS: 9})
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()
		k := int(cut) % (len(raw) + 1)

		var whole [][]byte
		torn := false
		for start := 0; start < len(raw); {
			end := start + bytes.IndexByte(raw[start:], '\n') + 1
			switch brace := end - 2; {
			case k > brace:
				whole = append(whole, raw[start:end-1])
			case k > start:
				torn = true
			}
			start = end
		}

		events, err := Read(bytes.NewReader(raw[:k]))
		if torn != errors.Is(err, ErrTornTail) || (!torn && err != nil) {
			t.Fatalf("cut %d of %d: err = %v, torn = %v", k, len(raw), err, torn)
		}
		if len(events) != len(whole) {
			t.Fatalf("cut %d of %d: %d events back, want %d", k, len(raw), len(events), len(whole))
		}
		for i, ev := range events {
			var want Event
			if err := json.Unmarshal(whole[i], &want); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ev, want) {
				t.Fatalf("cut %d: event %d reads back as %+v, want %+v", k, i, ev, want)
			}
		}
	})
}

// FuzzFollowerDrain is the hardening gate for the live tail: a valid
// journal written to disk in arbitrary chunk cuts, with a Drain after
// every chunk, must never make Drain panic or fail, and the events all
// the Drains return, in order, must be exactly what Read gives back from
// the finished file.
func FuzzFollowerDrain(f *testing.F) {
	f.Add("algorithm=raycast images=2", []byte{1, 40, 0, 255})
	f.Add("", []byte(nil))
	f.Add("quote\" newline\n brace} \xff", []byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, detail string, cuts []byte) {
		var buf bytes.Buffer
		j := NewWriter(&buf)
		at := time.Date(2020, 5, 18, 0, 0, 0, 0, time.UTC)
		j.Emit(Event{T: at, Type: TypeRunStart, Rank: -1, Step: -1, Detail: detail})
		j.Emit(Event{T: at, Type: TypeRender, Phase: PhaseRender, Step: 0, DurNS: 7, Elements: 3, Detail: detail})
		j.Emit(Event{T: at, Type: TypeError, Rank: 1, Step: 1, Err: detail, Src: detail})
		j.Emit(Event{T: at, Type: TypeRunEnd, Rank: -1, Step: -1, DurNS: 9})
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		raw := buf.Bytes()

		path := filepath.Join(t.TempDir(), "run.jsonl")
		file, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer file.Close()
		fl := NewFollower(path)
		var got []Event
		drain := func() {
			events, err := fl.Drain()
			if err != nil {
				t.Fatalf("drain: %v", err)
			}
			got = append(got, events...)
		}
		for i := 0; len(raw) > 0; i++ {
			n := len(raw)
			if i < len(cuts) {
				n = min(int(cuts[i]), n)
			}
			if _, err := file.Write(raw[:n]); err != nil {
				t.Fatal(err)
			}
			raw = raw[n:]
			drain()
		}
		drain()

		want, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("drained %+v, want %+v", got, want)
		}
	})
}
