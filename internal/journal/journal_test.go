package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilWriterIsSafe(t *testing.T) {
	var j *Writer
	j.Emit(Event{Type: TypeRender})
	j.Error(0, 0, errors.New("boom"))
	if j.Events() != nil || j.Len() != 0 || len(j.Phases()) != 0 || j.Sync() != nil || j.Close() != nil {
		t.Error("nil writer misbehaved")
	}
}

func TestEmitStampsTime(t *testing.T) {
	j := New()
	before := time.Now()
	j.Emit(Event{Type: TypeRunStart, Rank: -1, Step: -1})
	evs := j.Events()
	if len(evs) != 1 {
		t.Fatalf("events = %d", len(evs))
	}
	if evs[0].T.Before(before) {
		t.Error("T not stamped")
	}
	// An explicit timestamp is preserved.
	at := time.Date(2020, 5, 18, 0, 0, 0, 0, time.UTC)
	j.Emit(Event{Type: TypeRunEnd, T: at})
	if got := j.Events()[1].T; !got.Equal(at) {
		t.Errorf("T = %v, want %v", got, at)
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Type: TypeRunStart, Rank: -1, Step: -1, Detail: "algorithm=raycast"},
		{Type: TypeDataset, Phase: PhaseGenerate, Rank: -1, Step: 0, DurNS: 1e6, Elements: 500, Bytes: 12000},
		{Type: TypeSample, Phase: PhaseSample, Rank: 0, Step: 0, DurNS: 2e5, Elements: 250, Detail: "method=random ratio=0.5"},
		{Type: TypeTransfer, Phase: PhaseTransport, Rank: 0, Step: 0, DurNS: 3e5, Bytes: 6000, Detail: "send"},
		{Type: TypeRender, Phase: PhaseRender, Rank: 0, Step: 0, DurNS: 4e6, Elements: 250},
		{Type: TypeError, Rank: 1, Step: 0, Err: "synthetic failure"},
		{Type: TypeRunEnd, Rank: -1, Step: -1, DurNS: 6e6},
	}
	for _, ev := range want {
		j.Emit(ev)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Type != w.Type || g.Phase != w.Phase || g.Rank != w.Rank ||
			g.Step != w.Step || g.DurNS != w.DurNS || g.Bytes != w.Bytes ||
			g.Elements != w.Elements || g.Detail != w.Detail || g.Err != w.Err {
			t.Errorf("event %d: got %+v, want %+v", i, g, w)
		}
	}

	// The in-memory record and the file replay agree.
	mem := j.Events()
	for i := range mem {
		if mem[i].Type != got[i].Type || mem[i].DurNS != got[i].DurNS {
			t.Errorf("memory/file divergence at %d", i)
		}
	}
}

func TestBreakdownAndHelpers(t *testing.T) {
	events := []Event{
		{Type: TypeRunStart},
		{Type: TypeDataset, Phase: PhaseGenerate, DurNS: int64(10 * time.Millisecond)},
		{Type: TypeDataset, Phase: PhaseGenerate, DurNS: int64(5 * time.Millisecond)},
		{Type: TypeRender, Phase: PhaseRender, DurNS: int64(40 * time.Millisecond)},
		{Type: TypeComposite, Phase: PhaseComposite, DurNS: int64(2 * time.Millisecond)},
		{Type: TypePhase, Detail: "pair_end", DurNS: int64(time.Hour)}, // no phase: excluded
		{Type: TypeError, Err: "x"},
		{Type: TypeRunEnd, DurNS: int64(60 * time.Millisecond)},
	}
	b := Breakdown(events)
	if b[PhaseGenerate] != 15*time.Millisecond {
		t.Errorf("generate = %v", b[PhaseGenerate])
	}
	if b[PhaseRender] != 40*time.Millisecond {
		t.Errorf("render = %v", b[PhaseRender])
	}
	if len(b) != 3 {
		t.Errorf("phases = %v", b)
	}
	if Wall(events) != 60*time.Millisecond {
		t.Errorf("wall = %v", Wall(events))
	}
	if n := CountByType(events)[TypeDataset]; n != 2 {
		t.Errorf("dataset count = %d", n)
	}
	if errs := Errors(events); len(errs) != 1 || errs[0].Err != "x" {
		t.Errorf("errors = %v", errs)
	}
	if names := PhaseNames(b); len(names) != 3 || names[0] != PhaseGenerate || names[2] != PhaseComposite {
		t.Errorf("phase names = %v", names)
	}
}

func TestWallWithoutRunEnd(t *testing.T) {
	t0 := time.Now()
	events := []Event{
		{Type: TypeRunStart, T: t0},
		{Type: TypeRender, T: t0.Add(30 * time.Millisecond)},
	}
	if Wall(events) != 30*time.Millisecond {
		t.Errorf("wall = %v", Wall(events))
	}
	if Wall(nil) != 0 {
		t.Error("empty wall nonzero")
	}
}

func TestReadSkipsBlankAndFlagsMalformed(t *testing.T) {
	good := `{"t":"2020-05-18T00:00:00Z","type":"run_start","rank":-1,"step":-1}

{"t":"2020-05-18T00:00:01Z","type":"run_end","rank":-1,"step":-1}
`
	events, err := Read(strings.NewReader(good))
	if err != nil || len(events) != 2 {
		t.Fatalf("events = %d, err = %v", len(events), err)
	}
	if _, err := Read(strings.NewReader("{not json}\n")); err == nil {
		t.Error("malformed line accepted")
	} else if !strings.Contains(err.Error(), "line 1") {
		t.Errorf("error lacks line number: %v", err)
	}
}

// TestTornTailTolerated byte-truncates a journal mid final line — the
// exact artifact a kill -9 during a write leaves — and demands every
// complete event back plus the ErrTornTail sentinel.
func TestTornTailTolerated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		j.Emit(Event{Type: TypeRender, Phase: PhaseRender, Rank: 0, Step: i, DurNS: 1})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Losing only the trailing newline leaves a complete, parseable
	// event: not torn, all 5 events intact.
	if err := os.WriteFile(path, raw[:len(raw)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if events, err := ReadFile(path); err != nil || len(events) != 5 {
		t.Fatalf("newline-only truncation: %d events, err = %v", len(events), err)
	}
	// Tear the final line at every truncation point that leaves a partial
	// write: from "two bytes of line 5 missing" down to "line 5 barely
	// started". All must yield the 4 complete events plus the sentinel.
	last := bytes.LastIndexByte(bytes.TrimRight(raw, "\n"), '\n') + 1
	for cut := len(raw) - 2; cut > last; cut-- {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		events, err := ReadFile(path)
		if !errors.Is(err, ErrTornTail) {
			t.Fatalf("cut=%d: err = %v, want wrapped ErrTornTail", cut, err)
		}
		if len(events) != 4 {
			t.Fatalf("cut=%d: recovered %d events, want 4", cut, len(events))
		}
		for i, ev := range events {
			if ev.Step != i {
				t.Fatalf("cut=%d: event %d has step %d", cut, i, ev.Step)
			}
		}
	}
	// A clean truncation at the line boundary is not torn: 4 events, nil.
	if err := os.WriteFile(path, raw[:last], 0o644); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil || len(events) != 4 {
		t.Fatalf("boundary truncation: %d events, err = %v", len(events), err)
	}
	// A malformed line in the middle (newline-terminated) is still a hard
	// error: torn-tail tolerance must not mask real corruption.
	bad := append(append([]byte{}, raw[:last]...), []byte("{corrupt}\n")...)
	bad = append(bad, raw[last:]...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil || errors.Is(err, ErrTornTail) {
		t.Errorf("mid-file corruption: err = %v, want a hard parse error", err)
	}
}

// TestAppendContinuesStream proves the restart path: a second writer
// opened with Append extends the first incarnation's journal instead of
// truncating it.
func TestAppendContinuesStream(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j1, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j1.Emit(Event{Type: TypeRender, Step: 0})
	j1.Emit(Event{Type: TypeRender, Step: 1})
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Emit(Event{Type: TypeRestart, Step: -1, Detail: "role=viz attempt=1/3 cause=kill"})
	j2.Emit(Event{Type: TypeRender, Step: 2})
	if err := j2.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	if events[2].Type != TypeRestart || events[3].Step != 2 {
		t.Errorf("appended events wrong: %+v", events[2:])
	}
}

// TestAppendRepairsTornTail pins the restart-after-kill path: reopening
// a journal whose final line was torn by a crash truncates the partial
// line, so the resumed stream stays parseable end to end.
func TestAppendRepairsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j1, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	j1.Emit(Event{Type: TypeRender, Step: 0})
	j1.Emit(Event{Type: TypeRender, Step: 1})
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last line mid-record, as a kill -9 mid-write would.
	if err := os.WriteFile(path, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}
	j2, err := Append(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Emit(Event{Type: TypeRender, Step: 1})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatalf("resumed journal unreadable: %v", err)
	}
	if len(events) != 2 || events[1].Step != 1 {
		t.Fatalf("events = %+v, want torn step-1 line replaced by appended one", events)
	}
}

// TestCursor checks the resume fold over journals as restarted processes
// find them: the rank's last checkpoint wins, other ranks and event types
// are ignored, a torn final line is not a checkpoint, and a checkpoint an
// earlier build wrote next to its sidecar file reads by Step alone.
func TestCursor(t *testing.T) {
	const (
		start = `{"type":"run_start","rank":-1,"step":-1}` + "\n"
		end   = `{"type":"run_end","rank":-1,"step":-1}` + "\n"
	)
	ckpt := func(rank, step int) string {
		return `{"type":"checkpoint","rank":` + strconv.Itoa(rank) + `,"step":` + strconv.Itoa(step) + `}` + "\n"
	}
	render := `{"type":"render","phase":"render","rank":0,"step":2}` + "\n"
	for _, tc := range []struct {
		name    string
		journal string
		rank    int
		want    int
	}{
		{"empty", "", 0, 0},
		{"no checkpoints", start + render + end, 0, 0},
		{"two ranks interleaved, rank 0", start + ckpt(0, 0) + ckpt(1, 0) + ckpt(1, 1) + ckpt(0, 1) + ckpt(1, 2), 0, 2},
		{"two ranks interleaved, rank 1", start + ckpt(0, 0) + ckpt(1, 0) + ckpt(1, 1) + ckpt(0, 1) + ckpt(1, 2), 1, 3},
		{"rank with none", start + ckpt(1, 4), 0, 0},
		{"second run appended after a finished one", start + ckpt(0, 0) + ckpt(0, 1) + ckpt(0, 2) + end + start + ckpt(0, 0), 0, 1},
		{"torn tail", start + ckpt(0, 0) + ckpt(0, 1) + `{"type":"checkpoint","rank":0,"st`, 0, 2},
		{"earlier build's sidecar detail", start + `{"type":"checkpoint","rank":0,"step":3,"detail":"cursor=4 path=rank0.ckpt"}` + "\n", 0, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			events, err := Read(strings.NewReader(tc.journal))
			if err != nil && !errors.Is(err, ErrTornTail) {
				t.Fatal(err)
			}
			if got := Cursor(events, tc.rank); got != tc.want {
				t.Errorf("Cursor(rank %d) = %d, want %d", tc.rank, got, tc.want)
			}
		})
	}
}

func TestConcurrentEmit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	const workers, per = 8, 100
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				j.Emit(Event{Type: TypeRender, Phase: PhaseRender, Rank: w, Step: i, DurNS: 1})
			}
		}(w)
	}
	wg.Wait()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != workers*per {
		t.Errorf("replayed %d events, want %d", len(events), workers*per)
	}
	if Breakdown(events)[PhaseRender] != time.Duration(workers*per) {
		t.Error("concurrent events lost duration")
	}
}

// failAfter is a sink backend whose writes succeed until ok runs out
// and then fail, each failure numbered: the disk that breaks mid-run.
type failAfter struct {
	ok, fails int
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.ok > 0 {
		w.ok--
		return len(p), nil
	}
	w.fails++
	return 0, errors.New("disk on fire #" + strconv.Itoa(w.fails))
}

// TestSyncReportsFirstWriteError pins the sticky error a Sync barrier
// returns: over a failing io.Writer, Sync returns the first write
// error, and events emitted after it neither replace it nor reach the
// backend.
func TestSyncReportsFirstWriteError(t *testing.T) {
	bw := &failAfter{ok: 1}
	j := NewWriter(bw)
	j.Emit(Event{Type: TypeRender, Step: 0})
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync after a good write = %v", err)
	}
	j.Emit(Event{Type: TypeRender, Step: 1})
	first := j.Sync()
	if first == nil || !strings.Contains(first.Error(), "disk on fire #1") {
		t.Fatalf("Sync over a failing backend = %v, want the first write error", first)
	}
	j.Emit(Event{Type: TypeRender, Step: 2})
	j.Emit(Event{Type: TypeRender, Step: 3})
	if err := j.Sync(); err == nil || err.Error() != first.Error() {
		t.Fatalf("Sync after later events = %v, want the first error %v", err, first)
	}
	if bw.fails != 1 {
		t.Errorf("backend saw %d failing writes, want 1", bw.fails)
	}
}
