package journal

import (
	"maps"
	"runtime"
	"strconv"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/raceflag"
)

// TestEventsSince checks the in-process tail primitive on both sides of
// the ring's first wrap: kept events come back in emit order, and a
// cursor older than the oldest kept event reports what it missed.
func TestEventsSince(t *testing.T) {
	const over = 100 // events dropped from the wrapped Writer
	short, wrapped := New(), New()
	emitSteps(t, short, 0, 4)
	emitSteps(t, wrapped, 0, tailLen+over)
	end := tailLen + over
	for _, c := range []struct {
		name                       string
		jw                         *Writer
		cursor, first, len, missed int
	}{
		{"short from start", short, 0, 0, 4, 0},
		{"short mid", short, 2, 2, 2, 0},
		{"short at end", short, 4, 0, 0, 0},
		{"short negative", short, -1, 0, 4, 0},
		{"before first kept", wrapped, over / 2, over, tailLen, over / 2},
		{"at first kept", wrapped, over, over, tailLen, 0},
		{"after first kept", wrapped, over + 1, over + 1, tailLen - 1, 0},
		{"across the ring seam", wrapped, tailLen - 1, tailLen - 1, over + 1, 0},
		{"at end", wrapped, end, 0, 0, 0},
		{"past end", wrapped, end + 5, 0, 0, 0},
		{"negative", wrapped, -1, over, tailLen, over},
		{"nil writer", nil, 0, 0, 0, 0},
	} {
		evs, missed := c.jw.EventsSince(c.cursor)
		if len(evs) != c.len || missed != c.missed {
			t.Errorf("%s: EventsSince(%d) = %d events, %d missed; want %d, %d",
				c.name, c.cursor, len(evs), missed, c.len, c.missed)
			continue
		}
		for i, ev := range evs {
			if ev.Step != c.first+i {
				t.Errorf("%s: event %d is step %d, want %d", c.name, i, ev.Step, c.first+i)
				break
			}
		}
	}
}

// TestLenCountsPastTail checks that Len counts every event emitted, kept
// or not: the supervise stall probe reads it as progress.
func TestLenCountsPastTail(t *testing.T) {
	jw := New()
	for n := 1; n <= 3*tailLen; n++ {
		jw.Emit(Event{Type: TypeRender, Step: n})
		if n%tailLen == 0 || n == tailLen+1 {
			if got := jw.Len(); got != n {
				t.Fatalf("Len after %d emits = %d", n, got)
			}
		}
	}
}

// TestEventsHeadsWithOverflow checks that Events reports a gap in-band:
// no overflow event until the ring wraps, then exactly one, first,
// counting the dropped events, followed by the kept ones in order.
func TestEventsHeadsWithOverflow(t *testing.T) {
	jw := New()
	emitSteps(t, jw, 0, tailLen)
	evs := jw.Events()
	if len(evs) != tailLen || evs[0].Type == TypeOverflow {
		t.Fatalf("full ring: %d events, first %s; want %d render events", len(evs), evs[0].Type, tailLen)
	}
	for _, dropped := range []int{1, 7, tailLen + 3} {
		emitSteps(t, jw, jw.Len(), dropped-(jw.Len()-tailLen))
		evs := jw.Events()
		if len(evs) != tailLen+1 {
			t.Fatalf("%d dropped: %d events, want %d", dropped, len(evs), tailLen+1)
		}
		if over := evs[0]; over.Type != TypeOverflow || over.Elements != dropped {
			t.Fatalf("%d dropped: head = %+v, want one overflow event with Elements %d", dropped, over, dropped)
		}
		for i, ev := range evs[1:] {
			if ev.Type == TypeOverflow || ev.Step != dropped+i {
				t.Fatalf("%d dropped: event %d = %s step %d, want render step %d", dropped, i+1, ev.Type, ev.Step, dropped+i)
			}
		}
		if !evs[0].T.Equal(evs[1].T) {
			t.Errorf("overflow stamped %v, want the oldest kept event's %v", evs[0].T, evs[1].T)
		}
	}
}

// TestPhasesMatchBreakdown is the fold's differential test: after three
// ring lengths of events with mixed phases, Phases must equal Breakdown
// over every event emitted, dropped ones included.
func TestPhasesMatchBreakdown(t *testing.T) {
	phases := append([]string{"", "custom"}, Phases...)
	jw := New()
	var all []Event
	for i := 0; i < 3*tailLen; i++ {
		ev := Event{
			Type: TypeRender, Phase: phases[i*7%len(phases)], Step: i,
			DurNS: int64(1 + i*7919%1000),
		}
		jw.Emit(ev)
		all = append(all, ev)
	}
	got, want := jw.Phases(), Breakdown(all)
	if !maps.Equal(got, want) {
		t.Fatalf("Phases = %v, Breakdown over every event = %v", got, want)
	}
	// The copy is the caller's.
	got[PhaseRender] = -time.Hour
	if jw.Phases()[PhaseRender] != want[PhaseRender] {
		t.Fatal("Phases returned the Writer's own map")
	}
}

// TestTailAllocBounded is the Writer's heap gate: once the ring is full,
// more events must not grow the live heap, since a Writer keeps only
// tailLen of them. Each event carries its own Detail string, so a dropped
// event that stayed reachable would show.
func TestTailAllocBounded(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; heap sizes are only meaningful without -race")
	}
	live := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	jw := New()
	emit := func(from, to int) {
		for i := from; i < to; i++ {
			jw.Emit(Event{Type: TypeRender, Phase: PhaseRender, Step: i, DurNS: 1, Detail: "step=" + strconv.Itoa(i)})
		}
	}
	emit(0, 2*tailLen)
	at2 := live()
	emit(2*tailLen, 20*tailLen)
	at20 := live()
	runtime.KeepAlive(jw)
	if d := at20 - at2; d > 64<<10 || d < -64<<10 {
		t.Fatalf("live heap %d B after %d emits, %d B after %d: want within 64 KiB", at2, 2*tailLen, at20, 20*tailLen)
	}
	if jw.Len() != 20*tailLen {
		t.Fatalf("Len = %d, want %d", jw.Len(), 20*tailLen)
	}
}
