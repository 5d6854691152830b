package faults

import (
	"errors"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"
)

// memPipe returns both ends of an in-memory connection.
func memPipe(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestCorruptFlipsExactlyOneByte(t *testing.T) {
	s := New(1, Rule{Side: SideSim, Conn: 0, Op: OpWrite, Nth: 1, Action: Corrupt, Pos: 3})
	a, b := memPipe(t)
	fc := s.WrapAccepted(a)

	msg := []byte("hello, chaos")
	read := func() []byte {
		buf := make([]byte, len(msg))
		if _, err := b.Read(buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	go fc.Write(msg)
	if got := read(); !reflect.DeepEqual(got, msg) {
		t.Errorf("write 0 altered: %q", got)
	}
	go fc.Write(msg)
	got := read()
	diffs := 0
	for i := range msg {
		if got[i] != msg[i] {
			diffs++
			if i != 3 {
				t.Errorf("byte %d corrupted, want position 3", i)
			}
		}
	}
	if diffs != 1 {
		t.Errorf("corrupt changed %d bytes, want exactly 1", diffs)
	}
	if fired := s.Fired(); len(fired) != 1 || !strings.Contains(fired[0], "corrupt") {
		t.Errorf("fired = %v", fired)
	}
}

func TestDropSwallowsWrite(t *testing.T) {
	s := New(1, Rule{Side: SideSim, Conn: Any, Op: OpWrite, Nth: 0, Action: Drop})
	a, b := memPipe(t)
	fc := s.WrapAccepted(a)
	n, err := fc.Write([]byte("vanishes"))
	if err != nil || n != 8 {
		t.Fatalf("drop write: n=%d err=%v", n, err)
	}
	// Nothing must arrive: a read with a deadline times out.
	b.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if _, err := b.Read(make([]byte, 8)); err == nil {
		t.Error("dropped write reached the peer")
	}
}

func TestResetClosesMidWrite(t *testing.T) {
	s := New(1, Rule{Side: SideViz, Conn: 0, Op: OpWrite, Nth: 0, Action: Reset})
	a, b := memPipe(t)
	fc := s.WrapDialed(a)
	go func() {
		buf := make([]byte, 64)
		for {
			if _, err := b.Read(buf); err != nil {
				return
			}
		}
	}()
	_, err := fc.Write(make([]byte, 32))
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// The underlying conn is closed: further writes fail.
	if _, err := a.Write([]byte("x")); err == nil {
		t.Error("conn still open after reset")
	}
}

func TestConnIndexingPerSide(t *testing.T) {
	// The rule targets viz conn 1; viz conn 0 and sim conns are untouched.
	s := New(1, Rule{Side: SideViz, Conn: 1, Op: OpWrite, Nth: Any, Action: Partial})
	write := func(c net.Conn, peer net.Conn) error {
		go func() {
			buf := make([]byte, 64)
			for {
				if _, err := peer.Read(buf); err != nil {
					return
				}
			}
		}()
		_, err := c.Write(make([]byte, 16))
		return err
	}
	a0, b0 := memPipe(t)
	if err := write(s.WrapDialed(a0), b0); err != nil {
		t.Errorf("viz conn 0: %v", err)
	}
	a1, b1 := memPipe(t)
	if err := write(s.WrapAccepted(a1), b1); err != nil {
		t.Errorf("sim conn 0: %v", err)
	}
	a2, b2 := memPipe(t)
	if err := write(s.WrapDialed(a2), b2); !errors.Is(err, ErrInjected) {
		t.Errorf("viz conn 1: err = %v, want ErrInjected", err)
	}
}

func TestDialerRefusesScheduledAttempts(t *testing.T) {
	s := New(1,
		Rule{Side: SideViz, Conn: Any, Op: OpDial, Nth: 0, Action: Refuse},
		Rule{Side: SideViz, Conn: Any, Op: OpDial, Nth: 1, Action: Refuse},
	)
	calls := 0
	base := func(network, addr string, timeout time.Duration) (net.Conn, error) {
		calls++
		c, _ := net.Pipe()
		return c, nil
	}
	dial := s.Dialer(base)
	for i := 0; i < 2; i++ {
		if _, err := dial("tcp", "x", time.Second); !errors.Is(err, ErrInjected) {
			t.Fatalf("attempt %d: err = %v, want ErrInjected", i, err)
		}
	}
	c, err := dial("tcp", "x", time.Second)
	if err != nil {
		t.Fatalf("attempt 2: %v", err)
	}
	defer c.Close()
	if calls != 1 {
		t.Errorf("base dial called %d times, want 1 (refusals must not dial)", calls)
	}
	if _, ok := c.(*faultConn); !ok {
		t.Error("successful dial not wrapped")
	}
}

func TestDeterministicCorruptPositions(t *testing.T) {
	// Without an explicit Pos the flipped byte comes from the seeded RNG:
	// same seed, same positions; different seed, (almost surely) different.
	positions := func(seed int64) []int {
		s := New(seed, Rule{Side: SideSim, Conn: Any, Op: OpWrite, Nth: Any, Action: Corrupt})
		var out []int
		for i := 0; i < 8; i++ {
			out = append(out, s.corruptPos(&s.rules[0], 1<<20))
		}
		return out
	}
	if !reflect.DeepEqual(positions(42), positions(42)) {
		t.Error("same seed produced different corrupt positions")
	}
	if reflect.DeepEqual(positions(42), positions(43)) {
		t.Error("different seeds produced identical corrupt positions")
	}
}

func TestCloneResetsCounters(t *testing.T) {
	s := New(1, Rule{Side: SideSim, Conn: 0, Op: OpWrite, Nth: 0, Action: Drop})
	a, _ := memPipe(t)
	c := s.WrapAccepted(a)
	c.Write([]byte("x")) // fires on conn 0
	if len(s.Fired()) != 1 {
		t.Fatalf("fired = %v", s.Fired())
	}
	s2 := s.Clone(2)
	if len(s2.Fired()) != 0 {
		t.Error("clone inherited fired history")
	}
	a2, _ := memPipe(t)
	c2 := s2.WrapAccepted(a2) // counter reset: this is conn 0 again
	if n, err := c2.Write([]byte("x")); err != nil || n != 1 {
		t.Errorf("clone conn 0 write: n=%d err=%v", n, err)
	}
	if len(s2.Fired()) != 1 {
		t.Error("clone rule did not fire on fresh conn 0")
	}
}

// roundTripSchedule has one rule of every action, wildcards, a comment and
// blank lines.
const roundTripSchedule = `
# a comment
sim:0:write[1]:corrupt=30
viz:*:dial[0]:refuse
viz:1:write[2]:delay=250ms
sim:*:read[*]:reset
sim:0:write[3]:partial
viz:0:write[0]:drop
`

func TestParseRoundTrip(t *testing.T) {
	s, err := Parse(roundTripSchedule, 7)
	if err != nil {
		t.Fatal(err)
	}
	rules := s.rules
	want := []Rule{
		{Side: SideSim, Conn: 0, Op: OpWrite, Nth: 1, Action: Corrupt, Pos: 30},
		{Side: SideViz, Conn: Any, Op: OpDial, Nth: 0, Action: Refuse},
		{Side: SideViz, Conn: 1, Op: OpWrite, Nth: 2, Action: Delay, Delay: 250 * time.Millisecond},
		{Side: SideSim, Conn: Any, Op: OpRead, Nth: Any, Action: Reset},
		{Side: SideSim, Conn: 0, Op: OpWrite, Nth: 3, Action: Partial},
		{Side: SideViz, Conn: 0, Op: OpWrite, Nth: 0, Action: Drop},
	}
	if !reflect.DeepEqual(rules, want) {
		t.Errorf("rules = %+v\nwant    %+v", rules, want)
	}
	// String() renders back into parseable syntax.
	for _, r := range rules {
		re, err := parseRule(r.String())
		if err != nil {
			t.Errorf("re-parsing %q: %v", r.String(), err)
		}
		if !reflect.DeepEqual(re, r) {
			t.Errorf("round trip %q: %+v != %+v", r.String(), re, r)
		}
	}
}

// badSchedules are schedules Parse must refuse.
var badSchedules = []string{
	"",                             // no rules
	"sim:0:write[1]",               // missing action
	"mars:0:write[1]:corrupt",      // unknown side
	"sim:x:write[1]:corrupt",       // bad conn
	"sim:0:poke[1]:corrupt",        // unknown op
	"sim:0:write[1]:explode",       // unknown action
	"sim:0:write[1]:delay",         // delay without duration
	"sim:0:write[1]:delay=fast",    // bad duration
	"sim:-1:write[1]:corrupt",      // negative index
	"sim:0x10:write[1]:corrupt",    // hex conn (was read as 0)
	"sim:1e3:write[1]:corrupt",     // exponent conn (was read as 1)
	"sim:0:write[2x]:corrupt",      // trailing garbage in nth
	"sim:0:write[ 1]:corrupt",      // space in nth
	"sim:0:write[1]:corrupt=30abc", // trailing garbage in position (was 30)
	"sim:0:write[1]:corrupt=-5",    // negative position (printed as bare corrupt)
	"sim:0:write[1]:corrupt=",      // empty position
	"sim:0:write[1]:drop=3",        // argument on an action that takes none
}

func TestParseErrors(t *testing.T) {
	for _, bad := range badSchedules {
		if _, err := Parse(bad, 1); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestNilScheduleIsTransparent(t *testing.T) {
	var s *Schedule
	a, _ := memPipe(t)
	if s.WrapAccepted(a) != a {
		t.Error("nil schedule wrapped the conn")
	}
	if s.Fired() != nil {
		t.Error("nil schedule has fired history")
	}
	if s.Clone(1) != nil {
		t.Error("nil clone not nil")
	}
}
