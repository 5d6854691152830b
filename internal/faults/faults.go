// Package faults is ETH's deterministic fault-injection layer for the
// inter-proxy transport. A Schedule wraps the net.Conn values of a
// socket-coupled proxy pair and injects link failures — byte corruption,
// dropped frames, stalls, partial writes, mid-frame resets, and refused
// dials — from a reproducible plan: every injection is selected by a
// step-indexed rule and any randomness (which byte to corrupt) comes from
// a PRNG seeded at construction, never from wall-clock entropy. The same
// schedule therefore produces the same fault sequence on every run, which
// is what lets the chaos suite assert exact recovery semantics and what
// lets `ethrun -faults` replay a failure end-to-end.
//
// Rules address operations by coordinates that are deterministic under
// the framed transport protocol: each side of a pairing (the accepting
// simulation side, the dialing visualization side) numbers its
// connections 0,1,2,... in establishment order, and each connection
// numbers its Write calls 0,1,2,... Because the transport buffers a whole
// frame and flushes it with one Write, write index k is frame k on that
// connection. Dial rules index dial attempts per schedule the same way.
package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// ErrInjected is the sentinel wrapped by every error this package
// injects, so recovery code (and tests) can tell a scheduled fault from a
// real one with errors.Is.
var ErrInjected = errors.New("faults: injected failure")

// Side identifies which end of a proxy pairing a rule applies to.
type Side uint8

const (
	// SideSim is the simulation side: connections wrapped by
	// WrapAccepted, numbered in accept order.
	SideSim Side = iota
	// SideViz is the visualization side: connections wrapped by the
	// Dialer, numbered in successful-dial order; dial rules count
	// attempts on this side.
	SideViz
)

// String implements fmt.Stringer.
func (s Side) String() string {
	if s == SideViz {
		return "viz"
	}
	return "sim"
}

// Op is the operation class a rule matches.
type Op uint8

const (
	// OpWrite matches the Nth Write call on a connection (frame N under
	// the transport's one-flush-per-frame discipline).
	OpWrite Op = iota
	// OpRead matches the Nth Read call on a connection. Read boundaries
	// depend on kernel delivery, so read rules are less deterministic
	// than write rules; prefer writes for reproducible scenarios.
	OpRead
	// OpDial matches the Nth dial attempt made through the schedule's
	// Dialer.
	OpDial
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpDial:
		return "dial"
	default:
		return "write"
	}
}

// Action is what an activated rule does to its operation.
type Action uint8

const (
	// Corrupt flips one byte of the written data (position from Rule.Pos,
	// or seeded-random when Pos <= 0) and lets the write proceed.
	Corrupt Action = iota
	// Drop swallows the write: the caller sees success, the peer sees
	// nothing. The peer's read deadline is what eventually notices.
	Drop
	// Delay sleeps Rule.Delay before performing the operation.
	Delay
	// Reset writes the first half of the data, closes the underlying
	// connection, and returns an injected error — a mid-frame reset.
	Reset
	// Partial writes the first half of the data and returns an injected
	// error without closing, leaving a truncated frame in flight.
	Partial
	// Refuse fails a dial attempt with an injected error.
	Refuse
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Reset:
		return "reset"
	case Partial:
		return "partial"
	case Refuse:
		return "refuse"
	default:
		return "corrupt"
	}
}

// Rule schedules one class of injection. Conn and Nth select the target
// operation; Any (-1) wildcards match every candidate, so a rule can fire
// repeatedly.
type Rule struct {
	// Side selects which end's counters the rule consults.
	Side Side
	// Conn is the connection index on that side, or Any.
	Conn int
	// Op is the operation class.
	Op Op
	// Nth is the 0-based operation index on the connection (or the dial
	// attempt index for OpDial), or Any.
	Nth int
	// Action is the injected behavior.
	Action Action
	// Delay is the stall duration for Delay actions.
	Delay time.Duration
	// Pos, for Corrupt, is the byte offset to flip; <= 0 picks a
	// seeded-random offset. v3 dataset frames carry an 18-byte header,
	// so offsets >= 18 land in the payload.
	Pos int
}

// Any wildcards a Rule's Conn or Nth coordinate.
const Any = -1

// String renders the rule in the schedule-file syntax understood by
// Parse.
func (r Rule) String() string {
	conn := "*"
	if r.Conn != Any {
		conn = fmt.Sprintf("%d", r.Conn)
	}
	nth := "*"
	if r.Nth != Any {
		nth = fmt.Sprintf("%d", r.Nth)
	}
	s := fmt.Sprintf("%s:%s:%s[%s]:%s", r.Side, conn, r.Op, nth, r.Action)
	switch r.Action {
	case Delay:
		s += "=" + r.Delay.String()
	case Corrupt:
		if r.Pos > 0 {
			s += fmt.Sprintf("=%d", r.Pos)
		}
	}
	return s
}

// Schedule is a reproducible fault plan: a rule set plus a seeded PRNG
// and per-side connection/dial counters. Safe for concurrent use by both
// sides of a pairing.
type Schedule struct {
	mu    sync.Mutex
	seed  int64
	rules []Rule
	rng   *rand.Rand // guarded by mu
	conns [2]int     // guarded by mu: next connection index per side
	dials int        // guarded by mu: dial attempt counter
	fired []string   // guarded by mu: description of every injection
}

// New builds a schedule from rules with the given seed. The seed drives
// only the residual randomness (corrupt-byte positions without an
// explicit Pos); rule selection is fully positional.
func New(seed int64, rules ...Rule) *Schedule {
	return &Schedule{
		seed:  seed,
		rules: append([]Rule(nil), rules...),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

// Clone returns a fresh schedule with the same rules and a new seed,
// zeroed counters, and no fired history — one per rank, so concurrent
// pairs replay independent copies of the same plan.
func (s *Schedule) Clone(seed int64) *Schedule {
	if s == nil {
		return nil
	}
	return New(seed, s.rules...)
}

// Rules returns a copy of the schedule's rule set.
func (s *Schedule) Rules() []Rule {
	return append([]Rule(nil), s.rules...)
}

// Fired returns a description of every injection performed so far, in
// firing order.
func (s *Schedule) Fired() []string {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.fired...)
}

// WrapAccepted wraps a connection accepted by the simulation side,
// assigning it the next SideSim connection index. Nil schedules pass the
// connection through untouched.
func (s *Schedule) WrapAccepted(c net.Conn) net.Conn { return s.wrap(c, SideSim) }

// WrapDialed wraps a connection dialed by the visualization side,
// assigning it the next SideViz connection index.
func (s *Schedule) WrapDialed(c net.Conn) net.Conn { return s.wrap(c, SideViz) }

func (s *Schedule) wrap(c net.Conn, side Side) net.Conn {
	if s == nil {
		return c
	}
	s.mu.Lock()
	idx := s.conns[side]
	s.conns[side]++
	s.mu.Unlock()
	return &faultConn{Conn: c, s: s, side: side, idx: idx}
}

// DialFunc matches transport.Backoff's pluggable dial signature.
type DialFunc func(network, addr string, timeout time.Duration) (net.Conn, error)

// Dialer wraps base (nil = net.DialTimeout) with the schedule's dial
// rules: each attempt is counted, Refuse/Delay rules apply, and
// successful dials come back wrapped as SideViz connections.
func (s *Schedule) Dialer(base DialFunc) DialFunc {
	if base == nil {
		base = net.DialTimeout
	}
	if s == nil {
		return base
	}
	return func(network, addr string, timeout time.Duration) (net.Conn, error) {
		s.mu.Lock()
		attempt := s.dials
		s.dials++
		r := s.matchLocked(SideViz, Any, OpDial, attempt)
		if r != nil {
			s.noteLocked("dial[%d] %s", attempt, r.Action)
		}
		s.mu.Unlock()
		if r != nil {
			switch r.Action {
			case Refuse:
				return nil, fmt.Errorf("faults: dial attempt %d refused: %w", attempt, ErrInjected)
			case Delay:
				time.Sleep(r.Delay)
			}
		}
		c, err := base(network, addr, timeout)
		if err != nil {
			return nil, err
		}
		return s.WrapDialed(c), nil
	}
}

// match finds the first rule covering (side, conn, op, nth), or nil.
func (s *Schedule) match(side Side, conn int, op Op, nth int) *Rule {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.matchLocked(side, conn, op, nth)
}

func (s *Schedule) matchLocked(side Side, conn int, op Op, nth int) *Rule {
	for i := range s.rules {
		r := &s.rules[i]
		if r.Side != side || r.Op != op {
			continue
		}
		if r.Conn != Any && conn != Any && r.Conn != conn {
			continue
		}
		if r.Nth != Any && r.Nth != nth {
			continue
		}
		return r
	}
	return nil
}

// note records one injection (locked variant for callers holding mu).
func (s *Schedule) note(format string, args ...any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.noteLocked(format, args...)
}

func (s *Schedule) noteLocked(format string, args ...any) {
	s.fired = append(s.fired, fmt.Sprintf(format, args...))
}

// corruptPos picks the byte to flip: the rule's explicit Pos when set,
// otherwise a seeded-random offset (deterministic per schedule).
func (s *Schedule) corruptPos(r *Rule, n int) int {
	if r.Pos > 0 && r.Pos < n {
		return r.Pos
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rng.Intn(n)
}

// faultConn is a net.Conn that consults its schedule on every operation.
type faultConn struct {
	net.Conn
	s    *Schedule
	side Side
	idx  int
	// opmu guards the per-connection operation counters: the protocol
	// uses each connection from one goroutine at a time, but the chaos
	// suite runs under -race and close races are real.
	opmu   sync.Mutex
	reads  int // guarded by opmu
	writes int // guarded by opmu
}

// nextOp atomically takes the next operation index of the given class.
func (f *faultConn) nextOp(op Op) int {
	f.opmu.Lock()
	defer f.opmu.Unlock()
	if op == OpRead {
		n := f.reads
		f.reads++
		return n
	}
	n := f.writes
	f.writes++
	return n
}

// Write applies any matching write rule before (or instead of)
// delegating.
func (f *faultConn) Write(p []byte) (int, error) {
	nth := f.nextOp(OpWrite)
	r := f.s.match(f.side, f.idx, OpWrite, nth)
	if r == nil {
		return f.Conn.Write(p)
	}
	switch r.Action {
	case Corrupt:
		q := append([]byte(nil), p...)
		pos := f.s.corruptPos(r, len(q))
		q[pos] ^= 0xA5
		f.s.note("%s conn %d write[%d] corrupt byte %d", f.side, f.idx, nth, pos)
		return f.Conn.Write(q)
	case Drop:
		f.s.note("%s conn %d write[%d] drop %dB", f.side, f.idx, nth, len(p))
		return len(p), nil
	case Delay:
		f.s.note("%s conn %d write[%d] delay %v", f.side, f.idx, nth, r.Delay)
		time.Sleep(r.Delay)
		return f.Conn.Write(p)
	case Reset:
		n, _ := f.Conn.Write(p[:len(p)/2])
		f.Conn.Close()
		f.s.note("%s conn %d write[%d] reset after %dB", f.side, f.idx, nth, n)
		return n, fmt.Errorf("faults: reset %s conn %d write %d: %w", f.side, f.idx, nth, ErrInjected)
	case Partial:
		n, err := f.Conn.Write(p[:(len(p)+1)/2])
		f.s.note("%s conn %d write[%d] partial %d/%dB", f.side, f.idx, nth, n, len(p))
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("faults: partial %s conn %d write %d: %w", f.side, f.idx, nth, ErrInjected)
	default:
		return f.Conn.Write(p)
	}
}

// Read applies any matching read rule before delegating. Only Delay,
// Drop (returns an injected error without reading), and Reset are
// meaningful on reads.
func (f *faultConn) Read(p []byte) (int, error) {
	nth := f.nextOp(OpRead)
	r := f.s.match(f.side, f.idx, OpRead, nth)
	if r == nil {
		return f.Conn.Read(p)
	}
	switch r.Action {
	case Delay:
		f.s.note("%s conn %d read[%d] delay %v", f.side, f.idx, nth, r.Delay)
		time.Sleep(r.Delay)
		return f.Conn.Read(p)
	case Reset:
		f.Conn.Close()
		f.s.note("%s conn %d read[%d] reset", f.side, f.idx, nth)
		return 0, fmt.Errorf("faults: reset %s conn %d read %d: %w", f.side, f.idx, nth, ErrInjected)
	case Drop:
		f.s.note("%s conn %d read[%d] drop", f.side, f.idx, nth)
		return 0, fmt.Errorf("faults: dropped %s conn %d read %d: %w", f.side, f.idx, nth, ErrInjected)
	default:
		return f.Conn.Read(p)
	}
}

// Parse reads a schedule from its text form: one rule per line,
//
//	<side>:<conn>:<op>[<nth>]:<action>[=<arg>]
//
// where side is sim|viz, conn and nth are integers or *, op is
// write|read|dial, and action is corrupt[=pos] | drop | delay=<dur> |
// reset | partial | refuse. Blank lines and #-comments are skipped.
// Example:
//
//	# corrupt the second frame the sim sends on its first connection,
//	# then refuse the viz side's first reconnect dial
//	sim:0:write[1]:corrupt=30
//	viz:*:dial[1]:refuse
func Parse(text string, seed int64) (*Schedule, error) {
	var rules []Rule
	for lineNo, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := parseRule(line)
		if err != nil {
			return nil, fmt.Errorf("faults: line %d: %w", lineNo+1, err)
		}
		rules = append(rules, r)
	}
	if len(rules) == 0 {
		return nil, fmt.Errorf("faults: schedule has no rules")
	}
	return New(seed, rules...), nil
}

func parseRule(line string) (Rule, error) {
	parts := strings.SplitN(line, ":", 4)
	if len(parts) != 4 {
		return Rule{}, fmt.Errorf("want <side>:<conn>:<op>[<nth>]:<action>, got %q", line)
	}
	var r Rule
	switch parts[0] {
	case "sim":
		r.Side = SideSim
	case "viz":
		r.Side = SideViz
	default:
		return Rule{}, fmt.Errorf("unknown side %q (want sim or viz)", parts[0])
	}
	var err error
	if r.Conn, err = parseIndex(parts[1]); err != nil {
		return Rule{}, fmt.Errorf("conn: %w", err)
	}
	opStr, nthStr, ok := splitBracket(parts[2])
	if !ok {
		return Rule{}, fmt.Errorf("want <op>[<nth>], got %q", parts[2])
	}
	switch opStr {
	case "write":
		r.Op = OpWrite
	case "read":
		r.Op = OpRead
	case "dial":
		r.Op = OpDial
	default:
		return Rule{}, fmt.Errorf("unknown op %q (want write, read, or dial)", opStr)
	}
	if r.Nth, err = parseIndex(nthStr); err != nil {
		return Rule{}, fmt.Errorf("nth: %w", err)
	}
	action, arg, hasArg := strings.Cut(parts[3], "=")
	switch action {
	case "corrupt":
		r.Action = Corrupt
		if hasArg {
			// 0 picks a seeded-random byte, as a bare "corrupt" does. A
			// negative position would too, but String prints both bare,
			// so only 0 reads back as itself.
			if r.Pos, err = strconv.Atoi(arg); err != nil || r.Pos < 0 {
				return Rule{}, fmt.Errorf("corrupt position %q: want a non-negative integer", arg)
			}
		}
	case "drop":
		r.Action = Drop
	case "delay":
		r.Action = Delay
		if arg == "" {
			return Rule{}, fmt.Errorf("delay needs a duration (delay=50ms)")
		}
		if r.Delay, err = time.ParseDuration(arg); err != nil {
			return Rule{}, fmt.Errorf("delay %q: %w", arg, err)
		}
	case "reset":
		r.Action = Reset
	case "partial":
		r.Action = Partial
	case "refuse":
		r.Action = Refuse
	default:
		return Rule{}, fmt.Errorf("unknown action %q", action)
	}
	if hasArg && r.Action != Corrupt && r.Action != Delay {
		return Rule{}, fmt.Errorf("%s takes no argument, got %q", action, arg)
	}
	return r, nil
}

// parseIndex parses an integer coordinate or the * wildcard.
func parseIndex(s string) (int, error) {
	if s == "*" {
		return Any, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("want integer or *, got %q", s)
	}
	if n < 0 {
		return 0, fmt.Errorf("negative index %d", n)
	}
	return n, nil
}

// splitBracket splits "op[nth]" into its parts.
func splitBracket(s string) (op, nth string, ok bool) {
	open := strings.IndexByte(s, '[')
	if open < 0 || !strings.HasSuffix(s, "]") {
		return "", "", false
	}
	return s[:open], s[open+1 : len(s)-1], true
}
