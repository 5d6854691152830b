package hub

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/transport"
	"github.com/ascr-ecx/eth/internal/vec"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

// steerMsgs enumerates representative valid messages across the kinds
// and axis combinations.
func steerMsgs() []Msg {
	return []Msg{
		{Kind: KindHello, From: -1, Name: "viewer"},
		{Kind: KindHello, From: 0, Name: ""},
		{Kind: KindHello, From: 1 << 40, Name: strings.Repeat("n", 255)},
		{Kind: KindSteer, Axes: AxisCamera, Cam: View{Az: 1.25, El: -0.5, Dist: 2}},
		{Kind: KindSteer, Axes: AxisIso, Iso: 0.375},
		{Kind: KindSteer, Axes: AxisRatio, Ratio: 0.25},
		{Kind: KindSteer, Axes: AxisCodec, Codec: transport.CodecDeltaFlate},
		{Kind: KindSteer, Axes: axisAll,
			Cam: View{Az: math.Pi, El: 0.1, Dist: 1.5}, Iso: -2, Ratio: 1, Codec: transport.CodecRaw},
		{Kind: KindField, Field: "temperature"},
		{Kind: KindField, Field: strings.Repeat("f", 255)},
	}
}

func TestSteerRoundTrip(t *testing.T) {
	for _, m := range steerMsgs() {
		p, err := EncodeMsg(nil, m)
		if err != nil {
			t.Fatalf("encode %+v: %v", m, err)
		}
		got, err := DecodeMsg(p)
		if err != nil {
			t.Fatalf("decode %+v: %v", m, err)
		}
		if got != m {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
		}
		// Canonical form: re-encoding the decoded message reproduces the
		// original bytes exactly.
		p2, err := EncodeMsg(nil, got)
		if err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		if string(p2) != string(p) {
			t.Errorf("re-encode of %+v is not canonical", m)
		}
	}
}

// TestSteerCorruption flips every byte and tries every truncation of a
// valid message: all of them must fail with ErrSteering, never decode
// to a message, never panic.
func TestSteerCorruption(t *testing.T) {
	for _, m := range steerMsgs() {
		p, err := EncodeMsg(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		for i := range p {
			bad := append([]byte(nil), p...)
			bad[i] ^= 0x41
			if _, err := DecodeMsg(bad); !errors.Is(err, ErrSteering) {
				t.Fatalf("byte %d flipped: got err %v, want ErrSteering", i, err)
			}
		}
		for n := 0; n < len(p); n++ {
			if _, err := DecodeMsg(p[:n]); !errors.Is(err, ErrSteering) {
				t.Fatalf("truncation to %d bytes: got err %v, want ErrSteering", n, err)
			}
		}
	}
}

// TestSteerRejectsInvalid proves out-of-domain values can neither be
// encoded nor smuggled through a decode with a fixed-up CRC.
func TestSteerRejectsInvalid(t *testing.T) {
	bad := []Msg{
		{Kind: 9},
		{Kind: KindSteer},             // no axes
		{Kind: KindSteer, Axes: 0x80}, // unknown axis
		{Kind: KindSteer, Axes: AxisRatio, Ratio: 0},             // ratio out of domain
		{Kind: KindSteer, Axes: AxisRatio, Ratio: 1.5},           //
		{Kind: KindSteer, Axes: AxisCamera, Cam: View{Dist: -1}}, // non-positive dist
		{Kind: KindSteer, Axes: AxisCamera, Cam: View{Az: math.NaN(), Dist: 1}},
		{Kind: KindSteer, Axes: AxisIso, Iso: float32(math.Inf(1))},
		{Kind: KindSteer, Axes: AxisCodec, Codec: 99},
		{Kind: KindHello, From: -2},
		{Kind: KindField},                                  // no field named
		{Kind: KindField, Field: strings.Repeat("f", 256)}, // longer than its length byte
	}
	for _, m := range bad {
		if _, err := EncodeMsg(nil, m); !errors.Is(err, ErrSteering) {
			t.Errorf("encode %+v: got err %v, want ErrSteering", m, err)
		}
	}
}

func TestStateMergeLastWriterWins(t *testing.T) {
	var st State
	st.Merge(Msg{Kind: KindSteer, Axes: AxisIso, Iso: 0.3})
	st.Merge(Msg{Kind: KindSteer, Axes: AxisIso | AxisRatio, Iso: 0.7, Ratio: 0.5})
	st.Merge(Msg{Kind: KindHello}) // ignored
	if st.Seq != 2 {
		t.Fatalf("seq = %d, want 2", st.Seq)
	}
	if !st.HasIso || st.Iso != 0.7 {
		t.Errorf("iso = %v (has=%v), want 0.7 from the last writer", st.Iso, st.HasIso)
	}
	if !st.HasRatio || st.Ratio != 0.5 {
		t.Errorf("ratio = %v (has=%v), want 0.5", st.Ratio, st.HasRatio)
	}
	if st.HasCam || st.HasCodec {
		t.Error("unsteered axes must stay unset")
	}
}

// TestFrameGridRoundTrip pushes a frame through the full wire shape —
// frame -> grid -> vtkio bytes -> dataset -> frame — and demands the
// quantization-stable signature survive unchanged.
func TestFrameGridRoundTrip(t *testing.T) {
	f := fb.New(17, 9)
	for i := range f.Color {
		f.Color[i] = vec.V3{X: float64(i) * 0.01, Y: 1 - float64(i)*0.005, Z: 0.25}
		f.Depth[i] = float64(i % 7)
	}
	f.Depth[3] = math.Inf(1) // background depth must survive

	g := FrameGrid(f, nil)
	buf, err := vtkio.Append(nil, g)
	if err != nil {
		t.Fatal(err)
	}
	ds, err := vtkio.Decode(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	back, err := GridFrame(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if back.W != f.W || back.H != f.H {
		t.Fatalf("round trip shape %dx%d, want %dx%d", back.W, back.H, f.W, f.H)
	}
	if FrameSig(back) != FrameSig(f) {
		t.Error("frame signature changed across the wire round trip")
	}
	if !math.IsInf(back.Depth[3], 1) {
		t.Errorf("background depth = %v, want +Inf", back.Depth[3])
	}

	// In-place reuse: same shape converts into the same arrays.
	g2 := FrameGrid(f, g)
	if &g2.Fields[0].Values[0] != &g.Fields[0].Values[0] {
		t.Error("FrameGrid did not reuse matching-shape field arrays")
	}
}

// startHub builds a hub on an ephemeral port with a memory journal and
// returns it with its serve loop running.
func startHub(t *testing.T, cfg Config) (*Hub, *journal.Writer) {
	t.Helper()
	jw := journal.New()
	cfg.Addr = "127.0.0.1:0"
	cfg.Journal = jw
	h, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- h.Serve(ctx) }()
	t.Cleanup(func() {
		h.Close()
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return h, jw
}

// dialSub connects a subscriber and completes the hello handshake.
func dialSub(t *testing.T, addr, name string, from int64) *transport.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return helloOn(t, nc, name, from)
}

// helloOn registers nc with the hub under name, cursor at from, and
// returns the framed connection over it.
func helloOn(t *testing.T, nc net.Conn, name string, from int64) *transport.Conn {
	t.Helper()
	c := transport.NewConn(nc)
	p, err := EncodeMsg(nil, Msg{Kind: KindHello, From: from, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendControl(p); err != nil {
		t.Fatal(err)
	}
	return c
}

// testFrame renders a deterministic synthetic frame for step.
func testFrame(step, w, h int) *fb.Frame {
	f := fb.New(w, h)
	for i := range f.Color {
		v := float64((i*31+step*97)%256) / 255
		f.Color[i] = vec.V3{X: v, Y: 1 - v, Z: v * v}
		f.Depth[i] = 1 + v
	}
	return f
}

// noiseFrame is a w×h frame of 256 colour levels drawn from seed: two
// seeds give frames with nothing in common, the input on which a
// delta+flate stream sends keyframes.
func noiseFrame(seed int64, w, h int) *fb.Frame {
	rng := rand.New(rand.NewSource(seed))
	f := fb.New(w, h)
	for i := range f.Color {
		v := float64(rng.Intn(256)) / 255
		f.Color[i] = vec.V3{X: v, Y: 1 - v, Z: v * v}
		f.Depth[i] = 1 + v
	}
	return f
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestHubBroadcastOrder proves two live subscribers each receive every
// published frame, in step order, byte-identical to the source.
func TestHubBroadcastOrder(t *testing.T) {
	h, _ := startHub(t, Config{Queue: 32, History: 32})
	const steps, w, hh = 6, 20, 10

	conns := []*transport.Conn{
		dialSub(t, h.Addr(), "a", 0),
		dialSub(t, h.Addr(), "b", 0),
	}
	waitFor(t, "both subscribers to register", func() bool { return h.Subscribers() == 2 })

	want := make([]uint32, steps)
	for i := 0; i < steps; i++ {
		f := testFrame(i, w, hh)
		want[i] = FrameSig(f)
		h.PublishFrame(i, f)
	}
	h.Close() // graceful: queues drain, streams end with Done

	for ci, c := range conns {
		var steps2 []int64
		for {
			typ, ds, step, err := c.Recv()
			if err != nil {
				t.Fatalf("sub %d recv: %v", ci, err)
			}
			if typ == transport.MsgDone {
				break
			}
			f, err := GridFrame(ds, nil)
			if err != nil {
				t.Fatalf("sub %d step %d: %v", ci, step, err)
			}
			if got := FrameSig(f); got != want[step] {
				t.Errorf("sub %d step %d signature %08x, want %08x", ci, step, got, want[step])
			}
			steps2 = append(steps2, step)
		}
		if len(steps2) != steps {
			t.Fatalf("sub %d received %d frames, want %d", ci, len(steps2), steps)
		}
		for i, s := range steps2 {
			if s != int64(i) {
				t.Fatalf("sub %d frame %d has step %d, want in-order delivery", ci, i, s)
			}
		}
		c.Close()
	}
}

// TestHubSilentSubscriberOutlivesHelloTimeout is the regression test for
// the stale hello deadline: HelloTimeout bounds only the wait for the
// hello, so a registered viewer that never sends another byte must still
// be connected — and receive frames — long after it has lapsed.
func TestHubSilentSubscriberOutlivesHelloTimeout(t *testing.T) {
	h, _ := startHub(t, Config{HelloTimeout: 50 * time.Millisecond})
	c := dialSub(t, h.Addr(), "silent", -1)
	defer c.Close()
	waitFor(t, "subscriber to register", func() bool { return h.Subscribers() == 1 })

	time.Sleep(200 * time.Millisecond) // four hello timeouts of silence
	f := testFrame(0, 20, 10)
	h.PublishFrame(0, f)
	typ, ds, step, err := c.Recv()
	if err != nil || typ != transport.MsgDataset || step != 0 {
		t.Fatalf("recv after the hello timeout lapsed: typ %v step %d err %v", typ, step, err)
	}
	got, err := GridFrame(ds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if FrameSig(got) != FrameSig(f) {
		t.Error("frame delivered after the hello timeout differs from the one published")
	}
	if h.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want the silent viewer still registered", h.Subscribers())
	}
}

// TestHubRejectsBeyondMaxSubs proves the subscriber bound: the slot
// holder streams untouched while the excess connection is refused and
// journaled.
func TestHubRejectsBeyondMaxSubs(t *testing.T) {
	h, jw := startHub(t, Config{MaxSubs: 1})
	keeper := dialSub(t, h.Addr(), "keeper", -1)
	defer keeper.Close()
	waitFor(t, "first subscriber", func() bool { return h.Subscribers() == 1 })

	extra := dialSub(t, h.Addr(), "extra", -1)
	defer extra.Close()
	if _, _, _, err := extra.Recv(); err == nil {
		t.Fatal("over-limit subscriber was not disconnected")
	}
	waitFor(t, "reject journal event", func() bool {
		for _, ev := range jw.Events() {
			if ev.Type == journal.TypeSubscribe && strings.HasPrefix(ev.Detail, "reject name=extra") {
				return true
			}
		}
		return false
	})
	if h.Subscribers() != 1 {
		t.Fatalf("subscribers = %d, want the original 1", h.Subscribers())
	}
}

// TestHubLiveSteeringOverWire sends a steer control frame through a
// real socket and watches it land in the hub's last-writer-wins state
// and journal.
func TestHubLiveSteeringOverWire(t *testing.T) {
	h, jw := startHub(t, Config{})
	c := dialSub(t, h.Addr(), "pilot", -1)
	defer c.Close()
	waitFor(t, "subscriber", func() bool { return h.Subscribers() == 1 })

	m := Msg{Kind: KindSteer, Axes: AxisIso | AxisRatio, Iso: 0.42, Ratio: 0.5}
	p, err := EncodeMsg(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendControl(p); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "steering to apply", func() bool { return h.Current(0).Seq >= 1 })
	st := h.Current(0)
	if !st.HasIso || st.Iso != 0.42 || !st.HasRatio || st.Ratio != 0.5 {
		t.Fatalf("steering state %+v did not capture the wire message", st)
	}
	// Steer journals after it releases the state lock, so the event can
	// trail the state by a moment.
	waitFor(t, "steer journal event", func() bool {
		for _, ev := range jw.Events() {
			if ev.Type == journal.TypeSteer && strings.Contains(ev.Detail, "recv from=pilot") {
				return true
			}
		}
		return false
	})

	// A corrupted steer frame must disconnect the subscriber without
	// touching the state.
	seq := h.Current(0).Seq
	bad := append([]byte(nil), p...)
	bad[len(bad)-1] ^= 1
	if err := c.SendControl(bad); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Recv(); err == nil {
		t.Fatal("subscriber survived sending a corrupt steering frame")
	}
	if got := h.Current(0).Seq; got != seq {
		t.Errorf("corrupt frame advanced steering seq %d -> %d", seq, got)
	}
}

// TestHubRefusesFieldRequest: a field request is the in-situ
// interface's message, not a viewer's. The hub refuses it with an error
// wrapping ErrSteering, before and after a hello, and over the wire it
// drops the viewer that sent it without touching the steering state.
func TestHubRefusesFieldRequest(t *testing.T) {
	h, jw := startHub(t, Config{})
	m := Msg{Kind: KindField, Field: "temperature"}
	if _, err := h.control(m, nil, nil); !errors.Is(err, ErrSteering) {
		t.Fatalf("field request before a hello: err = %v, want ErrSteering", err)
	}
	if _, err := h.control(m, nil, &subscriber{name: "v"}); !errors.Is(err, ErrSteering) {
		t.Fatalf("field request after a hello: err = %v, want ErrSteering", err)
	}

	c := dialSub(t, h.Addr(), "asker", -1)
	defer c.Close()
	waitFor(t, "subscriber", func() bool { return h.Subscribers() == 1 })
	p, err := EncodeMsg(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendControl(p); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := c.Recv(); err == nil {
		t.Fatal("viewer survived sending a field request")
	}
	waitFor(t, "leave journal event", func() bool {
		for _, ev := range jw.Events() {
			if ev.Type == journal.TypeSubscribe && strings.HasPrefix(ev.Detail, "leave name=asker") &&
				strings.Contains(ev.Detail, ErrSteering.Error()) {
				return true
			}
		}
		return false
	})
	if seq := h.Current(0).Seq; seq != 0 {
		t.Errorf("a field request advanced the steering seq to %d", seq)
	}
}

// TestHubDropOldestOnCatchUp pins the bounded-queue contract: a
// subscriber whose requested backlog exceeds its queue gets the newest
// frames, and each shed frame is journaled as an in-band overflow.
func TestHubDropOldestOnCatchUp(t *testing.T) {
	h, jw := startHub(t, Config{Queue: 2, History: 16})
	const steps = 8
	want := make([]uint32, steps)
	for i := 0; i < steps; i++ {
		f := testFrame(i, 16, 8)
		want[i] = FrameSig(f)
		h.PublishFrame(i, f)
	}
	// History now holds steps 0..7; a queue of 2 can only keep the two
	// newest during catch-up.
	c := dialSub(t, h.Addr(), "late", 0)
	defer c.Close()
	waitFor(t, "late subscriber", func() bool { return h.Subscribers() == 1 })
	h.Close()

	var got []int64
	for {
		typ, ds, step, err := c.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if typ == transport.MsgDone {
			break
		}
		f, err := GridFrame(ds, nil)
		if err != nil {
			t.Fatal(err)
		}
		if FrameSig(f) != want[step] {
			t.Errorf("step %d signature mismatch after catch-up drops", step)
		}
		got = append(got, step)
	}
	if len(got) != 2 || got[0] != steps-2 || got[1] != steps-1 {
		t.Fatalf("received steps %v, want the 2 newest [%d %d]", got, steps-2, steps-1)
	}
	drops := 0
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeOverflow && strings.Contains(ev.Detail, "hub subscriber late") {
			drops += int(ev.Elements)
		}
	}
	if drops != steps-2 {
		t.Errorf("journaled %d overflow drops, want %d", drops, steps-2)
	}
}
