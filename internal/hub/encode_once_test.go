// Differential tests for the encode-once fan-out: the per-connection
// encoder (Conn.SendDataset, which stays for sim→viz) is the reference
// every subscriber's byte stream is held to, and the exception paths —
// a dropped frame, a late join, a resume — must each restart on a
// keyframe and stay byte-exact afterwards.
package hub

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/transport"
)

// tapConn records every byte read off the socket, so a test can decode a
// stream through transport.Conn and still see the frames as sent.
type tapConn struct {
	net.Conn
	mu  sync.Mutex
	raw bytes.Buffer
}

func (c *tapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.raw.Write(p[:n])
	c.mu.Unlock()
	return n, err
}

func (c *tapConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.raw.Bytes()...)
}

// dialTapped is dialSub over a recording socket.
func dialTapped(t *testing.T, addr, name string, from int64) (*transport.Conn, *tapConn) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	tap := &tapConn{Conn: nc}
	return helloOn(t, tap, name, from), tap
}

// dialBare registers a subscriber and returns its socket, to be read
// without the framing layer.
func dialBare(t *testing.T, addr string) net.Conn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	helloOn(t, nc, "bare", -1)
	return nc
}

// wireFrame is one dataset frame header as it crossed the socket.
type wireFrame struct {
	step  int64
	codec transport.CodecID
}

// parseStream walks a recorded subscriber stream: the complete v3
// dataset frames ([1B type][8B len][8B step][1B codec][payload][4B CRC])
// before a Done or the end of the recording.
func parseStream(t *testing.T, raw []byte) []wireFrame {
	t.Helper()
	var frames []wireFrame
	for len(raw) >= 9 {
		n := int(binary.BigEndian.Uint64(raw[1:9]))
		switch transport.MsgType(raw[0]) {
		case transport.MsgDone:
			return frames
		case transport.MsgDatasetV3:
			if len(raw) < 18+n+4 {
				return frames
			}
			frames = append(frames, wireFrame{
				step:  int64(binary.BigEndian.Uint64(raw[9:17])),
				codec: transport.CodecID(raw[17]),
			})
			raw = raw[18+n+4:]
		default:
			t.Fatalf("unexpected message type %d in a subscriber stream", raw[0])
		}
	}
	return frames
}

// loneConnStream is the reference: the bytes one Conn under codec puts
// on its socket when it SendDatasets the same frames itself, then Done.
func loneConnStream(t *testing.T, codec transport.CodecID, frames []*fb.Frame) []byte {
	t.Helper()
	a, b := net.Pipe()
	got := make(chan []byte, 1)
	go func() {
		raw, _ := io.ReadAll(b)
		got <- raw
	}()
	c := transport.NewConn(a)
	c.SetCodec(codec)
	for step, f := range frames {
		c.Step = step
		if err := c.SendDataset(FrameGrid(f, nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SendDone(); err != nil {
		t.Fatal(err)
	}
	a.Close()
	return <-got
}

// TestHubStreamsMatchLoneConn: three subscribers on one hub read, byte
// for byte, the stream a lone per-connection encoder produces — under
// every codec, for frames that go out as deltas and for independent
// frames that delta+flate keyframes — while the hub runs each codec once
// per frame, never once per subscriber.
func TestHubStreamsMatchLoneConn(t *testing.T) {
	const steps, subs = 7, 3
	frames, noise := make([]*fb.Frame, steps), make([]*fb.Frame, steps)
	for i := range frames {
		frames[i] = testFrame(i, 36, 20)
		noise[i] = noiseFrame(int64(i+1), 100, 80)
	}
	for _, run := range []struct {
		prefix string
		frames []*fb.Frame
	}{{"", frames}, {"incoherent-", noise}} {
		streamsMatchLoneConn(t, run.prefix, run.frames, subs)
	}
}

func streamsMatchLoneConn(t *testing.T, prefix string, frames []*fb.Frame, subs int) {
	steps := len(frames)
	for _, codec := range []transport.CodecID{
		transport.CodecDeltaFlate, transport.CodecDelta, transport.CodecFlate, transport.CodecRaw,
	} {
		t.Run(prefix+codec.String(), func(t *testing.T) {
			want := loneConnStream(t, codec, frames)
			if prefix != "" && codec == transport.CodecDeltaFlate {
				// Non-vacuity: these frames take the keyframe path.
				for _, f := range parseStream(t, want) {
					if f.codec != transport.CodecFlate {
						t.Errorf("independent step %d went out as %s, want the flate keyframe", f.step, f.codec)
					}
				}
			}

			h, _ := startHub(t, Config{MaxSubs: subs, Queue: 32, History: 32, Codec: codec})
			streams := make([]chan []byte, subs)
			for i := range streams {
				nc := dialBare(t, h.Addr())
				defer nc.Close()
				streams[i] = make(chan []byte, 1)
				go func(out chan<- []byte) {
					raw, _ := io.ReadAll(nc)
					out <- raw
				}(streams[i])
			}
			waitFor(t, "subscribers", func() bool { return h.Subscribers() == subs })
			encoded0 := ctrEncoded.Value()
			for step, f := range frames {
				h.PublishFrame(step, f)
			}
			h.Close()

			for i, ch := range streams {
				if got := <-ch; !bytes.Equal(got, want) {
					t.Errorf("subscriber %d read %d bytes that differ from the lone connection's %d", i, len(got), len(want))
				}
			}
			// One codec run per frame that is not sent raw: every frame
			// under flate and delta+flate (the first, and any the estimate
			// keyframes, as flate), every frame but the raw keyframe under
			// delta, none under raw.
			wantRuns := int64(steps)
			switch codec {
			case transport.CodecDelta:
				wantRuns = int64(steps - 1)
			case transport.CodecRaw:
				wantRuns = 0
			}
			if got := ctrEncoded.Value() - encoded0; got != wantRuns {
				t.Errorf("hub.frames_encoded rose by %d for %d frames to %d subscribers, want %d", got, steps, subs, wantRuns)
			}
		})
	}
}

// TestHubKeyframeWinsEncodesOnce: when the estimate keyframes a frame,
// the subscriber that holds its predecessor and a late joiner that holds
// nothing share the one keyframe encoding, so hub.frames_encoded rises by
// exactly one per frame; for coherent frames the join frame needs both a
// delta and a keyframe.
func TestHubKeyframeWinsEncodesOnce(t *testing.T) {
	const w, hh, live = 100, 80, 4
	for _, tc := range []struct {
		name     string
		frame    func(step int) *fb.Frame
		wantRuns int64
		codec    transport.CodecID // of the subscriber's live frames
	}{
		{"incoherent", func(step int) *fb.Frame { return noiseFrame(int64(step+1), w, hh) }, live, transport.CodecFlate},
		{"coherent", func(step int) *fb.Frame { return testFrame(step, w, hh) }, live + 1, transport.CodecDeltaFlate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, _ := startHub(t, Config{Queue: 32, History: 32, Codec: transport.CodecDeltaFlate})
			first, firstTap := dialTapped(t, h.Addr(), "first", -1)
			defer first.Close()
			waitFor(t, "first subscriber", func() bool { return h.Subscribers() == 1 })
			step := 0
			for ; step < live; step++ {
				h.PublishFrame(step, tc.frame(step))
			}
			for i := 0; i < live; i++ {
				if _, _, _, err := first.Recv(); err != nil {
					t.Fatal(err)
				}
			}
			joiner := dialBare(t, h.Addr())
			defer joiner.Close()
			joined := make(chan []byte, 1)
			go func() {
				raw, _ := io.ReadAll(joiner)
				joined <- raw
			}()
			waitFor(t, "late joiner", func() bool { return h.Subscribers() == 2 })
			encoded0 := ctrEncoded.Value()
			for end := step + live; step < end; step++ {
				h.PublishFrame(step, tc.frame(step))
			}
			h.Close()
			for i := 0; i < live; i++ {
				if _, _, _, err := first.Recv(); err != nil {
					t.Fatal(err)
				}
			}
			if got := ctrEncoded.Value() - encoded0; got != tc.wantRuns {
				t.Errorf("hub.frames_encoded rose by %d for %d frames with a late joiner attached, want %d", got, live, tc.wantRuns)
			}
			for _, f := range parseStream(t, firstTap.bytes())[1:] {
				if f.codec != tc.codec {
					t.Errorf("first subscriber's step %d went out as %s, want %s", f.step, f.codec, tc.codec)
				}
			}
			if wire := parseStream(t, <-joined); len(wire) != live || wire[0].codec != transport.CodecFlate {
				t.Errorf("late joiner read %v, want %d frames opening on the flate keyframe", wire, live)
			}
		})
	}
}

// TestHubKeyframesOnExceptionPaths drives the three ways a subscriber's
// reference goes stale — frames lost to drop-oldest, a late join inside
// the history, a kill and resume — and checks on the wire that each
// restarts on a keyframe, that every frame following its predecessor is
// a delta, and that every decoded frame is the publisher's.
func TestHubKeyframesOnExceptionPaths(t *testing.T) {
	const codec = transport.CodecDelta // wire size == plain size: a stalled reader fills the socket fast
	// check holds one recorded stream to the rule and the signatures.
	check := func(t *testing.T, what string, tap *tapConn, steps []int64, sigs []uint32, want map[int64]uint32) {
		t.Helper()
		// The recording may run ahead of the decoder (read-ahead).
		wire := parseStream(t, tap.bytes())
		if len(wire) < len(steps) {
			t.Fatalf("%s: %d frames on the wire, %d decoded", what, len(wire), len(steps))
		}
		for i, f := range wire[:len(steps)] {
			if f.step != steps[i] {
				t.Fatalf("%s: wire frame %d is step %d, decoded as %d", what, i, f.step, steps[i])
			}
			follows := i > 0 && f.step == wire[i-1].step+1
			if follows && f.codec != codec {
				t.Errorf("%s: step %d follows its predecessor but went out as %s, want %s", what, f.step, f.codec, codec)
			}
			if !follows && f.codec != codec.Keyframe() {
				t.Errorf("%s: step %d has no predecessor on this connection but went out as %s, want a %s keyframe",
					what, f.step, f.codec, codec.Keyframe())
			}
			if sigs[i] != want[f.step] {
				t.Errorf("%s: step %d decoded to signature %08x, published %08x", what, f.step, sigs[i], want[f.step])
			}
		}
	}
	// recv decodes frames until Done or max frames.
	recv := func(t *testing.T, c *transport.Conn, max int) (steps []int64, sigs []uint32) {
		t.Helper()
		var f *fb.Frame
		for max <= 0 || len(steps) < max {
			typ, ds, step, err := c.Recv()
			if err != nil {
				t.Fatalf("recv after %d frames: %v", len(steps), err)
			}
			if typ == transport.MsgDone {
				break
			}
			if f, err = GridFrame(ds, f); err != nil {
				t.Fatal(err)
			}
			steps, sigs = append(steps, step), append(sigs, FrameSig(f))
		}
		return steps, sigs
	}

	t.Run("drop-oldest", func(t *testing.T) {
		h, _ := startHub(t, Config{Queue: 2, History: 4, Codec: codec})
		c, tap := dialTapped(t, h.Addr(), "slow", -1)
		defer c.Close()
		waitFor(t, "subscriber", func() bool { return h.Subscribers() == 1 })

		want := map[int64]uint32{}
		publish := func(step int) {
			f := testFrame(step, 200, 160) // 500 KiB on the wire
			want[int64(step)] = FrameSig(f)
			h.PublishFrame(step, f)
		}
		publish(0)
		steps, sigs := recv(t, c, 1) // the reader holds a reference, then stalls
		dropped0 := ctrDropped.Value()
		step := 1
		for ; ctrDropped.Value() == dropped0; step++ {
			if step > 400 {
				t.Fatal("a stalled reader with a queue of 2 shed nothing in 400 frames")
			}
			publish(step)
		}
		publish(step) // and one more behind the gap
		// Close drains the queue into a socket that may be full: it can
		// only finish while this side reads.
		closed := make(chan struct{})
		go func() {
			h.Close()
			close(closed)
		}()
		s2, g2 := recv(t, c, 0)
		<-closed
		steps, sigs = append(steps, s2...), append(sigs, g2...)
		gaps := 0
		for i := 1; i < len(steps); i++ {
			if steps[i] != steps[i-1]+1 {
				gaps++
			}
		}
		if gaps == 0 {
			t.Fatalf("received %v: the dropped frames left no gap", steps)
		}
		check(t, "dropper", tap, steps, sigs, want)
	})

	t.Run("late-join-and-resume", func(t *testing.T) {
		h, _ := startHub(t, Config{Queue: 32, History: 16, Codec: codec})
		want := map[int64]uint32{}
		publish := func(step int) {
			f := testFrame(step, 36, 20)
			want[int64(step)] = FrameSig(f)
			h.PublishFrame(step, f)
		}
		for step := 0; step < 8; step++ {
			publish(step) // nobody is listening: no fanout, no encoding
		}
		// Late join inside the history: 3..7 replayed (deltas rebuilt from
		// the ring's predecessors), then live frames.
		late, lateTap := dialTapped(t, h.Addr(), "late", 3)
		defer late.Close()
		// Victim: reads three frames from step 0, dies, resumes at its cursor.
		victim, victimTap := dialTapped(t, h.Addr(), "victim", 0)
		vSteps, vSigs := recv(t, victim, 3)
		check(t, "victim before the kill", victimTap, vSteps, vSigs, want)
		victim.Close()
		waitFor(t, "victim to leave", func() bool { return h.Subscribers() == 1 })
		resumed, resumedTap := dialTapped(t, h.Addr(), "victim", vSteps[len(vSteps)-1]+1)
		defer resumed.Close()
		waitFor(t, "resume", func() bool { return h.Subscribers() == 2 })
		publish(8)
		publish(9)
		h.Close()

		lSteps, lSigs := recv(t, late, 0)
		if len(lSteps) != 7 || lSteps[0] != 3 || lSteps[6] != 9 {
			t.Fatalf("late joiner received steps %v, want 3..9", lSteps)
		}
		check(t, "late joiner", lateTap, lSteps, lSigs, want)
		rSteps, rSigs := recv(t, resumed, 0)
		if len(rSteps) != 7 || rSteps[0] != 3 || rSteps[6] != 9 {
			t.Fatalf("resumed victim received steps %v, want 3..9", rSteps)
		}
		check(t, "resumed victim", resumedTap, rSteps, rSigs, want)
	})
}

// TestHubHoldsOnlyHistoryReleases is the ownership gate on the hub's
// slots. With nobody subscribed the hub holds its History frames plus the
// one in hand, each retained frame with the ring's single reference (no
// fanout, encoding or chain of predecessors hangs off it), and a warm
// publish allocates nothing. With a slow subscriber and a live one the
// hub never holds more than History + Queue·subscribers + 2 slots, and the
// slow one still receives every frame it is sent byte for byte, though
// the ring evicted it while it waited: a slot is reused only once nothing
// holds it. After both leave, every slot is back, the hub keeps no more
// than History + 2 of them and no fanout or encoder, and publishing reuses
// its slots without allocating.
func TestHubHoldsOnlyHistoryReleases(t *testing.T) {
	const history, queue, w, hh = 2, 8, 256, 128
	h, _ := startHub(t, Config{Queue: queue, History: history, Codec: transport.CodecRaw})
	defer h.Close()

	var frames [5]*fb.Frame
	want := make([]uint32, len(frames))
	for i := range frames {
		frames[i] = testFrame(i, w, hh)
		want[i] = FrameSig(frames[i])
	}
	step := 0
	publish := func() {
		h.PublishFrame(step, frames[step%len(frames)])
		step++
	}
	slots := func() int {
		h.frames.mu.Lock()
		defer h.frames.mu.Unlock()
		return h.frames.held
	}
	idle := func(what string) {
		t.Helper()
		// Every slot is in the ring or on the free list: none is held by
		// a fanout a departed subscriber left behind.
		waitFor(t, what+": slots back", func() bool {
			h.mu.Lock()
			defer h.mu.Unlock()
			h.frames.mu.Lock()
			defer h.frames.mu.Unlock()
			return h.frames.held == h.hcount+len(h.frames.items)
		})
		before := slots()
		for i := 0; i < 3*history; i++ {
			publish()
		}
		if allocs := testing.AllocsPerRun(20, publish); allocs != 0 {
			t.Errorf("%s: a warm publish allocates %.1f times, want 0", what, allocs)
		}
		h.mu.Lock()
		for j := 0; j < h.hcount; j++ {
			f := h.history[(h.hhead+j)%len(h.history)]
			if refs := f.refs.Load(); refs != 1 {
				t.Errorf("%s: retained frame %d has %d references, want the ring's 1", what, f.step, refs)
			}
		}
		h.mu.Unlock()
		if got := slots(); got > max(before, history+1) {
			t.Errorf("%s: publishing drew %d slots, had %d, want at most the %d retained plus the one in hand",
				what, got, before, history)
		}
	}
	idle("before any subscriber")

	// A slow subscriber lets the ring evict what its queue still holds:
	// it reads nothing until the last publish, and a frame is larger than
	// an idle socket's buffers, so its sender soon blocks with frames
	// queued. A live one reads as frames come.
	slow := dialSub(t, h.Addr(), "slow", -1)
	defer slow.Close()
	live := dialSub(t, h.Addr(), "live", -1)
	defer live.Close()
	for _, c := range []*transport.Conn{slow, live} {
		c.SetTimeouts(10*time.Second, 0) // a lost step fails, never hangs
	}
	waitFor(t, "subscribers", func() bool { return h.Subscribers() == 2 })
	first, last := step, step+5*queue-1
	// read receives until the last step: steps in publish order, each
	// once, every frame byte-identical to what was published at its step.
	// A slot reused under a queued frame would deliver a later step's
	// bytes in its place, and that step again.
	read := func(c *transport.Conn) error {
		prev := int64(first - 1)
		for {
			typ, ds, got, err := c.Recv()
			if err != nil || typ != transport.MsgDataset {
				return fmt.Errorf("typ %v err %v before step %d", typ, err, last)
			}
			fr, err := GridFrame(ds, nil)
			if err != nil {
				return err
			}
			if got <= prev || got > int64(last) {
				return fmt.Errorf("step %d arrived after step %d", got, prev)
			}
			if FrameSig(fr) != want[got%int64(len(frames))] {
				return fmt.Errorf("step %d arrived with the wrong bytes", got)
			}
			prev = got
			if got == int64(last) {
				return nil
			}
		}
	}
	liveErr := make(chan error, 1)
	go func() { liveErr <- read(live) }()
	bound := history + queue*2 + 2
	for step <= last {
		publish()
		if got := slots(); got > bound {
			t.Fatalf("step %d: the hub holds %d slots, want at most History + Queue·2 + 2 = %d", step-1, got, bound)
		}
	}
	if err := read(slow); err != nil {
		t.Errorf("slow subscriber: %v", err)
	}
	if err := <-liveErr; err != nil {
		t.Errorf("live subscriber: %v", err)
	}
	slow.Close()
	live.Close()
	waitFor(t, "subscribers to leave", func() bool { return h.Subscribers() == 0 && h.Backlog() == 0 })
	idle("after the subscribers left")
	if got := slots(); got > history+2 {
		t.Errorf("after the subscribers left the hub keeps %d slots, want at most History + 2 = %d", got, history+2)
	}
	// A departed sender may still be putting back its last fanout or
	// encoder; each goes to the collector.
	waitFor(t, "fanouts and encoders let go", func() bool {
		h.fanouts.mu.Lock()
		defer h.fanouts.mu.Unlock()
		h.encoders.mu.Lock()
		defer h.encoders.mu.Unlock()
		return h.fanouts.held == 0 && h.encoders.held == 0
	})
}
