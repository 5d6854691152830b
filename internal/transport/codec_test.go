package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
)

func TestParseCodec(t *testing.T) {
	for id, name := range Codecs() {
		got, err := ParseCodec(name)
		if err != nil || got != CodecID(id) {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v", name, got, err, CodecID(id))
		}
		if got.String() != name {
			t.Errorf("CodecID(%d).String() = %q, want %q", id, got.String(), name)
		}
	}
	if got, err := ParseCodec(""); err != nil || got != CodecRaw {
		t.Errorf("ParseCodec(\"\") = %v, %v; want raw", got, err)
	}
	if _, err := ParseCodec("zstd"); err == nil {
		t.Error("ParseCodec accepted an unknown codec")
	}
}

func TestCodecIDProperties(t *testing.T) {
	cases := []struct {
		id       CodecID
		temporal bool
		keyframe CodecID
	}{
		{CodecRaw, false, CodecRaw},
		{CodecFlate, false, CodecFlate},
		{CodecDelta, true, CodecRaw},
		{CodecDeltaFlate, true, CodecFlate},
	}
	for _, c := range cases {
		if !c.id.Valid() {
			t.Errorf("%v not valid", c.id)
		}
		if c.id.Temporal() != c.temporal {
			t.Errorf("%v.Temporal() = %v", c.id, c.id.Temporal())
		}
		if c.id.Keyframe() != c.keyframe {
			t.Errorf("%v.Keyframe() = %v, want %v", c.id, c.id.Keyframe(), c.keyframe)
		}
	}
	if numCodecs.Valid() {
		t.Error("out-of-range codec ID reports valid")
	}
}

func TestXorDeltaSelfInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	// Lengths straddle the 8-byte word loop and the byte-wise tail, and
	// the shorter/longer prev cases exercise the verbatim-copy path.
	for _, n := range []int{0, 1, 7, 8, 9, 64, 1000, 1001} {
		for _, pn := range []int{0, n / 2, n, n + 13} {
			cur, prev := make([]byte, n), make([]byte, pn)
			rng.Read(cur)
			rng.Read(prev)
			res := xorDelta(nil, cur, prev)
			if len(res) != n {
				t.Fatalf("n=%d pn=%d: residual length %d", n, pn, len(res))
			}
			back := xorDelta(nil, res, prev)
			if !bytes.Equal(back, cur) {
				t.Fatalf("n=%d pn=%d: xorDelta not self-inverse", n, pn)
			}
		}
	}
}

func TestCodecEncodeDecodeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	plain, prev := make([]byte, 4096), make([]byte, 4096)
	rng.Read(plain)
	copy(prev, plain)
	for i := 0; i < len(prev); i += 31 {
		prev[i] ^= 0x55
	}
	for id := CodecID(0); id < numCodecs; id++ {
		var ref []byte
		if id.Temporal() {
			ref = prev
		}
		// Separate encoder and decoder instances, as the Conn keeps them.
		enc, dec := newCodec(id), newCodec(id)
		wire, err := enc.Encode(nil, plain, ref)
		if err != nil {
			t.Fatalf("%v: encode: %v", id, err)
		}
		got, err := dec.Decode(nil, wire, ref, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("%v: decode: %v", id, err)
		}
		if !bytes.Equal(got, plain) {
			t.Errorf("%v: round trip not bit-exact", id)
		}
		if id == CodecDelta && len(wire) != len(plain) {
			t.Errorf("delta wire length %d != plain length %d", len(wire), len(plain))
		}
	}
}

func TestTemporalCodecsRequireReference(t *testing.T) {
	for _, id := range []CodecID{CodecDelta, CodecDeltaFlate} {
		c := newCodec(id)
		if _, err := c.Encode(nil, []byte{1, 2, 3}, nil); !errors.Is(err, ErrDeltaState) {
			t.Errorf("%v encode without prev: err = %v, want ErrDeltaState", id, err)
		}
		if _, err := c.Decode(nil, []byte{1, 2, 3}, nil, DefaultMaxFrame); !errors.Is(err, ErrDeltaState) {
			t.Errorf("%v decode without prev: err = %v, want ErrDeltaState", id, err)
		}
	}
}

// TestKeyframeThenDelta proves the temporal send path opens with exactly
// one keyframe and then stays in delta mode: three coherent steps over
// one connection advance the keyframes counter once, and every frame
// decodes bit-exact.
func TestKeyframeThenDelta(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	steps := coherentSteps(3, 300, rng)
	for _, codec := range []CodecID{CodecDelta, CodecDeltaFlate} {
		before := ctrKeyframes.Value()
		dss := make([]data.Dataset, len(steps))
		for i, s := range steps {
			dss[i] = s
		}
		frames := encodeStream(codec, 0, dss...)
		if got := ctrKeyframes.Value() - before; got != 1 {
			t.Errorf("%v: %d keyframes over 3 sends, want 1", codec, got)
		}
		// Frame 1 carries the keyframe fallback codec; frames 2+ carry the
		// temporal codec itself. The ID byte sits at offset 17 of the v3
		// header.
		if got := CodecID(frames[0][17]); got != codec.Keyframe() {
			t.Errorf("%v: keyframe encoded as %v, want %v", codec, got, codec.Keyframe())
		}
		for i := 1; i < len(frames); i++ {
			if got := CodecID(frames[i][17]); got != codec {
				t.Errorf("%v: frame %d encoded as %v", codec, i, got)
			}
		}
		c := NewConn(&memConn{r: bytes.NewReader(bytes.Join(frames, nil))})
		for i, want := range steps {
			_, ds, step, err := c.Recv()
			if err != nil {
				t.Fatalf("%v frame %d: %v", codec, i, err)
			}
			if step != int64(i) {
				t.Errorf("%v frame %d: step %d", codec, i, step)
			}
			if got, ok := ds.(*data.PointCloud); !ok || !cloudEqual(got, want) {
				t.Errorf("%v frame %d: not bit-exact", codec, i)
			}
		}
	}
}

// coherentSteps is an n-step stream of count-particle clouds, each a
// coherentStep of the one before.
func coherentSteps(n, count int, rng *rand.Rand) []*data.PointCloud {
	steps := []*data.PointCloud{fuzzCloud(count, rng)}
	for len(steps) < n {
		steps = append(steps, coherentStep(steps[len(steps)-1], rng))
	}
	return steps
}

// TestIncoherentStepsSendKeyframe holds delta+flate to its per-frame
// choice: independent draws — every byte of the payload new — go out as
// flate keyframes mid-stream, each counted as a keyframe, and their flate
// encoding really is the smaller; identical steps stay delta+flate after
// the opening keyframe. Every frame decodes bit-exact either way.
func TestIncoherentStepsSendKeyframe(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	fresh := []*data.PointCloud{fuzzCloud(2000, rng), fuzzCloud(2000, rng), fuzzCloud(2000, rng)}
	same := []*data.PointCloud{fresh[0], fresh[0], fresh[0]}
	for _, tc := range []struct {
		name  string
		steps []*data.PointCloud
		mid   CodecID // the codec of every frame after the first
	}{
		{"independent", fresh, CodecFlate},
		{"identical", same, CodecDeltaFlate},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := ctrKeyframes.Value()
			dss := make([]data.Dataset, len(tc.steps))
			for i, s := range tc.steps {
				dss[i] = s
			}
			frames := encodeStream(CodecDeltaFlate, 0, dss...)
			wantKeys := int64(1)
			if tc.mid == CodecFlate {
				wantKeys = int64(len(frames))
			}
			if got := ctrKeyframes.Value() - before; got != wantKeys {
				t.Errorf("%d keyframes over %d sends, want %d", got, len(frames), wantKeys)
			}
			if got := CodecID(frames[0][17]); got != CodecFlate {
				t.Errorf("frame 0 went out as %v, want the flate keyframe", got)
			}
			for i := 1; i < len(frames); i++ {
				if got := CodecID(frames[i][17]); got != tc.mid {
					t.Errorf("frame %d went out as %v, want %v", i, got, tc.mid)
				}
			}
			if tc.mid == CodecFlate {
				// The estimate's call, checked against the two real encodings.
				prev, cur := vtkPayload(t, dss[0]), vtkPayload(t, dss[1])
				var enc Encoder
				key, _ := enc.Encode(CodecFlate, nil, cur, nil)
				delta, _ := enc.Encode(CodecDeltaFlate, nil, cur, prev)
				if len(key) >= len(delta) {
					t.Errorf("flate sent %d bytes where delta+flate would have sent %d", len(key), len(delta))
				}
			}
			c := NewConn(&memConn{r: bytes.NewReader(bytes.Join(frames, nil))})
			for i, want := range tc.steps {
				_, ds, step, err := c.Recv()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if got, ok := ds.(*data.PointCloud); !ok || step != int64(i) || !cloudEqual(got, want) {
					t.Errorf("frame %d (step %d): not bit-exact", i, step)
				}
			}
		})
	}
}

// TestDeltaWithoutKeyframeFails feeds a receiver a delta frame with no
// preceding keyframe — the resume-after-restart shape — and requires the
// ErrDeltaState protocol error rather than garbage output.
func TestDeltaWithoutKeyframeFails(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	s1, s2 := fuzzCloud(100, rng), fuzzCloud(100, rng)
	frames := encodeStream(CodecDelta, 0, s1, s2)
	c := NewConn(&memConn{r: bytes.NewReader(frames[1])}) // delta frame only
	if _, _, _, err := c.Recv(); !errors.Is(err, ErrDeltaState) {
		t.Fatalf("delta-without-keyframe err = %v, want ErrDeltaState", err)
	}
}

// TestMixedCodecStream switches the codec between every frame on one
// connection. The reference state lives at the plain-payload layer on
// both sides, so raw and flate frames keep the temporal codecs' state
// fresh and a switch into delta needs no new keyframe.
func TestMixedCodecStream(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	order := []CodecID{CodecRaw, CodecDelta, CodecFlate, CodecDeltaFlate, CodecDelta, CodecRaw}
	steps := coherentSteps(len(order), 250, rng)
	mc := &memConn{}
	send := NewConn(mc)
	for i, s := range steps {
		send.SetCodec(order[i])
		send.Step = i
		if err := send.SendDataset(s); err != nil {
			t.Fatalf("frame %d (%v): %v", i, order[i], err)
		}
	}
	recv := NewConn(&memConn{r: bytes.NewReader(mc.w.Bytes())})
	for i, want := range steps {
		_, ds, step, err := recv.Recv()
		if err != nil {
			t.Fatalf("frame %d (%v): %v", i, order[i], err)
		}
		if step != int64(i) {
			t.Errorf("frame %d: step %d", i, step)
		}
		if got, ok := ds.(*data.PointCloud); !ok || !cloudEqual(got, want) {
			t.Errorf("frame %d (%v): not bit-exact", i, order[i])
		}
	}
	// The raw opener trained the reference state, so the first delta frame
	// needed no keyframe fallback: every frame carries its configured ID.
	// (Offset 17 is the v3 header's codec byte.)
	wire := mc.w.Bytes()
	off := 0
	for i, id := range order {
		if got := CodecID(wire[off+17]); got != id {
			t.Errorf("frame %d: wire codec %v, want %v", i, got, id)
		}
		payload := int(binary.BigEndian.Uint64(wire[off+1 : off+9]))
		off += datasetHeaderLenV3 + payload + 4 // header, payload, CRC trailer
	}
}

// TestSendDatasetRejectsInvalidCodec guards the axis boundary: a Conn
// forced to an out-of-range codec must fail loudly on send, not emit an
// undecodable frame.
func TestSendDatasetRejectsInvalidCodec(t *testing.T) {
	c := NewConn(&memConn{})
	c.SetCodec(numCodecs)
	if err := c.SendDataset(sampleCloud(10)); err == nil {
		t.Fatal("SendDataset accepted an invalid codec")
	}
}

// TestSendEncodedMatchesSendDataset holds the fan-out entry point to the
// per-connection path: frames a caller encodes itself (Encoder) and hands
// to SendEncoded are, byte for byte, the frames SendDataset puts on the
// wire, with the same counters; and because SendEncoded drops the Conn's
// own reference, a SendDataset after it opens with a keyframe.
func TestSendEncodedMatchesSendDataset(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var steps []data.Dataset
	for _, s := range coherentSteps(3, 200, rng) {
		steps = append(steps, s)
	}
	for _, codec := range []CodecID{CodecRaw, CodecFlate, CodecDelta, CodecDeltaFlate} {
		keyBefore, plainBefore := ctrKeyframes.Value(), ctrBytesPlain.Value()
		want := bytes.Join(encodeStream(codec, 0, steps...), nil)
		wantKeys, wantPlain := ctrKeyframes.Value()-keyBefore, ctrBytesPlain.Value()-plainBefore

		keyBefore, plainBefore = ctrKeyframes.Value(), ctrBytesPlain.Value()
		mc := &memConn{}
		c := NewConn(mc)
		c.SetCodec(codec)
		var enc Encoder
		var prev []byte
		for i, ds := range steps {
			plain := vtkPayload(t, ds)
			id := codec
			if prev == nil {
				id = codec.Keyframe()
			}
			wire, err := enc.Encode(id, nil, plain, prev)
			if err != nil {
				t.Fatal(err)
			}
			c.Step = i
			if err := c.SendEncoded(id, wire, len(plain)); err != nil {
				t.Fatal(err)
			}
			prev = plain
		}
		if !bytes.Equal(mc.w.Bytes(), want) {
			t.Errorf("%v: SendEncoded wrote %d bytes that differ from SendDataset's %d", codec, mc.w.Len(), len(want))
		}
		if keys, plain := ctrKeyframes.Value()-keyBefore, ctrBytesPlain.Value()-plainBefore; keys != wantKeys || plain != wantPlain {
			t.Errorf("%v: SendEncoded counted %d keyframes / %d plain bytes, SendDataset %d / %d", codec, keys, plain, wantKeys, wantPlain)
		}

		// The Conn never saw those payloads: its next own send must not
		// delta against anything.
		sent := mc.w.Len()
		c.Step = len(steps)
		if err := c.SendDataset(steps[0]); err != nil {
			t.Fatal(err)
		}
		if got := CodecID(mc.w.Bytes()[sent+17]); got != codec.Keyframe() {
			t.Errorf("%v: SendDataset after SendEncoded went out as %v, want the %v keyframe", codec, got, codec.Keyframe())
		}
		if err := c.SendEncoded(numCodecs, nil, 0); err == nil {
			t.Errorf("%v: SendEncoded accepted an invalid codec", codec)
		}
	}
}
