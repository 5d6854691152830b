package hub

import (
	"errors"
	"testing"

	"github.com/ascr-ecx/eth/internal/transport"
)

// FuzzSteeringMessage is the parser hardening gate for the steering
// vocabulary: whatever bytes arrive — truncated, bit-flipped, hostile —
// DecodeMsg must either return a message that re-encodes to the exact
// same bytes (canonical form) or fail with an error wrapping the typed
// ErrSteering sentinel. It must never panic and never return a message
// whose fields are outside the steerable domain (which is what would
// make a corrupt frame silently steer a run).
func FuzzSteeringMessage(f *testing.F) {
	for _, m := range []Msg{
		{Kind: KindHello, From: -1, Name: "viewer"},
		{Kind: KindHello, From: 1 << 33, Name: ""},
		{Kind: KindSteer, Axes: AxisCamera, Cam: View{Az: 1, El: -0.25, Dist: 1.5}},
		{Kind: KindSteer, Axes: AxisIso, Iso: 0.5},
		{Kind: KindSteer, Axes: AxisRatio | AxisCodec, Ratio: 0.125, Codec: transport.CodecDelta},
		{Kind: KindSteer, Axes: axisAll, Cam: View{Az: -3, El: 1.2, Dist: 0.5},
			Iso: -1, Ratio: 1, Codec: transport.CodecFlate},
		{Kind: KindField, Field: "temperature"},
	} {
		p, err := EncodeMsg(nil, m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(p)
		// Seed classic corruptions so even a corpus-free run exercises
		// the failure paths.
		flip := append([]byte(nil), p...)
		flip[len(flip)/2] ^= 0xff
		f.Add(flip)
		f.Add(p[:len(p)-1])
	}
	f.Add([]byte{})
	f.Add([]byte{steerMagic0, steerMagic1, steerVersion, KindSteer})

	f.Fuzz(func(t *testing.T, p []byte) {
		m, err := DecodeMsg(p)
		if err != nil {
			if !errors.Is(err, ErrSteering) {
				t.Fatalf("decode error %v does not wrap ErrSteering", err)
			}
			return
		}
		// Accepted messages must be semantically valid (the domain checks
		// are what stop a flipped byte from silently applying) ...
		if err := m.validate(); err != nil {
			t.Fatalf("decode accepted invalid message %+v: %v", m, err)
		}
		// ... and canonical: re-encoding reproduces the input exactly, so
		// there is exactly one wire form per message and a mutated-but-
		// accepted frame is impossible by construction.
		enc, err := EncodeMsg(nil, m)
		if err != nil {
			t.Fatalf("accepted message %+v does not re-encode: %v", m, err)
		}
		if string(enc) != string(p) {
			t.Fatalf("decode/encode not canonical:\n in  %x\n out %x\n msg %+v", p, enc, m)
		}
		back, err := DecodeMsg(enc)
		if err != nil || back != m {
			t.Fatalf("canonical re-decode mismatch: %+v vs %+v (err %v)", back, m, err)
		}
	})
}
