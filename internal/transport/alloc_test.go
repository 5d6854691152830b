package transport

import (
	"math/rand"
	"net"
	"testing"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/raceflag"
)

// allocCloud builds the shape-stable dataset the steady-state gates
// stream: the same layout every step, as a coherent simulation produces.
func allocCloud(n int) *data.PointCloud {
	cloud := data.NewPointCloud(n)
	for i := 0; i < cloud.Count(); i++ {
		cloud.IDs[i] = int64(i)
		cloud.X[i] = float32(i)
		cloud.Y[i] = float32(i) * 0.5
		cloud.Z[i] = float32(i) * 0.25
	}
	cloud.SpeedField()
	return cloud
}

// allocHarness wires a sender and receiver Conn over an in-memory pipe
// with the receiver in dataset-reuse mode, drives the receive/ack loop in
// a goroutine, and returns a full round trip (send dataset, wait for ack)
// plus a finish func that drains the receiver and closes both ends. The
// advance callback, when non-nil, perturbs the dataset before each send
// so temporal codecs see real residuals rather than all-zero ones.
func allocHarness(t *testing.T, cloud *data.PointCloud, codec CodecID, advance func()) (roundTrip, finish func()) {
	t.Helper()
	cl, sr := net.Pipe()
	send, recv := NewConn(cl), NewConn(sr)
	send.SetCodec(codec)
	recv.SetDatasetReuse(true)

	// A receiver that fails reports why and then closes its end, so the
	// sender's wait for the ack fails with it instead of blocking forever.
	errc := make(chan error, 1)
	go func() {
		for {
			typ, _, _, err := recv.Recv()
			if err == nil && typ == MsgDone {
				errc <- nil
				return
			}
			if err == nil {
				err = recv.SendAck(0)
			}
			if err != nil {
				errc <- err
				recv.Close()
				return
			}
		}
	}()

	roundTrip = func() {
		if advance != nil {
			advance()
		}
		if err := send.SendDataset(cloud); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := send.Recv(); err != nil {
			send.Close() // a receiver still waiting fails too
			t.Fatalf("waiting for the ack: %v (receiver: %v)", err, <-errc)
		}
	}
	finish = func() {
		if err := send.SendDone(); err != nil {
			t.Fatal(err)
		}
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		send.Close()
		recv.Close()
	}
	return roundTrip, finish
}

// gateSteadyState warms the harness on an n-particle cloud, then asserts
// the steady-state round-trip allocation budget while proving the CRC
// path actually ran.
func gateSteadyState(t *testing.T, n int, codec CodecID, advance func(c *data.PointCloud), budget float64) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	cloud := allocCloud(n)
	var adv func()
	if advance != nil {
		adv = func() { advance(cloud) }
	}
	roundTrip, finish := allocHarness(t, cloud, codec, adv)
	defer finish()
	// Warm the buffers: payload/wire/reference buffers, the per-direction
	// codec instances, the receiver's reused dataset, and the ack scratch
	// all materialize on the first trips.
	for i := 0; i < 5; i++ {
		roundTrip()
	}
	// The round trip includes the integrity machinery — CRC32C over
	// header+payload on send, the bulk trailer verify over the
	// materialized wire payload on receive — all of which must stay
	// inside the Conn's scratch state. Proving the checksum actually ran
	// keeps this a CRC-path gate rather than a vacuous pass.
	checksummed := ctrCRCChecked.Value()
	if allocs := testing.AllocsPerRun(50, roundTrip); allocs > budget {
		t.Errorf("%s steady-state round trip allocates %.1f times per op, want <= %g (CRC path included)",
			codec, allocs, budget)
	}
	if got := ctrCRCChecked.Value() - checksummed; got < 50 {
		t.Errorf("crc_checked advanced by %d during AllocsPerRun, want >= 50 (CRC path not exercised)", got)
	}
}

// drift perturbs a slice of coordinates in place so successive frames
// carry genuine (non-zero) delta residuals without allocating.
func drift(c *data.PointCloud) {
	for i := 0; i < len(c.X); i += 97 {
		c.X[i] += 0.125
		c.Y[i] -= 0.0625
	}
}

// TestSendRecvSteadyStateAllocs locks in the zero-allocation steady state
// of the raw dataset path: after the first exchange warms the buffers, a
// full SendDataset / Recv / ack round trip must not allocate on either
// side. AllocsPerRun counts mallocs across all goroutines, so the
// receiver goroutine's decode is included in the budget.
func TestSendRecvSteadyStateAllocs(t *testing.T) {
	gateSteadyState(t, 10_000, CodecRaw, nil, 0)
}

// TestDeltaSteadyStateAllocs is the acceptance gate for the temporal
// path: XOR delta encode, bulk CRC, delta decode, and the plain-payload
// reference swaps on both sides must all stay inside Conn-owned scratch —
// exactly zero allocations per round trip, same budget as raw.
func TestDeltaSteadyStateAllocs(t *testing.T) {
	gateSteadyState(t, 10_000, CodecDelta, drift, 0)
}

// TestFlateSendSteadyStateAllocs gates the flate *send* path at zero on
// its own: the flate writer, its sink buffer, and the frame scratch are
// all reused, so compressing and framing a steady stream must not
// allocate. The receive side is excluded by draining raw bytes instead of
// decoding; TestFlateSteadyStateAllocs gates the two together.
func TestFlateSendSteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	cloud := allocCloud(10_000)
	cl, sr := net.Pipe()
	send := NewConn(cl)
	defer send.Close()
	defer sr.Close()
	send.SetCodec(CodecFlate)

	// Drain the pipe with a persistent buffer so the sender never blocks
	// and the counting loop itself stays allocation-free.
	go func() {
		buf := make([]byte, 1<<20)
		for {
			if _, err := sr.Read(buf); err != nil {
				return
			}
		}
	}()

	sendOnce := func() {
		if err := send.SendDataset(cloud); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		sendOnce()
	}
	if allocs := testing.AllocsPerRun(50, sendOnce); allocs > 0 {
		t.Errorf("flate send allocates %.1f times per op, want 0", allocs)
	}
}

// TestFlateSteadyStateAllocs gates the full compressed round trip at
// zero: the flate writer and its sink on the send side, and on the
// receive side inflate's tables, which live in the codec, and its output,
// which lands in the Conn's plain buffer from the frame before.
func TestFlateSteadyStateAllocs(t *testing.T) {
	gateSteadyState(t, 10_000, CodecFlate, nil, 0)
}

// TestDeltaFlateSteadyStateAllocs is the same zero for the composed
// codec: the XOR stage, the block bitmap, and the packed blocks inflated
// into the output buffer and spread in place add nothing.
func TestDeltaFlateSteadyStateAllocs(t *testing.T) {
	gateSteadyState(t, 10_000, CodecDeltaFlate, drift, 0)
}

// largeCloud is the particle count of the large-frame gates: ≈ 1.4 MB of
// plain payload, past the Conn's 1 MiB buffers, so raw frames take the
// direct paths — header flushed, payload written straight from the
// payload buffer, and on receive drained from the read buffer and then
// read straight from the socket.
const largeCloud = 40_000

// TestRawLargeFrameSteadyStateAllocs gates the direct socket paths at
// zero on a raw stream of frames larger than the buffers.
func TestRawLargeFrameSteadyStateAllocs(t *testing.T) {
	gateSteadyState(t, largeCloud, CodecRaw, nil, 0)
}

// TestDeltaFlateLargeFrameSteadyStateAllocs is the same zero for the
// composed codec over a plain payload larger than the buffers.
func TestDeltaFlateLargeFrameSteadyStateAllocs(t *testing.T) {
	gateSteadyState(t, largeCloud, CodecDeltaFlate, drift, 0)
}

// TestChooseAllocatesNothing gates the per-frame codec choice at zero:
// the estimate runs on every delta+flate send and on every hub frame, so
// its histograms must stay on the stack whichever way it decides.
func TestChooseAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("race instrumentation allocates; alloc counts are only meaningful without -race")
	}
	rng := rand.New(rand.NewSource(77))
	first := fuzzCloud(20_000, rng)
	ref := vtkPayload(t, first)
	for _, tc := range []struct {
		name  string
		plain []byte
		want  CodecID
	}{
		{"independent", vtkPayload(t, fuzzCloud(20_000, rng)), CodecFlate},
		{"coherent", vtkPayload(t, coherentStep(first, rng)), CodecDeltaFlate},
	} {
		var got CodecID
		if allocs := testing.AllocsPerRun(20, func() { got = Choose(CodecDeltaFlate, tc.plain, ref) }); allocs > 0 {
			t.Errorf("%s: Choose allocates %.1f times per call, want 0", tc.name, allocs)
		}
		if got != tc.want {
			t.Errorf("%s: Choose picked %v, want %v", tc.name, got, tc.want)
		}
	}
}
