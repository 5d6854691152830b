package transport

// Robustness tests for the hardened wire format: CRC32C trailers, typed
// truncation/oversize/timeout errors, step round-trip, and the
// backoff-based reconnect dialer.

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/faults"
)

// rawPipe returns both ends of a TCP loopback connection, unwrapped.
func rawPipe(t *testing.T) (net.Conn, net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var server net.Conn
	done := make(chan struct{})
	go func() {
		server, _ = ln.Accept()
		close(done)
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	<-done
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

func TestStepTravelsWithDataset(t *testing.T) {
	a, b := pipePair(t)
	a.Step = 7
	errc := make(chan error, 1)
	go func() { errc <- a.SendDataset(sampleCloud(100)) }()
	typ, _, step, err := b.Recv()
	if err != nil || typ != MsgDataset {
		t.Fatalf("recv: %v %v", typ, err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if step != 7 {
		t.Errorf("wire step = %d, want 7", step)
	}
}

func TestCorruptedFrameDetected(t *testing.T) {
	for _, compress := range []bool{false, true} {
		t.Run(fmt.Sprintf("compress=%v", compress), func(t *testing.T) {
			// Position 25 is past the 18-byte v3 dataset header: a payload flip,
			// caught by the checksum rather than the length sanity checks.
			sched := faults.New(1, faults.Rule{
				Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 0,
				Action: faults.Corrupt, Pos: 25,
			})
			cw, sw := rawPipe(t)
			a, b := NewConn(sched.WrapAccepted(cw)), NewConn(sw)
			if compress {
				a.SetCodec(CodecFlate)
			}
			go a.SendDataset(sampleCloud(500))
			_, _, _, err := b.Recv()
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("err = %v, want wrapped ErrChecksum", err)
			}
		})
	}
}

func TestTruncatedFrameDetected(t *testing.T) {
	// Reset kills the connection halfway through the frame: the receiver
	// must surface a typed closed-connection error, never a dataset.
	sched := faults.New(1, faults.Rule{
		Side: faults.SideSim, Conn: 0, Op: faults.OpWrite, Nth: 0, Action: faults.Reset,
	})
	cw, sw := rawPipe(t)
	a, b := NewConn(sched.WrapAccepted(cw)), NewConn(sw)
	go a.SendDataset(sampleCloud(500))
	typ, ds, _, err := b.Recv()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v (type %v, ds %v), want wrapped ErrClosed", err, typ, ds)
	}
}

func TestFrameTooLarge(t *testing.T) {
	a, b := pipePair(t)
	b.SetMaxFrame(1024)
	go a.SendDataset(sampleCloud(500)) // well over 1 KiB on the wire
	_, _, _, err := b.Recv()
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want wrapped ErrFrameTooLarge", err)
	}
}

func TestRecvTimeout(t *testing.T) {
	_, b := pipePair(t)
	b.SetTimeouts(50*time.Millisecond, 0)
	start := time.Now()
	_, _, _, err := b.Recv()
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want wrapped ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("timeout took %v", elapsed)
	}
}

func TestSendTimeout(t *testing.T) {
	// A peer that never reads eventually fills the socket buffers; with a
	// write deadline the sender unblocks with ErrTimeout instead of
	// hanging forever.
	a, _ := pipePair(t)
	a.SetTimeouts(0, 100*time.Millisecond)
	var err error
	for i := 0; i < 100 && err == nil; i++ {
		err = a.SendDataset(sampleCloud(5000))
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want wrapped ErrTimeout", err)
	}
}

func TestDialBackoffConnects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "layout")
	ln, err := Listen(path, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conn := NewConn(c)
		conn.SendAck(3)
		conn.Close()
	}()
	bo := DefaultBackoff(1)
	bo.Base, bo.Max = time.Millisecond, 5*time.Millisecond
	conn, err := DialBackoff(path, 0, bo)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	typ, _, step, err := conn.Recv()
	if err != nil || typ != MsgAck || step != 3 {
		t.Fatalf("recv: %v %v %v", typ, step, err)
	}
}

func TestDialBackoffRetriesThenSucceeds(t *testing.T) {
	path := filepath.Join(t.TempDir(), "layout")
	if err := AppendLayout(path, LayoutEntry{Rank: 0, Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	calls := 0
	bo := Backoff{
		Base: time.Millisecond, Max: 2 * time.Millisecond, Attempts: 5,
		LayoutWait: time.Second,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			calls++
			if calls < 3 {
				return nil, errors.New("connection refused")
			}
			c, _ := net.Pipe()
			return c, nil
		},
	}
	conn, err := DialBackoff(path, 0, bo)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if calls != 3 {
		t.Errorf("dial attempts = %d, want 3", calls)
	}
}

func TestDialBackoffExhaustsAttempts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "layout")
	if err := AppendLayout(path, LayoutEntry{Rank: 0, Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	refused := errors.New("refused")
	calls := 0
	bo := Backoff{
		Base: time.Millisecond, Max: 2 * time.Millisecond, Attempts: 3,
		LayoutWait: time.Second,
		Dial: func(network, addr string, timeout time.Duration) (net.Conn, error) {
			calls++
			return nil, refused
		},
	}
	_, err := DialBackoff(path, 0, bo)
	if !errors.Is(err, refused) {
		t.Fatalf("err = %v, want wrapped last dial error", err)
	}
	if calls != 3 {
		t.Errorf("dial attempts = %d, want 3", calls)
	}
}

func TestBackoffDelaysDeterministicAndCapped(t *testing.T) {
	bo := DefaultBackoff(0)
	seq := func(seed int64) []time.Duration {
		rng := rand.New(rand.NewSource(seed))
		var out []time.Duration
		for i := 1; i <= 8; i++ {
			out = append(out, bo.delay(i, rng))
		}
		return out
	}
	a, b := seq(9), seq(9)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at attempt %d: %v vs %v", i+1, a[i], b[i])
		}
		limit := time.Duration(float64(bo.Max) * (1 + bo.Jitter))
		if a[i] <= 0 || a[i] > limit {
			t.Errorf("delay %d = %v outside (0, %v]", i+1, a[i], limit)
		}
	}
	// Late attempts must sit near the cap, not keep doubling.
	if a[7] > time.Duration(float64(bo.Max)*(1+bo.Jitter)) {
		t.Errorf("attempt 8 delay %v exceeds jittered cap", a[7])
	}
}
