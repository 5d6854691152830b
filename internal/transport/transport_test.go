package transport

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/vec"
)

func pipePair(t *testing.T) (*Conn, *Conn) {
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
	a, b := NewConn(client), NewConn(server)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func sampleCloud(n int) *data.PointCloud {
	p := data.NewPointCloud(n)
	for i := 0; i < n; i++ {
		p.IDs[i] = int64(i * 3)
		p.SetPos(i, vec.New(float64(i), float64(i)*2, float64(i)*3))
	}
	p.SpeedField()
	return p
}

func TestDatasetRoundTripOverSocket(t *testing.T) {
	a, b := pipePair(t)
	want := sampleCloud(500)
	errc := make(chan error, 1)
	go func() { errc <- a.SendDataset(want) }()
	typ, ds, _, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	if typ != MsgDataset {
		t.Fatalf("type = %v", typ)
	}
	got := ds.(*data.PointCloud)
	if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.X, want.X) {
		t.Error("dataset corrupted in transit")
	}
	if a.BytesSent == 0 || b.BytesReceived != a.BytesSent {
		t.Errorf("byte accounting: sent=%d received=%d", a.BytesSent, b.BytesReceived)
	}
}

func TestAckAndDone(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		a.SendAck(42)
		a.SendDone()
	}()
	typ, _, step, err := b.Recv()
	if err != nil || typ != MsgAck || step != 42 {
		t.Fatalf("ack: %v %v %v", typ, step, err)
	}
	typ, _, _, err = b.Recv()
	if err != nil || typ != MsgDone {
		t.Fatalf("done: %v %v", typ, err)
	}
}

func TestRecvOnClosedConn(t *testing.T) {
	a, b := pipePair(t)
	a.Close()
	if _, _, _, err := b.Recv(); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

func TestMultipleDatasetsSequential(t *testing.T) {
	a, b := pipePair(t)
	go func() {
		for step := 0; step < 5; step++ {
			a.SendDataset(sampleCloud(100 + step))
		}
		a.SendDone()
	}()
	for step := 0; step < 5; step++ {
		typ, ds, _, err := b.Recv()
		if err != nil || typ != MsgDataset {
			t.Fatalf("step %d: %v %v", step, typ, err)
		}
		if ds.Count() != 100+step {
			t.Fatalf("step %d: count %d", step, ds.Count())
		}
	}
	typ, _, _, err := b.Recv()
	if err != nil || typ != MsgDone {
		t.Fatalf("final: %v %v", typ, err)
	}
}

func TestLayoutFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "layout")
	for rank := 0; rank < 4; rank++ {
		if err := AppendLayout(path, LayoutEntry{Rank: rank, Addr: "127.0.0.1:900" + string(rune('0'+rank))}); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := ReadLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("entries = %v", entries)
	}
	if entries[2] != "127.0.0.1:9002" {
		t.Errorf("rank 2 = %q", entries[2])
	}
}

func TestLayoutConcurrentAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "layout")
	const ranks = 32
	var wg sync.WaitGroup
	wg.Add(ranks)
	for r := 0; r < ranks; r++ {
		go func(r int) {
			defer wg.Done()
			AppendLayout(path, LayoutEntry{Rank: r, Addr: "10.0.0.1:5000"})
		}(r)
	}
	wg.Wait()
	entries, err := ReadLayout(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != ranks {
		t.Errorf("concurrent appends lost entries: %d/%d", len(entries), ranks)
	}
}

func TestReadLayoutMalformed(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad")
	if err := AppendLayout(path, LayoutEntry{Rank: 0, Addr: "ok:1"}); err != nil {
		t.Fatal(err)
	}
	// Append a malformed line by hand.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not a layout line with too many fields\n")
	f.Close()
	if _, err := ReadLayout(path); err == nil {
		t.Error("malformed layout accepted")
	}
}

func TestWaitLayoutTimesOut(t *testing.T) {
	path := filepath.Join(t.TempDir(), "never")
	if _, err := WaitLayout(path, 0, 50*time.Millisecond); err == nil {
		t.Error("missing layout did not time out")
	}
}

func TestListenDialRendezvous(t *testing.T) {
	path := filepath.Join(t.TempDir(), "layout")
	ln, err := Listen(path, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	acceptErr := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			acceptErr <- err
			return
		}
		conn := NewConn(c)
		defer conn.Close()
		acceptErr <- conn.SendAck(7)
	}()

	conn, err := Dial(path, 3, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	typ, _, step, err := conn.Recv()
	if err != nil || typ != MsgAck || step != 7 {
		t.Fatalf("rendezvous recv: %v %v %v", typ, step, err)
	}
	if err := <-acceptErr; err != nil {
		t.Fatal(err)
	}
}

func TestDialUnknownRank(t *testing.T) {
	path := filepath.Join(t.TempDir(), "layout")
	AppendLayout(path, LayoutEntry{Rank: 0, Addr: "127.0.0.1:1"})
	if _, err := Dial(path, 9, 50*time.Millisecond); err == nil {
		t.Error("dial to unknown rank succeeded")
	}
}

func TestCompressedDatasetRoundTrip(t *testing.T) {
	a, b := pipePair(t)
	a.SetCodec(CodecFlate)
	want := sampleCloud(2000)
	errc := make(chan error, 1)
	go func() { errc <- a.SendDataset(want) }()
	typ, ds, _, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	// Receivers see MsgDataset regardless of wire framing.
	if typ != MsgDataset {
		t.Fatalf("type = %v", typ)
	}
	got := ds.(*data.PointCloud)
	if !reflect.DeepEqual(got.IDs, want.IDs) || !reflect.DeepEqual(got.X, want.X) {
		t.Error("compressed dataset corrupted in transit")
	}
}

func TestCompressionSavesBytesOnCompressibleData(t *testing.T) {
	// A cloud with constant fields compresses very well; the wire byte
	// count must shrink substantially.
	mkCloud := func() *data.PointCloud {
		p := data.NewPointCloud(5000)
		for i := range p.IDs {
			p.IDs[i] = 7
		}
		return p
	}
	send := func(codec CodecID) int64 {
		a, b := pipePair(t)
		a.SetCodec(codec)
		done := make(chan error, 1)
		go func() { done <- a.SendDataset(mkCloud()) }()
		if _, _, _, err := b.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		return a.BytesSent
	}
	raw := send(CodecRaw)
	packed := send(CodecFlate)
	if packed >= raw/10 {
		t.Errorf("compression saved too little: %d vs %d bytes", packed, raw)
	}
}

func TestMixedCompressionStream(t *testing.T) {
	// Switching between raw and flate between frames must not confuse the
	// receiver.
	a, b := pipePair(t)
	go func() {
		a.SendDataset(sampleCloud(50))
		a.SetCodec(CodecFlate)
		a.SendDataset(sampleCloud(60))
		a.SetCodec(CodecRaw)
		a.SendDataset(sampleCloud(70))
		a.SendDone()
	}()
	for _, want := range []int{50, 60, 70} {
		typ, ds, _, err := b.Recv()
		if err != nil || typ != MsgDataset {
			t.Fatalf("recv: %v %v", typ, err)
		}
		if ds.Count() != want {
			t.Fatalf("count = %d, want %d", ds.Count(), want)
		}
	}
	typ, _, _, err := b.Recv()
	if err != nil || typ != MsgDone {
		t.Fatalf("done: %v %v", typ, err)
	}
}

func TestDialPicksUpFreshRegistration(t *testing.T) {
	// A stale layout entry points nowhere; while the dialer retries, a
	// fresh listener registers under the same rank and must win.
	path := filepath.Join(t.TempDir(), "layout")
	if err := AppendLayout(path, LayoutEntry{Rank: 0, Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		ln, err := Listen(path, 0, "")
		if err != nil {
			return
		}
		c, err := ln.Accept()
		if err != nil {
			return
		}
		conn := NewConn(c)
		conn.SendAck(1)
		conn.Close()
		ln.Close()
	}()
	conn, err := Dial(path, 0, 5*time.Second)
	if err != nil {
		t.Fatalf("dial did not recover from stale entry: %v", err)
	}
	defer conn.Close()
	typ, _, step, err := conn.Recv()
	if err != nil || typ != MsgAck || step != 1 {
		t.Fatalf("recv: %v %v %v", typ, step, err)
	}
}
