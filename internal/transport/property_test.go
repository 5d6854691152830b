package transport

import (
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"sync"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/cosmo"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

// tapConn records every byte written through it.
type tapConn struct {
	net.Conn
	mu    sync.Mutex
	wrote bytes.Buffer
}

func (t *tapConn) Write(p []byte) (int, error) {
	t.mu.Lock()
	t.wrote.Write(p)
	t.mu.Unlock()
	return t.Conn.Write(p)
}

// propertySequences are three-step sequences of the payload shapes the
// codecs carry: a blast slab larger than the Conn's 1 MiB buffers (so
// both sides take the direct socket paths), a cosmo cloud, and a 256²
// hub frame grid (r, g, b, depth) with a moving disk on an empty
// background.
func propertySequences(t *testing.T) map[string][]data.Dataset {
	t.Helper()
	seqs := map[string][]data.Dataset{}
	for step := 0; step < 3; step++ {
		g, err := blast.Generate(blast.Params{NX: 64, NY: 64, NZ: 48, BoxSize: 10, Seed: 1, TimeStep: step})
		if err != nil {
			t.Fatal(err)
		}
		seqs["blast-slab"] = append(seqs["blast-slab"], g.Partition(2)[0])

		cp := cosmo.DefaultParams()
		cp.Particles = 5_000
		cp.TimeStep = step
		cloud, err := cosmo.Generate(cp)
		if err != nil {
			t.Fatal(err)
		}
		seqs["cosmo"] = append(seqs["cosmo"], cloud)

		const w = 256
		frame := data.NewStructuredGrid(w, w, 1)
		for _, name := range []string{"r", "g", "b", "depth"} {
			frame.Fields = append(frame.Fields, data.Field{Name: name, Values: make([]float32, w*w)})
		}
		for i := 0; i < w*w; i++ {
			dx, dy := float64(i%w-100-10*step), float64(i/w-128)
			if r := math.Hypot(dx, dy); r < 60 {
				frame.Fields[0].Values[i] = float32(r / 60)
				frame.Fields[1].Values[i] = 0.5
				frame.Fields[2].Values[i] = float32(1 - r/60)
				frame.Fields[3].Values[i] = float32(5 + r/100)
			} else {
				frame.Fields[3].Values[i] = float32(math.Inf(1))
			}
		}
		seqs["hub-frame"] = append(seqs["hub-frame"], frame)
	}
	return seqs
}

// TestCodecPropertyOverConnPair sends each sequence over a Conn pair
// under every codec. Every received dataset must re-Append to the exact
// bytes the sender appended, and the byte accounting must agree with the
// frames on the wire: the sender's BytesSent, the receiver's
// BytesReceived, the transport.bytes_sent counter and each side's
// journaled transfer Bytes all equal the frames' payload lengths. The
// pipe hands the receiver one sender Write at a time, so its read buffer
// is empty when a large payload starts; the recorded wire is then read
// once more from a plain stream, where the buffer fills with payload
// bytes that the direct path must drain first.
func TestCodecPropertyOverConnPair(t *testing.T) {
	seqs := propertySequences(t)
	if n := len(vtkPayload(t, seqs["blast-slab"][0])); n <= 1<<20 {
		t.Fatalf("blast slab is %d bytes; it must exceed the 1 MiB buffers", n)
	}
	for id := CodecID(0); id < numCodecs; id++ {
		for name, seq := range seqs {
			t.Run(id.String()+"/"+name, func(t *testing.T) {
				cl, sr := net.Pipe()
				tap := &tapConn{Conn: cl}
				send, recv := NewConn(tap), NewConn(sr)
				defer send.Close()
				defer recv.Close()
				send.SetCodec(id)
				recv.SetDatasetReuse(true)
				send.Journal, recv.Journal = journal.New(), journal.New()
				sentBefore := ctrBytesSent.Value()

				got := make(chan []byte, len(seq))
				errc := make(chan error, 1)
				go func() {
					for range seq {
						_, ds, _, err := recv.Recv()
						if err != nil {
							errc <- err
							return
						}
						b, err := vtkio.Append(nil, ds)
						if err != nil {
							errc <- err
							return
						}
						got <- b
					}
					errc <- nil
				}()
				for i, ds := range seq {
					send.Step = i
					if err := send.SendDataset(ds); err != nil {
						t.Fatal(err)
					}
				}
				if err := <-errc; err != nil {
					t.Fatal(err)
				}
				for i, ds := range seq {
					if want := vtkPayload(t, ds); !bytes.Equal(<-got, want) {
						t.Fatalf("step %d: received dataset does not re-Append to the %d bytes sent", i, len(want))
					}
				}
				replay := NewConn(&memConn{r: bytes.NewReader(tap.wrote.Bytes())})
				for i, ds := range seq {
					_, back, _, err := replay.Recv()
					if err != nil {
						t.Fatalf("step %d from a stream: %v", i, err)
					}
					if b, want := vtkPayload(t, back), vtkPayload(t, ds); !bytes.Equal(b, want) {
						t.Fatalf("step %d from a stream: dataset does not re-Append to the %d bytes sent", i, len(want))
					}
				}

				// Walk the frames on the wire: header, payload, trailer.
				wire := tap.wrote.Bytes()
				var lens []int64
				for len(wire) > 0 {
					if len(wire) < datasetHeaderLenV3 || MsgType(wire[0]) != MsgDatasetV3 {
						t.Fatalf("wire holds %d bytes that are not a dataset frame", len(wire))
					}
					n := int64(binary.BigEndian.Uint64(wire[1:9]))
					lens = append(lens, n)
					wire = wire[datasetHeaderLenV3+n+4:]
				}
				if len(lens) != len(seq) {
					t.Fatalf("%d frames on the wire, want %d", len(lens), len(seq))
				}
				var total int64
				for _, n := range lens {
					total += n
				}
				if send.BytesSent != total || recv.BytesReceived != total {
					t.Errorf("BytesSent %d, BytesReceived %d, frames carry %d", send.BytesSent, recv.BytesReceived, total)
				}
				if d := ctrBytesSent.Value() - sentBefore; d != total {
					t.Errorf("transport.bytes_sent advanced by %d, frames carry %d", d, total)
				}
				for side, j := range map[string]*journal.Writer{"send": send.Journal, "recv": recv.Journal} {
					var journaled []int64
					for _, ev := range j.Events() {
						if ev.Type == journal.TypeTransfer {
							journaled = append(journaled, ev.Bytes)
						}
					}
					if len(journaled) != len(lens) {
						t.Fatalf("%s journal: %d transfer events, want %d", side, len(journaled), len(lens))
					}
					for i := range lens {
						if journaled[i] != lens[i] {
							t.Errorf("%s journal: frame %d transfer Bytes %d, frame carries %d", side, i, journaled[i], lens[i])
						}
					}
				}
			})
		}
	}
}
