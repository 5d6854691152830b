// Perf-trajectory benchmarks: the three benchmarks scripts/bench.sh
// records into BENCH_PR*.json so successive PRs can compare ns/op and
// allocs/op on the per-frame / per-step hot paths — triangle
// rasterization, a 16-rank composite, and a full transport round trip
// over a loopback pipe. All three report allocations; the steady-state
// targets are asserted exactly by the AllocsPerRun tests next to each
// package.
package eth_test

import (
	"net"
	"testing"

	"github.com/ascr-ecx/eth/internal/blast"
	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/compositing"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/domain"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/geom"
	"github.com/ascr-ecx/eth/internal/raster"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/transport"
	"github.com/ascr-ecx/eth/internal/vec"
)

// benchTriangles projects the blast isosurface into screen space once so
// the benchmark times rasterization only.
func benchTriangles(b *testing.B) []raster.Triangle {
	b.Helper()
	mesh, err := geom.Isosurface(benchGrid, "temperature", 0.45)
	if err != nil {
		b.Fatal(err)
	}
	cam := camera.ForBounds(benchGrid.Bounds())
	proj := cam.NewProjector(benchImage, benchImage)
	tris := make([]raster.Triangle, 0, mesh.TriangleCount())
	for ti := 0; ti < mesh.TriangleCount(); ti++ {
		var out raster.Triangle
		visible := true
		for c := 0; c < 3; c++ {
			x, y, depth, ok := proj.Project(mesh.Verts[mesh.Tris[ti][c]])
			if !ok {
				visible = false
				break
			}
			out.V[c] = raster.Vertex{X: x, Y: y, Depth: depth, Color: vec.New(1, 0.5, 0.2)}
		}
		if visible {
			tris = append(tris, out)
		}
	}
	return tris
}

// BenchmarkTriangles times a steady-state triangle re-render into an
// existing frame: the per-image cost of the VTK-style geometry pipeline
// after extraction.
func BenchmarkTriangles(b *testing.B) {
	tris := benchTriangles(b)
	frame := fb.New(benchImage, benchImage)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame.Clear(vec.V3{})
		raster.DrawTriangles(frame, tris, 0)
	}
}

// BenchmarkComposite16 times a 16-rank depth composite of real partial
// renders, for both schedules.
func BenchmarkComposite16(b *testing.B) {
	dec, err := domain.Decompose(benchCloud, 16)
	if err != nil {
		b.Fatal(err)
	}
	cam := camera.ForBounds(benchCloud.Bounds())
	frames := make([]*fb.Frame, dec.Ranks())
	for i, piece := range dec.Pieces {
		r, err := render.New("points")
		if err != nil {
			b.Fatal(err)
		}
		frames[i] = fb.New(benchImage, benchImage)
		if _, err := r.Render(frames[i], piece, &cam, render.Options{ColorField: "speed"}); err != nil {
			b.Fatal(err)
		}
	}
	for _, alg := range []compositing.Algorithm{compositing.DirectSend, compositing.BinarySwap} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := compositing.Composite(frames, alg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTransportRoundTrip times one full in-situ interface exchange —
// SendDataset, peer Recv, ack — over an in-memory pipe, so the numbers
// isolate serialization and framing from TCP.
func BenchmarkTransportRoundTrip(b *testing.B) {
	step := benchCloud.Slice(0, 50_000)
	for _, codec := range []transport.CodecID{transport.CodecRaw, transport.CodecFlate} {
		b.Run(codec.String(), func(b *testing.B) {
			cl, sr := net.Pipe()
			send, recv := transport.NewConn(cl), transport.NewConn(sr)
			defer send.Close()
			defer recv.Close()
			send.SetCodec(codec)
			recv.SetDatasetReuse(true)
			errc := make(chan error, 1)
			go func() {
				for {
					typ, ds, _, err := recv.Recv()
					if err != nil {
						errc <- err
						return
					}
					if typ == transport.MsgDone {
						errc <- nil
						return
					}
					if ds == nil || ds.Count() == 0 {
						errc <- err
						return
					}
					if err := recv.SendAck(0); err != nil {
						errc <- err
						return
					}
				}
			}()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := send.SendDataset(step); err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := send.Recv(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if err := send.SendDone(); err != nil {
				b.Fatal(err)
			}
			if err := <-errc; err != nil {
				b.Fatal(err)
			}
		})
	}
}

// cosmoDriftSteps builds k temporally coherent particle steps with an
// active region: one contiguous ~10% slab of the bench cloud advances
// along its velocities each step while the rest of the cloud — and the
// IDs, velocities, and speed field — stay byte-identical. That is the
// shape a structure-formation step actually hands the in-situ interface:
// a collapsing cluster moves, the quiescent background does not. The
// temporal codecs' residual is therefore mostly zero with one dense
// stripe per position array. (cosmo.Generate itself reseeds per step, so
// successive Generate calls are byte-decorrelated and useless for
// measuring temporal coding.)
func cosmoDriftSteps(k int) []data.Dataset {
	base := benchCloud.Slice(0, 50_000)
	n := base.Count()
	lo, hi := n/2, n/2+n/10
	const dt = 0.01
	steps := make([]data.Dataset, k)
	for j := 0; j < k; j++ {
		c := data.NewPointCloud(n)
		copy(c.IDs, base.IDs)
		copy(c.X, base.X)
		copy(c.Y, base.Y)
		copy(c.Z, base.Z)
		copy(c.VX, base.VX)
		copy(c.VY, base.VY)
		copy(c.VZ, base.VZ)
		for i := lo; i < hi; i++ {
			c.X[i] = base.X[i] + float32(j)*dt*base.VX[i]
			c.Y[i] = base.Y[i] + float32(j)*dt*base.VY[i]
			c.Z[i] = base.Z[i] + float32(j)*dt*base.VZ[i]
		}
		c.SpeedField()
		steps[j] = c
	}
	return steps
}

// blastSteps builds k successive epochs of the blast volume: the front
// advances but the ambient field and turbulence are step-independent, so
// most cells are byte-identical between steps.
func blastSteps(b *testing.B, k int) []data.Dataset {
	b.Helper()
	p := blast.SmallParams()
	steps := make([]data.Dataset, k)
	for j := 0; j < k; j++ {
		p.TimeStep = j
		g, err := blast.Generate(p)
		if err != nil {
			b.Fatal(err)
		}
		steps[j] = g
	}
	return steps
}

// BenchmarkTransportCodecSweep measures every wire codec against both
// coherent workloads — a drifting HACC-style particle cloud and the
// advancing XRAGE-style blast volume. Each iteration is a full send +
// recv + ack round trip cycling through the step ring, so temporal
// codecs run in steady delta mode after the warm-up keyframe. The extra
// wire-B/op metric is the per-step payload actually crossing the wire,
// which scripts/bench.sh records alongside ns/op and allocs/op.
func BenchmarkTransportCodecSweep(b *testing.B) {
	workloads := []struct {
		name  string
		steps []data.Dataset
	}{
		{"cosmo", cosmoDriftSteps(4)},
		{"blast", blastSteps(b, 4)},
	}
	for _, wl := range workloads {
		for _, name := range transport.Codecs() {
			codec, err := transport.ParseCodec(name)
			if err != nil {
				b.Fatal(err)
			}
			wl, codec := wl, codec
			b.Run(wl.name+"/"+name, func(b *testing.B) {
				cl, sr := net.Pipe()
				send, recv := transport.NewConn(cl), transport.NewConn(sr)
				defer send.Close()
				defer recv.Close()
				send.SetCodec(codec)
				recv.SetDatasetReuse(true)
				errc := make(chan error, 1)
				go func() {
					for {
						typ, ds, _, err := recv.Recv()
						if err != nil {
							errc <- err
							return
						}
						if typ == transport.MsgDone {
							errc <- nil
							return
						}
						if ds == nil || ds.Count() == 0 {
							errc <- err
							return
						}
						if err := recv.SendAck(0); err != nil {
							errc <- err
							return
						}
					}
				}()
				roundTrip := func(i int) {
					if err := send.SendDataset(wl.steps[i%len(wl.steps)]); err != nil {
						b.Fatal(err)
					}
					if _, _, _, err := send.Recv(); err != nil {
						b.Fatal(err)
					}
				}
				// Warm one full ring: the keyframe and buffer growth happen
				// here, so the timed region is the steady state.
				for i := 0; i < len(wl.steps); i++ {
					roundTrip(i)
				}
				wireBefore := send.BytesSent
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					roundTrip(i)
				}
				b.StopTimer()
				b.ReportMetric(float64(send.BytesSent-wireBefore)/float64(b.N), "wire-B/op")
				if err := send.SendDone(); err != nil {
					b.Fatal(err)
				}
				if err := <-errc; err != nil {
					b.Fatal(err)
				}
			})
		}
	}
}
