// Package proxy implements the paper's two-process architecture (§III-A):
// a simulation proxy that replays previously exported simulation data in
// place of the real simulation, and a visualization proxy that receives
// each time step over the in-situ interface and renders it. The basic
// unit of granularity is a pair of such processes (Figure 4b); pairs can
// be coupled in one process or connected over the socket layer.
package proxy

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/sampling"
	"github.com/ascr-ecx/eth/internal/transport"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

// StepSource supplies the simulation data stream, one dataset per time
// step. Implementations: DiskSource replays exported dumps (the paper's
// design); generator-backed sources synthesize data on the fly.
type StepSource interface {
	// Steps returns the number of time steps available.
	Steps() int
	// Step returns the dataset for time step i (0-based).
	Step(i int) (data.Dataset, error)
}

// DiskSource replays datasets from files — the paper's "preliminary run
// of the simulation writes data out; our simulation proxy then reads the
// simulation data into memory and presents it to the simulation/analysis
// interface" (§I).
type DiskSource struct {
	paths []string
}

// NewDiskSource creates a source over the given dataset files, one per
// time step, replayed in order.
func NewDiskSource(paths ...string) (*DiskSource, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("proxy: disk source needs at least one file")
	}
	return &DiskSource{paths: paths}, nil
}

// NewDiskSourceGlob creates a source over files matching pattern, in
// lexical order.
func NewDiskSourceGlob(pattern string) (*DiskSource, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	return NewDiskSource(paths...)
}

// Steps implements StepSource.
func (s *DiskSource) Steps() int { return len(s.paths) }

// Step implements StepSource.
func (s *DiskSource) Step(i int) (data.Dataset, error) {
	if i < 0 || i >= len(s.paths) {
		return nil, fmt.Errorf("proxy: step %d out of range [0, %d)", i, len(s.paths))
	}
	return vtkio.ReadFile(s.paths[i])
}

// FuncSource adapts a generator function to a StepSource.
type FuncSource struct {
	N  int
	Fn func(step int) (data.Dataset, error)
}

// Steps implements StepSource.
func (s *FuncSource) Steps() int { return s.N }

// Step implements StepSource.
func (s *FuncSource) Step(i int) (data.Dataset, error) { return s.Fn(i) }

// MemSource serves pre-built datasets (used by tests and the tight
// coupling driver).
type MemSource struct {
	Data []data.Dataset
}

// Steps implements StepSource.
func (s *MemSource) Steps() int { return len(s.Data) }

// Step implements StepSource.
func (s *MemSource) Step(i int) (data.Dataset, error) {
	if i < 0 || i >= len(s.Data) {
		return nil, fmt.Errorf("proxy: step %d out of range", i)
	}
	return s.Data[i], nil
}

// SimConfig configures a simulation-proxy rank.
type SimConfig struct {
	// Rank identifies this proxy pair.
	Rank int
	// Ranks is the total pair count; the proxy serves piece Rank of each
	// step partitioned Ranks ways. Ranks <= 1 serves whole steps.
	Ranks int
	// SamplingRatio applies spatial sampling before the data crosses the
	// in-situ interface (sampling on the simulation side, §IV-B).
	SamplingRatio float64
	// SamplingMethod selects the point-sampling strategy.
	SamplingMethod sampling.Method
	// Seed drives sampling determinism.
	Seed int64
	// Codec names the wire codec for the in-situ interface ("raw",
	// "flate", "delta", "delta+flate"; "" is raw) — the compression lever
	// of the paper's introduction, traded against CPU. The temporal
	// codecs key frames against the previous step and are resynchronized
	// with a keyframe on every fresh connection.
	Codec string
	// Journal, when set, receives one event per dataset fetch, sampling
	// decision, wire transfer, and error.
	Journal *journal.Writer
}

// SimProxy is one simulation-proxy rank.
type SimProxy struct {
	cfg   SimConfig
	codec transport.CodecID
	src   StepSource
	// piecer cuts this rank's piece out of each step, into the arrays of
	// the previous step's piece, and sampler thins a cloud piece into the
	// cloud it sampled the previous step into.
	piecer  data.Piecer
	sampler sampling.Sampler
	// stop, when set, drains the serve loop at the next step boundary
	// (graceful shutdown: the in-flight step completes and is acked).
	stop <-chan struct{}
	// Steering state. wire (under wmu, written by the connection's
	// control-frame handler) buffers steering forwarded by the
	// visualization proxy until the next step boundary; wireSeq gates its
	// application. wireField likewise buffers the field request
	// (RequestField).
	wmu       sync.Mutex
	wire      hub.State
	wireSeq   uint64
	wireField string
	// field is the one field the visualization proxy reads ("" sends
	// every field), applied at a step boundary and cleared by every new
	// connection. A grid that has it is sent as view, which
	// shares that field's values and carries no other; a cloud as
	// cloudView, which shares its positions and that field's values and
	// carries no IDs or velocities. fieldLogged says the connection's
	// journal event is written.
	field       string
	view        data.StructuredGrid
	cloudView   data.PointCloud
	viewField   [1]data.Field
	fieldLogged bool
}

// SetStop installs a drain channel: when it fires, ServeFrom finishes
// the step it is on and returns an ErrStopped-wrapped error instead of
// starting the next step. Typically wired to a context's Done channel.
func (s *SimProxy) SetStop(ch <-chan struct{}) { s.stop = ch }

// NewSimProxy creates a simulation proxy over the given source.
func NewSimProxy(cfg SimConfig, src StepSource) (*SimProxy, error) {
	if src == nil {
		return nil, fmt.Errorf("proxy: nil step source")
	}
	if cfg.Ranks < 0 || (cfg.Ranks > 0 && (cfg.Rank < 0 || cfg.Rank >= cfg.Ranks)) {
		return nil, fmt.Errorf("proxy: rank %d outside [0, %d)", cfg.Rank, cfg.Ranks)
	}
	if cfg.SamplingRatio == 0 {
		cfg.SamplingRatio = 1
	}
	if cfg.SamplingRatio < 0 || cfg.SamplingRatio > 1 {
		return nil, fmt.Errorf("proxy: sampling ratio %v outside (0, 1]", cfg.SamplingRatio)
	}
	codec, err := transport.ParseCodec(cfg.Codec)
	if err != nil {
		return nil, err
	}
	return &SimProxy{cfg: cfg, codec: codec, src: src}, nil
}

// Codec reports the wire codec this proxy stamps on every connection it
// serves.
func (s *SimProxy) Codec() transport.CodecID { return s.codec }

// Steps returns the number of time steps this proxy will serve.
func (s *SimProxy) Steps() int { return s.src.Steps() }

// StepData prepares the dataset this rank presents to the in-situ
// interface for step i: the rank's spatial piece, spatially sampled. The
// fetch is journaled under the generate phase, partition + sampling under
// the sample phase. The returned dataset is valid until the next StepData
// on this proxy: the proxy owns the piece and the sample and refills them
// in place every step, and a refilled cloud's Generation advances, so a
// cache keyed by the cloud sees a new step. A caller that keeps a step's
// data longer must copy it.
func (s *SimProxy) StepData(i int) (_ data.Dataset, err error) {
	defer containPanic(s.cfg.Journal, s.cfg.Rank, i, "sim", &err)
	// Tight-coupling drivers call StepData directly; ServeFrom already
	// applied steering for this step, in which case this is a no-op.
	s.applySteering(i, nil)
	t0 := time.Now()
	ds, err := s.src.Step(i)
	if err != nil {
		s.cfg.Journal.Error(s.cfg.Rank, i, err)
		return nil, err
	}
	genDur := time.Since(t0)
	s.cfg.Journal.Emit(journal.Event{
		Type: journal.TypeDataset, Phase: journal.PhaseGenerate,
		Rank: s.cfg.Rank, Step: i, DurNS: int64(genDur),
		Elements: ds.Count(), Bytes: ds.Bytes(),
	})

	t1 := time.Now()
	before := ds.Count()
	ds = s.narrow(ds, i)
	if s.cfg.Ranks > 1 {
		if ds = s.piecer.Piece(ds, s.cfg.Ranks, s.cfg.Rank); ds == nil {
			err := fmt.Errorf("proxy: a %d-way partition has no piece for rank %d", s.cfg.Ranks, s.cfg.Rank)
			s.cfg.Journal.Error(s.cfg.Rank, i, err)
			return nil, err
		}
	}
	sampled, err := s.sample(ds)
	if err != nil {
		s.cfg.Journal.Error(s.cfg.Rank, i, err)
		return nil, err
	}
	sampleDur := time.Since(t1)
	if s.cfg.Journal != nil {
		s.cfg.Journal.Emit(journal.Event{
			Type: journal.TypeSample, Phase: journal.PhaseSample,
			Rank: s.cfg.Rank, Step: i, DurNS: int64(sampleDur),
			Elements: sampled.Count(),
			Detail: fmt.Sprintf("method=%v ratio=%g kept=%d/%d",
				s.cfg.SamplingMethod, s.cfg.SamplingRatio, sampled.Count(), before),
		})
	}
	return sampled, nil
}

// RequestField asks for only the named field, the one the visualization
// proxy's renderer reads, from the next step boundary on: StepData then
// narrows every dataset that has it to that field (see narrow). An empty
// name asks for nothing. The socket connection's control handler calls
// it with the request the visualization proxy sends, and the unified
// coupling calls it with the same request in process. A new connection
// drops the request until its own arrives.
func (s *SimProxy) RequestField(name string) {
	s.wmu.Lock()
	s.wireField = name
	s.wmu.Unlock()
}

// applySteering folds steering forwarded by the visualization proxy
// (sampling ratio, wire codec) and its field request into the proxy at a
// step boundary. Steering is seq-gated so each update applies exactly
// once; every effective change is journaled, making a steered run
// replayable from its journal.
func (s *SimProxy) applySteering(step int, conn *transport.Conn) {
	var pend hub.State
	s.wmu.Lock()
	if s.wire.Seq > s.wireSeq {
		s.wireSeq = s.wire.Seq
		pend = s.wire
	}
	if s.wireField != "" {
		s.field, s.wireField = s.wireField, ""
	}
	s.wmu.Unlock()
	if pend.HasRatio && pend.Ratio != s.cfg.SamplingRatio {
		s.cfg.SamplingRatio = pend.Ratio
		s.cfg.Journal.Emit(journal.Event{
			Type: journal.TypeSteer, Rank: s.cfg.Rank, Step: step,
			Detail: fmt.Sprintf("sim applied step=%d ratio=%g", step, pend.Ratio),
		})
	}
	if pend.HasCodec && pend.Codec != s.codec {
		s.codec = pend.Codec
		if conn != nil {
			conn.SetCodec(pend.Codec)
		}
		s.cfg.Journal.Emit(journal.Event{
			Type: journal.TypeSteer, Rank: s.cfg.Rank, Step: step,
			Detail: fmt.Sprintf("sim applied step=%d codec=%s", step, pend.Codec),
		})
	}
}

// narrow returns ds carrying only what the connection's visualization
// proxy renders, without a copy: a structured grid that has the requested
// field becomes the proxy's view of that field, and a cloud that has it
// the proxy's view of its positions and that field. Anything else — a
// dataset lacking the field, which then fails as it would whole, or an
// unstructured grid — passes whole. The first dataset it meets on a
// connection journals what was kept and which cloud arrays were dropped.
func (s *SimProxy) narrow(ds data.Dataset, step int) data.Dataset {
	if s.field == "" {
		return ds
	}
	out := ds
	dropped := ""
	switch d := ds.(type) {
	case *data.StructuredGrid:
		if f, err := d.Field(s.field); err == nil {
			s.view = *d
			s.viewField[0] = *f
			s.view.Fields = s.viewField[:]
			out = &s.view
		}
	case *data.PointCloud:
		if f, err := d.Field(s.field); err == nil {
			v := &s.cloudView
			v.X, v.Y, v.Z = d.X, d.Y, d.Z
			s.viewField[0] = *f
			v.Fields = s.viewField[:]
			// Positions change from step to step under the one view, and
			// the piecer and the stratified sampler read its bounds.
			v.InvalidateBounds()
			out = v
			dropped = droppedArrays(d)
		}
	}
	if !s.fieldLogged {
		s.fieldLogged = true
		s.cfg.Journal.Emit(journal.Event{
			Type: journal.TypeSample, Rank: s.cfg.Rank, Step: step,
			Detail: fmt.Sprintf("sim applied step=%d fields=%s kept=%d/%d%s",
				step, s.field, fieldCount(out), fieldCount(ds), dropped),
		})
	}
	return out
}

// droppedArrays names the optional arrays of p a narrowed cloud leaves
// out, as a journal detail suffix.
func droppedArrays(p *data.PointCloud) string {
	switch {
	case len(p.IDs) != 0 && p.HasVelocities():
		return " dropped=ids,velocities"
	case len(p.IDs) != 0:
		return " dropped=ids"
	case p.HasVelocities():
		return " dropped=velocities"
	}
	return ""
}

// fieldCount reports how many named fields ds carries.
func fieldCount(ds data.Dataset) int {
	switch d := ds.(type) {
	case *data.StructuredGrid:
		return len(d.Fields)
	case *data.PointCloud:
		return len(d.Fields)
	case *data.UnstructuredGrid:
		return len(d.Fields)
	}
	return 0
}

// sample thins a dataset of either kind; a cloud is sampled into the
// proxy's own sample.
func (s *SimProxy) sample(ds data.Dataset) (data.Dataset, error) {
	ratio := s.cfg.SamplingRatio
	if ratio >= 1 {
		return ds, nil
	}
	switch d := ds.(type) {
	case *data.PointCloud:
		return s.sampler.Points(d, ratio, s.cfg.SamplingMethod, s.cfg.Seed)
	case *data.StructuredGrid:
		return sampling.Grid(d, ratio)
	default:
		return nil, fmt.Errorf("proxy: cannot sample dataset kind %v", ds.Kind())
	}
}

// ServeFrom runs the paper's §III-C simulation-proxy protocol over an
// established connection from step from on: send each step's dataset,
// wait for the visualization proxy's ack, then signal completion. A fresh
// stream starts at step 0; a reconnect resumes at the step it returned.
// It returns next, the first step that was NOT acknowledged
// (next == Steps() means the stream completed and Done was sent), along
// with the bytes sent over this connection. A degradation-policy driver
// reconnects and calls ServeFrom(conn2, next) to resume without
// duplicating or skipping a step; the wire step in each dataset frame
// lets the receiver detect any step it already rendered.
func (s *SimProxy) ServeFrom(conn *transport.Conn, from int) (next int, bytes int64, err error) {
	conn.SetCodec(s.codec)
	conn.Journal = s.cfg.Journal
	conn.Rank = s.cfg.Rank
	// A field request belongs to the connection it came on: a new one
	// sends every field until its own request applies.
	s.RequestField("")
	s.field, s.fieldLogged = "", false
	// Steering and the field request forwarded by the visualization proxy
	// arrive as control frames on this connection (processed inside Recv
	// while waiting for acks); buffer them for the next step boundary.
	conn.OnControl(func(p []byte) error {
		m, err := hub.DecodeMsg(p)
		if err != nil {
			s.cfg.Journal.Error(s.cfg.Rank, -1, err)
			return err
		}
		switch m.Kind {
		case hub.KindSteer:
			s.wmu.Lock()
			s.wire.Merge(m)
			s.wmu.Unlock()
		case hub.KindField:
			s.RequestField(m.Field)
		default:
			return fmt.Errorf("proxy: unexpected control kind %d on sim connection", m.Kind)
		}
		return nil
	})
	next = from
	for step := from; step < s.Steps(); step++ {
		if s.stop != nil {
			select {
			case <-s.stop:
				return next, conn.BytesSent, fmt.Errorf("proxy: serve drained before step %d: %w", step, ErrStopped)
			default:
			}
		}
		s.applySteering(step, conn)
		conn.Step = step
		ds, err := s.StepData(step)
		if err != nil {
			return next, conn.BytesSent, fmt.Errorf("proxy: preparing step %d: %w", step, err)
		}
		if err := conn.SendDataset(ds); err != nil {
			s.cfg.Journal.Error(s.cfg.Rank, step, err)
			return next, conn.BytesSent, fmt.Errorf("proxy: sending step %d: %w", step, err)
		}
		typ, _, ackStep, err := conn.Recv()
		if err != nil {
			return next, conn.BytesSent, fmt.Errorf("proxy: waiting for ack %d: %w", step, err)
		}
		if typ != transport.MsgAck || ackStep != int64(step) {
			return next, conn.BytesSent, fmt.Errorf("proxy: expected ack for step %d, got type %d step %d", step, typ, ackStep)
		}
		next = step + 1
	}
	if err := conn.SendDone(); err != nil {
		return next, conn.BytesSent, err
	}
	return next, conn.BytesSent, nil
}
