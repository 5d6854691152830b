package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ascr-ecx/eth/internal/compositing"
	"github.com/ascr-ecx/eth/internal/coupling"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/mempool"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/transport"
)

const (
	// helloTimeout works around a hub defect (bench/README.md, "Known
	// defects"): the hello read deadline stays armed after the hello, so
	// a silent viewer is cut off HelloTimeout after joining. It is set
	// above any run length; a viewer disconnect still counts as a failure.
	helloTimeout = time.Hour
	// stallTimeout bounds every wait on another goroutine's progress, so
	// a failed rank or viewer ends the run with an error, not a hang.
	stallTimeout = 60 * time.Second
)

// tracer collects spans in memory. A nil tracer records nothing, so the
// end-to-end pass runs the same code with tracing off.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, parent, rank, step int) int {
	if t == nil {
		return -1
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: now, parent: parent, rank: rank, step: step})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// viewer is one in-process hub subscriber: it does what cmd/ethwatch
// does per frame (Recv, GridFrame, FrameSig) and records when.
type viewer struct {
	conn     *transport.Conn
	received atomic.Int64
	done     chan struct{}

	// Written by the viewer goroutine, read after done is closed.
	decoded []time.Time     // step's frame received and decoded
	decode  []time.Duration // GridFrame time
	sigs    []uint32
	bytes   []int64 // conn.BytesReceived once the step's frame was in
	sawDone bool
	err     error
}

func (v *viewer) run() {
	defer close(v.done)
	defer func() {
		if p := recover(); p != nil {
			v.err = fmt.Errorf("ethperf: viewer panicked: %v", p)
		}
	}()
	var frame *fb.Frame
	for {
		typ, ds, step, err := v.conn.Recv()
		if err != nil {
			v.err = fmt.Errorf("ethperf: viewer receive: %w", err)
			return
		}
		if typ == transport.MsgDone {
			v.sawDone = true
			return
		}
		if typ != transport.MsgDataset || step < 0 || int(step) >= len(v.sigs) {
			v.err = fmt.Errorf("ethperf: viewer got message type %d step %d", typ, step)
			return
		}
		t1 := time.Now()
		if frame, err = hub.GridFrame(ds, frame); err != nil {
			v.err = fmt.Errorf("ethperf: viewer decoding step %d: %w", step, err)
			return
		}
		t2 := time.Now()
		v.decoded[step] = t2
		v.decode[step] = t2.Sub(t1)
		v.bytes[step] = v.conn.BytesReceived
		v.sigs[step] = hub.FrameSig(frame)
		v.received.Add(1)
	}
}

// publisher is the benchmark's proxy.FramePublisher. With one rank it
// forwards each frame to the hub; with several it is the per-step
// sort-last composite: a barrier across ranks, compositing.Composite
// over the rank frames in rank order, and one publish of the result.
type publisher struct {
	hub   *hub.Hub
	ranks int
	tr    *tracer

	mu      sync.Mutex
	cond    *sync.Cond
	frames  []*fb.Frame
	n       int
	gen     int
	aborted bool
	err     error

	// Per step, written under mu by the rank that publishes.
	sigs      []uint32
	published []time.Time // hub.PublishFrame returned
	first     []int       // rank that reached the barrier first
	last      stepTimes
	compStats compositing.Stats
	final     *fb.Frame // copy of the last frame handed to the hub
}

// stepTimes are the shared intervals of the step being published.
type stepTimes struct {
	lastArrive, compEnd, sigEnd, pubEnd time.Time
}

func newPublisher(h *hub.Hub, ranks, steps int, tr *tracer) *publisher {
	p := &publisher{
		hub: h, ranks: ranks, tr: tr,
		frames:    make([]*fb.Frame, ranks),
		sigs:      make([]uint32, steps),
		published: make([]time.Time, steps),
		first:     make([]int, steps),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *publisher) abort(err error) {
	p.mu.Lock()
	if !p.aborted {
		p.aborted = true
		p.err = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// rankPublisher is the handle one rank's VizProxy publishes through.
type rankPublisher struct {
	p    *publisher
	rank int
	// parent is the span of the RenderStep call in progress (traced pass).
	parent int
}

// PublishFrame implements proxy.FramePublisher.
func (rp *rankPublisher) PublishFrame(step int, f *fb.Frame) {
	p := rp.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.aborted || step < 0 || step >= len(p.sigs) {
		return
	}
	now := time.Now()
	p.frames[rp.rank] = f
	if p.n == 0 {
		p.first[step] = rp.rank
	}
	p.n++
	if p.n < p.ranks {
		gen := p.gen
		timer := time.AfterFunc(stallTimeout, func() {
			p.abort(fmt.Errorf("ethperf: rank %d waited %v at the step %d composite", rp.rank, stallTimeout, step))
		})
		for p.gen == gen && !p.aborted {
			p.cond.Wait()
		}
		timer.Stop()
		rp.record(step, now)
		return
	}
	p.last = stepTimes{lastArrive: now, compEnd: now}
	out := f
	if p.ranks > 1 {
		comp, stats, err := compositing.Composite(p.frames, compositing.DirectSend)
		if err != nil {
			p.aborted, p.err = true, fmt.Errorf("ethperf: compositing step %d: %w", step, err)
			p.cond.Broadcast()
			return
		}
		out, p.compStats = comp, stats
		p.last.compEnd = time.Now()
	}
	p.sigs[step] = hub.FrameSig(out)
	p.last.sigEnd = time.Now()
	p.hub.PublishFrame(step, out)
	p.last.pubEnd = time.Now()
	p.published[step] = p.last.pubEnd
	if step == len(p.sigs)-1 {
		p.final = fb.New(out.W, out.H)
		if err := p.final.CopyFrom(out); err != nil {
			p.err = err
		}
	}
	if p.ranks > 1 {
		mempool.ReleaseFrame(out)
	}
	p.n = 0
	p.gen++
	p.cond.Broadcast()
	rp.record(step, now)
}

// record writes this rank's view of the step's publish as child spans of
// its RenderStep span: every rank's timeline is occupied by the barrier,
// the composite and the publish, whichever rank ran them.
func (rp *rankPublisher) record(step int, arrive time.Time) {
	tr, t := rp.p.tr, rp.p.last
	if tr == nil || rp.p.aborted {
		return
	}
	add := func(name string, lo, hi time.Time) {
		if hi.After(lo) {
			tr.add(span{name: name, start: lo, end: hi, parent: rp.parent, rank: rp.rank, step: step})
		}
	}
	add("compositing.barrier_wait", arrive, t.lastArrive)
	add("compositing.composite", t.lastArrive, t.compEnd)
	add("bench.framesig", t.compEnd, t.sigEnd)
	add("hub.publish", t.sigEnd, t.pubEnd)
}

// pipeline is one assembled sim → viz → hub → viewers system.
type pipeline struct {
	w   workload
	sz  sizes
	jw  *journal.Writer
	dir string
	tr  *tracer

	hub       *hub.Hub
	hubCancel context.CancelFunc
	hubDone   chan error

	sources []*stepSource
	sims    []*proxy.SimProxy
	vizs    []*proxy.VizProxy
	rpubs   []*rankPublisher
	pub     *publisher
	viewers []*viewer

	// Traced pass only: per rank, per step.
	sendStart, sendEnd, recvStart, recvEnd, ackStart, ackEnd [][]time.Time

	// acked[r] is how many steps rank r's simulation proxy saw acked.
	acked []int
}

// buildPipeline assembles the proxies, hub, sockets and viewers over
// pre-generated epochs. scratch is a directory for the layout file.
func buildPipeline(w workload, sz sizes, epochs []data.Dataset, scratch string, tr *tracer) (*pipeline, error) {
	dir, err := os.MkdirTemp(scratch, ".ethperf-")
	if err != nil {
		return nil, fmt.Errorf("ethperf: scratch directory: %w", err)
	}
	pl := &pipeline{w: w, sz: sz, jw: journal.New(), dir: dir, tr: tr, acked: make([]int, w.Ranks)}
	steps := sz.total()

	pl.hub, err = hub.New(hub.Config{
		Addr: "127.0.0.1:0", MaxSubs: w.Viewers, Codec: w.HubCodec,
		HelloTimeout: helloTimeout, Journal: pl.jw,
	})
	if err != nil {
		pl.close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	pl.hubCancel = cancel
	pl.hubDone = make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				pl.hubDone <- fmt.Errorf("ethperf: hub serve panicked: %v", p)
			}
		}()
		pl.hubDone <- pl.hub.Serve(ctx)
	}()

	for i := 0; i < w.Viewers; i++ {
		conn, err := hub.DialSubscriber(pl.hub.Addr(), fmt.Sprintf("viewer%d", i), 0)
		if err != nil {
			pl.close()
			return nil, err
		}
		conn.SetDatasetReuse(true)
		v := &viewer{
			conn: conn, done: make(chan struct{}),
			decoded: make([]time.Time, steps), decode: make([]time.Duration, steps),
			sigs: make([]uint32, steps), bytes: make([]int64, steps),
		}
		pl.viewers = append(pl.viewers, v)
		go v.run()
	}
	// Frames published before a viewer is registered would only reach it
	// through the history ring; wait so every viewer is live from step 0.
	if err := waitFor(func() bool { return pl.hub.Subscribers() == w.Viewers }); err != nil {
		pl.close()
		return nil, fmt.Errorf("ethperf: viewers joining the hub: %w", err)
	}

	opts, err := renderOptions(epochs[0])
	if err != nil {
		pl.close()
		return nil, err
	}
	pl.pub = newPublisher(pl.hub, w.Ranks, steps, tr)
	for r := 0; r < w.Ranks; r++ {
		src := newStepSource(epochs, steps)
		src.tr, src.rank = tr, r
		sim, err := proxy.NewSimProxy(proxy.SimConfig{
			Rank: r, Ranks: w.Ranks,
			SamplingRatio: w.Ratio, SamplingMethod: w.Method, Seed: int64(r) + 1,
			Codec: w.SimCodec, Journal: pl.jw,
		}, src)
		if err != nil {
			pl.close()
			return nil, err
		}
		rp := &rankPublisher{p: pl.pub, rank: r, parent: -1}
		viz, err := proxy.NewVizProxy(proxy.VizConfig{
			Rank: r, Width: w.Size, Height: w.Size,
			Algorithm: w.Algorithm, Options: opts, ImagesPerStep: w.Images,
			Journal: pl.jw, Publisher: rp,
		})
		if err != nil {
			pl.close()
			return nil, err
		}
		pl.sources = append(pl.sources, src)
		pl.sims = append(pl.sims, sim)
		pl.vizs = append(pl.vizs, viz)
		pl.rpubs = append(pl.rpubs, rp)
	}
	return pl, nil
}

// renderOptions pins a grid's colour range to its first epoch's, as
// examples/asteroid does: every rank must colour alike, and an
// isosurface's own scalar range is a single value.
func renderOptions(first data.Dataset) (render.Options, error) {
	g, ok := first.(*data.StructuredGrid)
	if !ok {
		return render.Options{}, nil
	}
	f, err := g.Field("temperature")
	if err != nil {
		return render.Options{}, fmt.Errorf("ethperf: colour range: %w", err)
	}
	lo, hi := f.MinMax()
	return render.Options{ScalarLo: lo, ScalarHi: hi}, nil
}

// waitFor polls cond until it holds or stallTimeout passes.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(stallTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("ethperf: no progress in %v", stallTimeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// quiesce waits until every frame published so far has reached every
// viewer, so counter snapshots taken at a window boundary are exact.
func (pl *pipeline) quiesce() error {
	return waitFor(func() bool {
		want := pl.hub.Published()
		for _, v := range pl.viewers {
			select {
			case <-v.done:
				continue // a dead viewer is reported by the checks
			default:
			}
			if v.received.Load() < want {
				return false
			}
		}
		return true
	})
}

func (pl *pipeline) layout() string { return filepath.Join(pl.dir, "layout") }

// run drives every step: through coupling.RunPairs with tracing off, or
// through the benchmark's own span-recording driver with it on.
func (pl *pipeline) run() error {
	if pl.tr != nil {
		return pl.runTraced()
	}
	pairs := make([]coupling.PairSpec, len(pl.sims))
	for r := range pairs {
		pairs[r] = coupling.PairSpec{Sim: pl.sims[r], Viz: pl.vizs[r]}
	}
	reports, err := coupling.RunPairs(pairs, coupling.Socket, pl.layout(), pl.jw)
	for r, rep := range reports {
		pl.acked[r] = rep.Steps
	}
	if err == nil {
		err = pl.pub.err
	}
	return err
}

// finish ends the frame stream, waits for the viewers and stops the
// hub's accept loop.
func (pl *pipeline) finish() error {
	err := pl.hub.Close()
	for _, v := range pl.viewers {
		select {
		case <-v.done:
		case <-time.After(stallTimeout):
			v.conn.Close()
			<-v.done
			err = errors.Join(err, fmt.Errorf("ethperf: viewer did not finish in %v", stallTimeout))
		}
	}
	return errors.Join(err, pl.stopHub())
}

// stopHub ends Hub.Serve and returns what it returned. Idempotent.
func (pl *pipeline) stopHub() error {
	if pl.hubCancel == nil {
		return nil
	}
	pl.hubCancel()
	pl.hubCancel = nil
	return <-pl.hubDone
}

// close releases sockets, goroutines and the scratch directory; it is
// safe after finish and on a half-built pipeline.
func (pl *pipeline) close() {
	if pl.hub != nil {
		pl.hub.Close()
	}
	pl.stopHub()
	for _, v := range pl.viewers {
		v.conn.Close()
		<-v.done
	}
	os.RemoveAll(pl.dir)
}
