package proxy

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/ascr-ecx/eth/internal/camera"
	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/render"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/transport"
	"github.com/ascr-ecx/eth/internal/vec"
)

// Proxy telemetry: step and image counts, and each step's render time.
var (
	ctrSteps   = telemetry.Default.Counter("proxy.steps")
	ctrImages  = telemetry.Default.Counter("proxy.images")
	histRender = telemetry.Default.Histogram("viz.render")
)

// FramePublisher receives each completed step's final rendered frame
// for fan-out to live viewers (implemented by hub.Hub). Publishing must
// never block the render loop.
//
// The frame is lent, not given: it is the proxy's own buffer, which it
// renders the step after next into, so it is valid only until
// PublishFrame returns. A publisher that keeps the frame (or hands it
// to another goroutine) copies it first; hub.Hub converts it to its
// wire grid before returning. A publisher may overwrite the lent frame:
// a sort-last publisher composites the ranks' frames into rank 0's
// (compositing.Composite), and rank 0 renders into its other buffer
// next, clearing it first.
type FramePublisher interface {
	PublishFrame(step int, f *fb.Frame)
}

// VizConfig configures a visualization-proxy rank.
type VizConfig struct {
	// Rank identifies this proxy pair.
	Rank int
	// Width, Height are the framebuffer dimensions.
	Width, Height int
	// Algorithm names the rendering back-end (render registry).
	Algorithm string
	// Options carries rendering parameters.
	Options render.Options
	// ImagesPerStep is how many renders each step receives (the paper
	// renders hundreds of frames per step by varying camera/isovalue).
	ImagesPerStep int
	// OutDir, when non-empty, receives PNG artifacts named
	// step<NNN>_img<MMM>_rank<R>.png.
	OutDir string
	// Operations are additional in-situ analysis steps applied to every
	// received dataset after rendering (§III "easily configurable
	// visualization operations").
	Operations []Operation
	// Start is the first step to render: a restarted incarnation passes
	// journal.Cursor of its predecessor's journal, so it resumes at the
	// first unfinished step instead of replaying the run.
	Start int
	// Journal, when set, receives one event per render, analysis
	// operation, wire transfer, and error.
	Journal *journal.Writer
	// Publisher, when set, receives each step's final rendered frame
	// (the broadcast hub), lent for the duration of the call (see
	// FramePublisher). Publishing is non-blocking by contract.
	Publisher FramePublisher
	// Steering, when set, is consulted at every step boundary: camera
	// and isovalue steering is applied locally before rendering;
	// sampling-ratio and codec steering is forwarded upstream to the
	// simulation proxy over the control channel. Steering is applied
	// only between steps and journaled, so a run is replayable from its
	// journal.
	Steering hub.Source
}

// StepResult instruments one rendered time step.
type StepResult struct {
	Step     int
	Elements int
	Images   int
	// Render is the image-rendering time for the step (analysis
	// operations are timed separately in Analysis).
	Render time.Duration
	// Analysis is the time spent in configured analysis operations.
	Analysis   time.Duration
	Primitives int
	// Ops holds the results of the configured analysis operations.
	Ops []OpResult
}

// VizProxy is one visualization-proxy rank.
type VizProxy struct {
	cfg      VizConfig
	renderer render.Renderer
	// cur and last are the proxy's only two frames. Every image of a step
	// renders into cur (cleared between images); when the step succeeds
	// the two swap, so last holds the completed step's final image and a
	// failed step leaves it untouched. Neither the per-image nor the
	// per-step path allocates a framebuffer at steady state.
	cur, last *fb.Frame
	// next is the first step not yet rendered+acked; it persists across
	// Receive calls so a reconnected sender resuming at an earlier step is
	// recognized (the duplicate is re-acked without rendering). Atomic
	// because a supervisor's stall watchdog probes it from outside the
	// serving goroutine.
	next atomic.Int64
	// allowGaps permits the wire step to jump past next (a step the
	// degradation policy skipped on the sender side).
	allowGaps bool
	// imgHist and opHists are the per-algorithm/per-operation duration
	// histograms, resolved once at construction: both domains are closed
	// (render registry, compiled-in operations), and resolving here keeps
	// the per-step path off the registry's name-lookup lock.
	imgHist *telemetry.Histogram
	opHists []*telemetry.Histogram
	// Steering cursors: steerSeq gates local (camera/isovalue)
	// application, fwdSeq gates upstream forwarding, so each steering
	// update is applied and forwarded exactly once.
	steerSeq uint64
	fwdSeq   uint64
	hasCam   bool
	camOv    hub.View
	hasIso   bool
	isoOv    float32
	// ctrl is the reusable control-frame encode buffer.
	ctrl []byte
	// Results accumulates per-step instrumentation.
	Results []StepResult
}

// NewVizProxy creates a visualization proxy.
func NewVizProxy(cfg VizConfig) (*VizProxy, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("proxy: bad frame size %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.ImagesPerStep <= 0 {
		cfg.ImagesPerStep = 1
	}
	if cfg.Algorithm == "" {
		return nil, fmt.Errorf("proxy: no rendering algorithm configured")
	}
	r, err := render.New(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	v := &VizProxy{cfg: cfg, renderer: r}
	// Metric names are dotted snake_case: registry algorithm names carry
	// hyphens ("vtk-iso"), so they map to underscores here.
	v.imgHist = telemetry.Default.Histogram("viz.render." + strings.ReplaceAll(cfg.Algorithm, "-", "_"))
	for _, op := range cfg.Operations {
		v.opHists = append(v.opHists, telemetry.Default.Histogram("viz.op."+op.Name()))
	}
	v.next.Store(int64(max(cfg.Start, 0)))
	return v, nil
}

// RenderStep renders one received dataset: ImagesPerStep frames with the
// camera orbiting the data (matching the paper's many-images-per-step
// protocol) and, for isosurface algorithms, a sliding isovalue.
func (v *VizProxy) RenderStep(step int, ds data.Dataset) (res StepResult, err error) {
	defer containPanic(v.cfg.Journal, v.cfg.Rank, step, "viz", &err)
	v.applySteering(step)
	t0 := time.Now()
	res = StepResult{Step: step, Elements: ds.Count(), Images: v.cfg.ImagesPerStep}
	bounds := ds.Bounds()
	if v.cur == nil {
		v.cur = fb.New(v.cfg.Width, v.cfg.Height)
	}
	frame := v.cur
	for img := 0; img < v.cfg.ImagesPerStep; img++ {
		it0 := time.Now()
		cam := orbitCamera(bounds, img, v.cfg.ImagesPerStep)
		if v.hasCam {
			cam = steerCamera(bounds, v.camOv, img, v.cfg.ImagesPerStep)
		}
		opt := v.cfg.Options
		if v.hasIso {
			// Steered isovalue replaces both the configured value and the
			// sliding default for every image of the step.
			opt.IsoValue = v.isoOv
		}
		if opt.IsoValue == 0 && isoAlgorithms[v.cfg.Algorithm] {
			// Sliding isovalue over the sweep (§IV-A: "a varying
			// isovalue for 1000 images").
			opt.IsoValue = 0.25 + 0.5*float32(img)/float32(v.cfg.ImagesPerStep)
		}
		frame.Clear(vec.V3{})
		stats, err := v.renderer.Render(frame, ds, &cam, opt)
		if err != nil {
			err = fmt.Errorf("proxy: rendering step %d image %d: %w", step, img, err)
			v.cfg.Journal.Error(v.cfg.Rank, step, err)
			return res, err
		}
		res.Primitives += stats.Primitives
		if v.cfg.OutDir != "" {
			name := fmt.Sprintf("step%03d_img%03d_rank%d.png", step, img, v.cfg.Rank)
			if err := frame.SavePNG(filepath.Join(v.cfg.OutDir, name)); err != nil {
				v.cfg.Journal.Error(v.cfg.Rank, step, err)
				return res, err
			}
		}
		v.imgHist.ObserveDuration(time.Since(it0))
	}
	res.Render = time.Since(t0)
	histRender.ObserveDuration(res.Render)
	v.cfg.Journal.Emit(journal.Event{
		Type: journal.TypeRender, Phase: journal.PhaseRender,
		Rank: v.cfg.Rank, Step: step, DurNS: int64(res.Render),
		Elements: res.Elements,
		Detail:   fmt.Sprintf("algorithm=%s images=%d", v.cfg.Algorithm, res.Images),
	})

	// Run the configured analysis operations on the step's data, each
	// under its own duration histogram.
	for i, op := range v.cfg.Operations {
		ot0 := time.Now()
		opRes, err := op.Apply(OpContext{Step: step, Rank: v.cfg.Rank, OutDir: v.cfg.OutDir}, ds)
		if err != nil {
			err = fmt.Errorf("proxy: operation %s on step %d: %w", op.Name(), step, err)
			v.cfg.Journal.Error(v.cfg.Rank, step, err)
			return res, err
		}
		opDur := time.Since(ot0)
		res.Analysis += opDur
		v.opHists[i].ObserveDuration(opDur)
		v.cfg.Journal.Emit(journal.Event{
			Type: journal.TypeAnalysis, Phase: journal.PhaseAnalysis,
			Rank: v.cfg.Rank, Step: step, DurNS: int64(opDur),
			Bytes:  opRes.ExtractBytes,
			Detail: op.Name() + ": " + opRes.Summary,
		})
		res.Ops = append(res.Ops, opRes)
	}
	// The step is complete: its frame becomes last, lent to the publisher
	// without a copy, and the previous last becomes the next render target.
	v.cur, v.last = v.last, frame
	if v.cfg.Publisher != nil {
		v.cfg.Publisher.PublishFrame(step, frame)
	}
	v.Results = append(v.Results, res)
	ctrSteps.Inc()
	ctrImages.Add(int64(res.Images))
	// The step is complete: advance the cursor (RenderStep is also called
	// directly by the tight-coupling driver, which resumes from NextStep)
	// and checkpoint it in the journal, fsynced, so a restarted
	// incarnation skips this step — the crash-safety contract is "at most
	// the in-flight step is lost".
	if int64(step+1) > v.next.Load() {
		v.next.Store(int64(step + 1))
	}
	v.cfg.Journal.Emit(journal.Event{
		Type: journal.TypeCheckpoint, Rank: v.cfg.Rank, Step: step,
		Detail: fmt.Sprintf("cursor=%d", v.NextStep()),
	})
	// A failed sync costs a restart re-rendering from an earlier
	// checkpoint, not this step's result; the journal keeps the error.
	_ = v.cfg.Journal.Sync()
	return res, nil
}

// isoAlgorithms lists the renderers whose IsoValue slides across a
// multi-image step when unset (§IV-A: "a varying isovalue for 1000
// images").
var isoAlgorithms = map[string]bool{
	"vtk-iso": true,
	"ray-iso": true,
	"uns-iso": true,
}

// orbitCamera frames bounds from an azimuth that advances with the image
// index, so multi-image steps exercise distinct views deterministically.
func orbitCamera(bounds vec.AABB, img, total int) camera.Camera {
	c := bounds.Center()
	d := bounds.Diagonal()
	if d == 0 {
		d = 1
	}
	angle := 2 * math.Pi * float64(img) / float64(max(total, 1))
	dir := vec.New(math.Cos(angle), 0.5, math.Sin(angle)).Norm()
	cam := camera.LookAt(c.Add(dir.Scale(d*1.2)), c, vec.New(0, 1, 0))
	cam.FitClip(bounds)
	return cam
}

// applySteering folds any new steering state into the proxy's local
// overrides at a step boundary. Last writer wins; each update is
// applied exactly once (seq-gated) and journaled so the run can be
// replayed deterministically from its journal.
func (v *VizProxy) applySteering(step int) {
	if v.cfg.Steering == nil {
		return
	}
	st := v.cfg.Steering.Current(step)
	if st.Seq <= v.steerSeq {
		return
	}
	v.steerSeq = st.Seq
	v.hasCam, v.camOv = st.HasCam, st.Cam
	v.hasIso, v.isoOv = st.HasIso, st.Iso
	if !st.HasCam && !st.HasIso {
		return
	}
	detail := fmt.Sprintf("viz applied seq=%d", st.Seq)
	if st.HasCam {
		detail += fmt.Sprintf(" cam=%g,%g,%g", st.Cam.Az, st.Cam.El, st.Cam.Dist)
	}
	if st.HasIso {
		detail += fmt.Sprintf(" iso=%g", st.Iso)
	}
	v.cfg.Journal.Emit(journal.Event{
		Type: journal.TypeSteer, Rank: v.cfg.Rank, Step: step, Detail: detail,
	})
}

// forwardSteering sends any new simulation-side steering (sampling
// ratio, wire codec) upstream as a control frame. Called from the
// Receive loop between steps, so FIFO ordering pins the step at which
// the simulation proxy observes the change.
func (v *VizProxy) forwardSteering(conn *transport.Conn, step int) error {
	if v.cfg.Steering == nil {
		return nil
	}
	st := v.cfg.Steering.Current(step)
	if st.Seq <= v.fwdSeq {
		return nil
	}
	v.fwdSeq = st.Seq
	if !st.HasRatio && !st.HasCodec {
		return nil
	}
	m := hub.Msg{Kind: hub.KindSteer}
	if st.HasRatio {
		m.Axes |= hub.AxisRatio
		m.Ratio = st.Ratio
	}
	if st.HasCodec {
		m.Axes |= hub.AxisCodec
		m.Codec = st.Codec
	}
	p, err := hub.EncodeMsg(v.ctrl[:0], m)
	if err != nil {
		return fmt.Errorf("proxy: encoding steering forward: %w", err)
	}
	v.ctrl = p
	v.cfg.Journal.Emit(journal.Event{
		Type: journal.TypeSteer, Phase: journal.PhaseTransport,
		Rank: v.cfg.Rank, Step: step,
		Detail: fmt.Sprintf("forward seq=%d %s", st.Seq, m),
	})
	return conn.SendControl(p)
}

// Field names the field this proxy's renderer reads, which it asks the
// simulation proxy to send alone (SimProxy.RequestField), or "" to ask
// for nothing: analysis operations read other fields (save writes every
// one). The request is advisory: a lost one costs bytes, never pixels.
func (v *VizProxy) Field() string {
	if len(v.cfg.Operations) > 0 {
		return ""
	}
	return render.Field(v.renderer.Kind(), v.cfg.Options)
}

// requestField sends Field's request, if any, in one control frame.
func (v *VizProxy) requestField(conn *transport.Conn) error {
	field := v.Field()
	if field == "" {
		return nil
	}
	p, err := hub.EncodeMsg(v.ctrl[:0], hub.Msg{Kind: hub.KindField, Field: field})
	if err != nil {
		// A name no request can carry (over 255 bytes): ask for nothing,
		// so the renderer meets the whole dataset and fails as it would.
		return nil
	}
	v.ctrl = p
	return conn.SendControl(p)
}

// steerCamera frames bounds from a steered view: the subscriber's
// azimuth/elevation anchor the orbit (the per-image sweep still
// advances from that anchor) and Dist scales the bounds-diagonal
// standoff.
func steerCamera(bounds vec.AABB, view hub.View, img, total int) camera.Camera {
	c := bounds.Center()
	d := bounds.Diagonal()
	if d == 0 {
		d = 1
	}
	az := view.Az + 2*math.Pi*float64(img)/float64(max(total, 1))
	el := view.El
	dir := vec.New(math.Cos(az)*math.Cos(el), math.Sin(el), math.Sin(az)*math.Cos(el)).Norm()
	dist := view.Dist
	if dist <= 0 {
		dist = 1.2
	}
	cam := camera.LookAt(c.Add(dir.Scale(d*dist)), c, vec.New(0, 1, 0))
	cam.FitClip(bounds)
	return cam
}

// SetAllowGaps controls whether Receive tolerates the wire step jumping
// past the next expected step. The coupling degradation policy enables
// it when skipped steps are permitted; the default (false) treats a gap
// as a protocol error, guaranteeing no step is silently lost.
func (v *VizProxy) SetAllowGaps(on bool) { v.allowGaps = on }

// NextStep returns the first step not yet rendered and acknowledged.
// Safe to call from a watchdog goroutine while the proxy is serving.
func (v *VizProxy) NextStep() int { return int(v.next.Load()) }

// Receive runs the §III-C visualization-proxy protocol over an
// established connection: name the field the renderer reads (see
// Field), then receive datasets, render, ack, until done. The
// step counter persists across calls, so after a reconnect the same
// proxy resumes where it stopped: a re-sent step it already rendered
// (wire step behind the counter) is re-acked without rendering — the ack
// was lost, not the work — and a step ahead of the counter is either a
// policy-sanctioned skip (SetAllowGaps) or a protocol error.
func (v *VizProxy) Receive(conn *transport.Conn) error {
	conn.Journal = v.cfg.Journal
	conn.Rank = v.cfg.Rank
	// Each step is rendered and analyzed before the next Recv, and neither
	// the renderers nor the analysis operations retain the dataset, so the
	// connection can decode every step into the previous step's arrays.
	conn.SetDatasetReuse(true)
	if err := v.requestField(conn); err != nil {
		v.cfg.Journal.Error(v.cfg.Rank, v.NextStep(), err)
		return err
	}
	for {
		next := v.NextStep()
		if err := v.forwardSteering(conn, next); err != nil {
			v.cfg.Journal.Error(v.cfg.Rank, next, err)
			return err
		}
		conn.Step = next
		typ, ds, wireStep, err := conn.Recv()
		if err != nil {
			v.cfg.Journal.Error(v.cfg.Rank, next, err)
			return fmt.Errorf("proxy: receiving step %d: %w", next, err)
		}
		switch typ {
		case transport.MsgDone:
			return nil
		case transport.MsgDataset:
			step := int(wireStep)
			if step < next {
				// Duplicate of a step already rendered: the sender never saw
				// our ack (connection died in between). Re-ack, don't re-render.
				v.cfg.Journal.Emit(journal.Event{
					Type: journal.TypeResume, Phase: journal.PhaseTransport,
					Rank: v.cfg.Rank, Step: step,
					Detail: fmt.Sprintf("duplicate step %d re-acked, next=%d", step, next),
				})
				if err := conn.SendAck(wireStep); err != nil {
					return err
				}
				continue
			}
			if step > next {
				if !v.allowGaps {
					return fmt.Errorf("proxy: step gap: received %d, expected %d", step, next)
				}
				v.cfg.Journal.Emit(journal.Event{
					Type: journal.TypeResume, Phase: journal.PhaseTransport,
					Rank: v.cfg.Rank, Step: step,
					Detail: fmt.Sprintf("gap accepted: %d..%d skipped", next, step-1),
				})
			}
			// RenderStep advances the cursor on success.
			if _, err := v.RenderStep(step, ds); err != nil {
				return err
			}
			if err := conn.SendAck(wireStep); err != nil {
				return err
			}
		default:
			return fmt.Errorf("proxy: unexpected message type %d at step %d", typ, next)
		}
	}
}

// EnsureOutDir creates the artifact directory if configured.
func (v *VizProxy) EnsureOutDir() error {
	if v.cfg.OutDir == "" {
		return nil
	}
	return os.MkdirAll(v.cfg.OutDir, 0o755)
}

// LastFrame returns the final image of the last completed step, or nil
// before the first. It is the proxy's own buffer: the next RenderStep
// but one overwrites it, and a publisher that composites into it (see
// FramePublisher) leaves the composite there rather than this rank's
// image.
func (v *VizProxy) LastFrame() *fb.Frame { return v.last }

// TotalRenderTime sums render time across completed steps.
func (v *VizProxy) TotalRenderTime() time.Duration {
	var total time.Duration
	for _, r := range v.Results {
		total += r.Render
	}
	return total
}
