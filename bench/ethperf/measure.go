package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

// goldenFrame is what a workload's seed-1 frames looked like when the
// benchmark was defined (golden.json, regenerated from the -json output
// of a default run and a -quick run: final_frame and epoch_sigs).
type goldenFrame struct {
	// Frames holds, per epoch a run can end on, the covered-pixel fraction
	// and the mean luminance of the frame that shows it. A window is whole
	// ping-pong periods, so every default-size run ends on one epoch and
	// every -quick run on another.
	Frames map[int]struct {
		Covered float64 `json:"covered"`
		Luma    float64 `json:"luma"`
	} `json:"frames"`
	// Sigs is hub.FrameSig of the published frame, per epoch.
	Sigs []string `json:"epoch_sigs"`
}

//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]goldenFrame {
	g := map[string]goldenFrame{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("ethperf: golden.json: " + err.Error())
	}
	return g
}()

// goldenTolerance is how far the final frame's coverage and luminance may
// sit from the recorded seed-1 values.
const goldenTolerance = 0.02

// snapshot is the process state at a window boundary.
type snapshot struct {
	t      time.Time
	cpu    time.Duration
	mem    runtime.MemStats
	ctr    telemetry.Snapshot
	events int
}

// rusage returns the process's user + system CPU time and its peak RSS
// in MiB (Linux reports ru_maxrss in KiB).
func rusage() (cpu time.Duration, peakRSSMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024
}

// startGate parks every rank at its first measured step until all have
// arrived. The last one in runs fn (the window-start snapshot) while the
// others wait: each rank's previous step is acknowledged by then, so its
// visualization side sits in Recv and nothing of the pipeline is running.
type startGate struct {
	mu      sync.Mutex
	waiting int
	ranks   int
	fn      func()
	open    chan struct{}
}

func newStartGate(ranks int, fn func()) *startGate {
	return &startGate{ranks: ranks, fn: fn, open: make(chan struct{})}
}

func (g *startGate) arrive() {
	g.mu.Lock()
	g.waiting++
	last := g.waiting == g.ranks
	g.mu.Unlock()
	if last {
		g.fn()
		close(g.open)
		return
	}
	select {
	case <-g.open:
	case <-time.After(stallTimeout): // a rank died in warm-up; the checks say so
	}
}

// windowStart quiesces, then reads the counters first and the clock
// last, so the snapshot's own cost stays outside the window. It runs
// while every rank is parked at the start gate, so no rank's work
// straddles it. The collection puts every run's window at the same point
// of the collector's cycle: without it the heap's growth over the window,
// and with it the peak RSS, depends on where set-up happened to leave it.
func (pl *pipeline) windowStart() (snapshot, error) {
	var s snapshot
	err := pl.quiesce()
	runtime.GC()
	s.ctr = telemetry.Default.Snapshot()
	s.events = pl.jw.Len()
	runtime.ReadMemStats(&s.mem)
	s.cpu, _ = rusage()
	s.t = time.Now()
	return s, err
}

// windowEnd reads the clock first and the counters last.
func (pl *pipeline) windowEnd() (snapshot, error) {
	var s snapshot
	s.t = time.Now()
	s.cpu, _ = rusage()
	runtime.ReadMemStats(&s.mem)
	err := pl.quiesce()
	s.ctr = telemetry.Default.Snapshot()
	s.events = pl.jw.Len()
	return s, err
}

// frameStats describes a frame for the non-blank check.
type frameStats struct {
	Covered float64 `json:"covered"`
	Luma    float64 `json:"luma"`
	Sig     string  `json:"sig"`
	Epoch   int     `json:"epoch"`
}

func statsOf(f *fb.Frame, epoch int) frameStats {
	var luma float64
	for _, c := range f.Color {
		luma += 0.2126*c.X + 0.7152*c.Y + 0.0722*c.Z
	}
	n := float64(f.W * f.H)
	return frameStats{
		Covered: float64(f.CoveredPixels()) / n,
		Luma:    luma / n,
		Sig:     fmt.Sprintf("%08x", hub.FrameSig(f)),
		Epoch:   epoch,
	}
}

// passResult is everything one pass over one workload produced.
type passResult struct {
	E2E   map[string]float64
	Layer map[string]float64
	// Raw holds the timings of E2E as the clock read them, before they
	// were scaled to the quiet machine, and the reference kernel's median
	// time over the window (reference_ms).
	Raw       map[string]float64
	Attempted int
	Failed    int
	Failures  []string
	Final     frameStats
	// EpochSigs is the signature of the last frame published for each
	// epoch ("" when the run never reached it).
	EpochSigs   []string
	GoldenMatch string
	spans       []span
}

func (r *passResult) fail(n int, format string, args ...any) {
	r.Failed += n
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// runPass assembles the pipeline over the generated epochs, runs warm-up
// and measured steps, checks the outputs and reduces the measurements.
// With traced set it runs the benchmark's own span-recording driver and
// fills the ledger; otherwise it runs coupling.RunPairs. t0 is when
// set-up (dataset generation) began.
func runPass(w workload, seed int64, sz sizes, epochs []data.Dataset, t0 time.Time, scratch string, traced bool) (*passResult, error) {
	var tr *tracer
	if traced {
		tr = &tracer{}
	}
	pl, err := buildPipeline(w, sz, epochs, scratch, tr)
	if err != nil {
		return nil, err
	}
	defer pl.close()

	var begin snapshot
	var beginErr error
	gate := newStartGate(w.Ranks, func() { begin, beginErr = pl.windowStart() })
	ref, bd := newReference(), newBoundaries(sz.total())
	for r, src := range pl.sources {
		src.onStep = func(step int) {
			if r == 0 {
				bd.cpuAsked[step], _ = rusage()
			}
			if step == sz.Warm {
				gate.arrive()
			}
			if r == 0 {
				bd.ref[step] = ref.run()
				bd.cpuCalls[step], _ = rusage()
			}
		}
	}
	runErr := pl.run()
	end, endErr := pl.windowEnd()
	bd.ref[sz.total()], bd.cpuAsked[sz.total()] = ref.run(), end.cpu
	finErr := pl.finish()

	res := &passResult{E2E: map[string]float64{}, Raw: map[string]float64{}, Layer: map[string]float64{}}
	for _, err := range []error{runErr, beginErr, endErr, finErr} {
		if err != nil {
			res.fail(1, "%v", err)
		}
	}
	if begin.t.IsZero() {
		// The run died during warm-up: nothing to reduce.
		res.Attempted = sz.total() * (w.Ranks + w.Viewers)
		res.Failed = res.Attempted
		return res, nil
	}
	pl.check(res, seed, begin, end)
	speeds := bd.speeds()
	periods := pl.endToEnd(res, t0, begin, end, bd, speeds)
	pl.counts(res.Layer, epochs, begin, end)
	if traced {
		pl.reduceLedger(res, periods, speeds, end.t)
		res.spans = tr.spans
	}
	return res, nil
}

// period is rank r's step period for step i in ms: from the moment its
// source handed out step i to its asking for step i+1 (the previous step
// fully acknowledged), or to end for the last step; 0 if the step never
// ran. The benchmark's own work at the boundary lies between the two and
// belongs to neither step.
func (pl *pipeline) period(r, i int, end time.Time) float64 {
	src := pl.sources[r]
	next := end
	if i+1 < len(src.asked) {
		next = src.asked[i+1]
	}
	if src.calls[i].IsZero() || !next.After(src.calls[i]) {
		return 0
	}
	return ms(next.Sub(src.calls[i]))
}

// endToEnd reduces the pass to the end-to-end metrics and returns the
// measured step periods in ms. Each step's timings are scaled to the quiet
// machine by the step's speed (reference.go) before they are reduced;
// res.Raw keeps the same reductions of the unscaled readings. The two
// counts and the peak RSS are what they are.
func (pl *pipeline) endToEnd(res *passResult, t0 time.Time, begin, end snapshot, bd *boundaries, speeds []float64) []float64 {
	w, sz := pl.w, pl.sz
	src := pl.sources[0]
	images := 1
	if w.Ranks == 1 {
		images = w.Images
	}
	reduce := func(e map[string]float64, speed func(step int) float64) []float64 {
		var period, toViewer []float64
		var wall, cpu float64
		for i := sz.Warm; i < sz.total(); i++ {
			p := pl.period(0, i, end.t)
			if p == 0 {
				continue // never ran; the checks count it as failed
			}
			period = append(period, p*speed(i))
			wall += p * speed(i)
			cpu += ms(bd.cpuAsked[i+1]-bd.cpuCalls[i]) * speed(i)
			// A step reaches "the viewer" when the last viewer has it; a step
			// some viewer never got has no latency and is counted as failed.
			var last time.Time
			for _, v := range pl.viewers {
				if v.decoded[i].IsZero() {
					last = time.Time{}
					break
				}
				if v.decoded[i].After(last) {
					last = v.decoded[i]
				}
			}
			if !last.IsZero() {
				toViewer = append(toViewer, ms(last.Sub(src.calls[i]))*speed(i))
			}
		}
		// Set-up: generation and assembly as the clock read them (the
		// generators are arithmetic-bound; the kernel does not track them),
		// then the warm-up steps, each scaled like a measured one.
		setup := ms(src.asked[0].Sub(t0))
		for i := 0; i < sz.Warm; i++ {
			setup += pl.period(0, i, end.t) * speed(i)
		}
		steps := float64(len(period))
		e["frames_per_s"] = steps * float64(images) / (wall / 1000)
		e["step_ms_p50"] = percentile(period, 50)
		e["step_ms_p90"] = percentile(period, 90)
		e["step_to_viewer_ms_p50"] = percentile(toViewer, 50)
		e["step_to_viewer_ms_p90"] = percentile(toViewer, 90)
		e["cpu_ms_per_step"] = cpu / steps
		e["setup_s"] = setup / 1000
		return period
	}
	periods := reduce(res.E2E, func(i int) float64 { return speeds[i] })
	reduce(res.Raw, func(int) float64 { return 1 })
	res.Raw["reference_ms"] = median(nonZero(bd.ref[sz.Warm:]))
	steps := float64(sz.Measured)
	delta := end.ctr.Delta(begin.ctr)
	res.E2E["alloc_kb_per_step"] = float64(end.mem.TotalAlloc-begin.mem.TotalAlloc) / 1024 / steps
	_, res.E2E["peak_rss_mb"] = rusage()
	res.E2E["wire_kb_per_step"] = float64(delta["transport.bytes_sent"]) / 1024 / steps
	return periods
}

// counts fills the exact per-step counts from return values and the
// telemetry delta between the two (quiescent) window boundaries.
func (pl *pipeline) counts(l map[string]float64, epochs []data.Dataset, begin, end snapshot) {
	w, sz := pl.w, pl.sz
	steps := float64(sz.Measured)
	var elemsIn, elemsOut, prims, hubBytes float64
	for i := sz.Warm; i < sz.total(); i++ {
		elemsIn += float64(epochs[pingpong(i, len(epochs))].Count())
		for _, viz := range pl.vizs {
			if i < len(viz.Results) {
				elemsOut += float64(viz.Results[i].Elements)
				prims += float64(viz.Results[i].Primitives)
			}
		}
	}
	for _, v := range pl.viewers {
		hubBytes += float64(v.bytes[sz.total()-1] - v.bytes[sz.Warm-1])
	}
	// The transport counters cover every connection; what the viewers
	// received is the hub's share, the rest crossed sim→viz.
	delta := end.ctr.Delta(begin.ctr)
	hubFrames := steps * float64(w.Viewers)
	hubPlain := hubFrames * float64(framePlainBytes(pl.pub.final))
	simPlain := float64(delta["transport.bytes_plain"]) - hubPlain
	simWire := float64(delta["transport.bytes_sent"]) - hubBytes
	l["proxy.elements_in"] = elemsIn / steps
	l["proxy.elements_sampled"] = elemsOut / steps
	l["transport.plain_kb"] = simPlain / 1024 / steps
	l["transport.wire_kb"] = simWire / 1024 / steps
	if simWire > 0 {
		l["transport.ratio"] = simPlain / simWire
	}
	l["transport.keyframes"] = float64(delta["transport.keyframes"]) / steps
	l["transport.messages"] = float64(delta["transport.messages"]) / steps
	l["hub.published"] = float64(delta["hub.frames_published"]) / steps
	l["hub.delivered"] = float64(delta["hub.frames_fanout"]) / steps
	l["hub.dropped"] = float64(delta["hub.frames_dropped"]) / steps
	l["hub.wire_kb_per_frame"] = hubBytes / 1024 / hubFrames
	l["render.primitives_per_image"] = prims / (steps * float64(w.Images))
	l["compositing.kb_moved"] = float64(delta["compositing.bytes"]) / 1024 / steps
	l["compositing.rounds"] = float64(pl.pub.compStats.Rounds)
	l["journal.events_per_step"] = float64(end.events-begin.events) / steps
	l["gc.cycles_per_step"] = float64(end.mem.NumGC-begin.mem.NumGC) / steps
	l["gc.pause_ms_per_step"] = float64(end.mem.PauseTotalNs-begin.mem.PauseTotalNs) / 1e6 / steps
	for _, name := range failureCounters {
		l[name] = float64(delta[name])
	}
}

// framePlainBytes is the vtkio size of a frame's wire form: what the hub
// adds to transport.bytes_plain per frame and viewer.
func framePlainBytes(f *fb.Frame) int {
	if f == nil {
		return 0
	}
	var buf bytes.Buffer
	if err := vtkio.Write(&buf, hub.FrameGrid(f, nil)); err != nil {
		return 0
	}
	return buf.Len()
}

// reduceLedger turns the traced spans into the ledger rows: the median
// over measured steps of each row, scaled to the quiet machine like the
// periods they add up to. ledger.unaccounted_ms is what is left
// of the median period, so the printed rows add up to it exactly;
// ledger.coverage_pct is the median over steps of the share of the
// step — the chosen rank's own period for it — that its rows cover, which
// holds even where steps differ a lot in cost and medians of parts do not
// add up to the median of the whole.
func (pl *pipeline) reduceLedger(res *passResult, periods, speeds []float64, end time.Time) {
	l, sz := res.Layer, pl.sz
	perStep := pl.ledger(speeds)
	row := func(name string) float64 {
		vals := make([]float64, len(perStep))
		for i, m := range perStep {
			vals[i] = m[name]
		}
		return median(vals)
	}
	var sum float64
	for _, name := range ledgerRows {
		l[name+"_ms"] = row(name)
		sum += l[name+"_ms"]
	}
	l["proxy.viz_wait_ms"] = row("proxy.viz_wait")
	l["ledger.unaccounted_ms"] = median(periods) - sum
	var cover []float64
	for i, m := range perStep {
		step := sz.Warm + i
		period := pl.period(pl.pub.first[step], step, end) * speeds[step]
		if period == 0 {
			continue
		}
		var rows float64
		for _, name := range ledgerRows {
			rows += m[name]
		}
		cover = append(cover, 100*rows/period)
	}
	l["ledger.coverage_pct"] = median(cover)
	var deliver, decode []float64
	for _, v := range pl.viewers {
		for i := sz.Warm; i < sz.total(); i++ {
			if !v.decoded[i].IsZero() {
				deliver = append(deliver, ms(v.decoded[i].Sub(pl.pub.published[i]))*speeds[i])
				decode = append(decode, ms(v.decode[i])*speeds[i])
			}
		}
	}
	l["hub.deliver_ms_p50"] = percentile(deliver, 50)
	l["hub.deliver_ms_p90"] = percentile(deliver, 90)
	l["hub.viewer_decode_ms"] = median(decode)
}

// check runs the output checks; every failed or missing operation adds
// to res.Failed.
func (pl *pipeline) check(res *passResult, seed int64, begin, end snapshot) {
	w, total := pl.w, pl.sz.total()
	res.Attempted = total * (w.Ranks + w.Viewers)

	// Every rank acked every step, and rendered it.
	for r := 0; r < w.Ranks; r++ {
		if miss := total - pl.acked[r]; miss > 0 {
			res.fail(miss, "rank %d: %d of %d steps acked", r, pl.acked[r], total)
		}
		if got := len(pl.vizs[r].Results); got != total {
			res.fail(1, "rank %d: %d of %d steps rendered", r, got, total)
		}
	}

	// The journal holds no error, retry or skip.
	events := pl.jw.Events()
	for _, ev := range journal.Errors(events) {
		res.fail(1, "journal error event: rank %d step %d: %s", ev.Rank, ev.Step, ev.Err)
	}
	byType := journal.CountByType(events)
	for _, typ := range []string{journal.TypeRetry, journal.TypeSkip, journal.TypeOverflow} {
		if n := byType[typ]; n > 0 {
			res.fail(n, "journal holds %d %s events", n, typ)
		}
	}

	// Every failure counter is 0 over the window.
	delta := end.ctr.Delta(begin.ctr)
	for _, name := range failureCounters {
		if n := delta[name]; n != 0 {
			res.fail(int(n), "%s = %d", name, n)
		}
	}

	// Per viewer: delivered + dropped == published with dropped == 0, no
	// disconnect before Done, and every decoded frame is the published one.
	published := int(pl.hub.Published())
	if published != total {
		res.fail(1, "hub published %d of %d frames", published, total)
	}
	for i, v := range pl.viewers {
		if v.err != nil {
			res.fail(1, "viewer %d: %v", i, v.err)
		} else if !v.sawDone {
			res.fail(1, "viewer %d: stream ended without Done", i)
		}
		missing, wrong := 0, 0
		for step := 0; step < total; step++ {
			switch {
			case v.decoded[step].IsZero():
				missing++
			case v.sigs[step] != pl.pub.sigs[step]:
				wrong++
			}
		}
		if missing > 0 {
			res.fail(missing, "viewer %d: %d of %d frames missing (dropped or undelivered)", i, missing, published)
		}
		if wrong > 0 {
			res.fail(wrong, "viewer %d: %d frames differ from the published frame", i, wrong)
		}
	}

	// The final frame is non-blank and, for seed 1, looks as recorded.
	res.EpochSigs = make([]string, w.Epochs)
	for step := 0; step < total; step++ {
		res.EpochSigs[pingpong(step, w.Epochs)] = fmt.Sprintf("%08x", pl.pub.sigs[step])
	}
	res.GoldenMatch = "n/a"
	if pl.pub.final == nil {
		res.fail(1, "no final frame")
		return
	}
	res.Final = statsOf(pl.pub.final, pingpong(total-1, w.Epochs))
	if res.Final.Covered <= 0 || res.Final.Luma <= 0 {
		res.fail(1, "final frame is blank: covered %.4f, luminance %.4f", res.Final.Covered, res.Final.Luma)
	}
	g, ok := golden[w.Name]
	if !ok || seed != 1 {
		return
	}
	want, ok := g.Frames[res.Final.Epoch]
	switch {
	case !ok:
		res.fail(1, "final frame shows epoch %d, for which golden.json records nothing: regenerate it", res.Final.Epoch)
	case off(res.Final.Covered, want.Covered) > goldenTolerance || off(res.Final.Luma, want.Luma) > goldenTolerance:
		res.fail(1, "final frame: covered %.4f luminance %.4f, recorded %.4f and %.4f (±%.0f %%)",
			res.Final.Covered, res.Final.Luma, want.Covered, want.Luma, 100*goldenTolerance)
	}
	if res.Final.Epoch < len(g.Sigs) {
		res.GoldenMatch = fmt.Sprint(g.Sigs[res.Final.Epoch] == res.Final.Sig)
	}
}

// off is the relative distance of got from want.
func off(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}
