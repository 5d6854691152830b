// Subscriber chaos suite: the hub's correctness claims — a slow
// subscriber never perturbs the step cadence, a killed subscriber
// resumes from its cursor with byte-identical frames and a fresh
// keyframe, and a steered run replays deterministically — proven over
// real TCP sockets against the real proxy pipeline.
package hub_test

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fb"
	"github.com/ascr-ecx/eth/internal/hub"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/transport"
	"github.com/ascr-ecx/eth/internal/vec"
)

// chaosSource builds a deterministic time-varying scalar field: a
// gaussian blob orbiting the grid, so isosurfaces, sampling, and delta
// codecs all see genuine evolution.
func chaosSource(steps, n int) *proxy.MemSource {
	src := &proxy.MemSource{}
	for s := 0; s < steps; s++ {
		g := data.NewStructuredGrid(n, n, n)
		vals := make([]float32, n*n*n)
		cx := 0.5 + 0.3*math.Cos(float64(s)*0.7)
		cy := 0.5 + 0.3*math.Sin(float64(s)*0.7)
		i := 0
		for z := 0; z < n; z++ {
			for y := 0; y < n; y++ {
				for x := 0; x < n; x++ {
					dx := float64(x)/float64(n-1) - cx
					dy := float64(y)/float64(n-1) - cy
					dz := float64(z)/float64(n-1) - 0.5
					vals[i] = float32(math.Exp(-12 * (dx*dx + dy*dy + dz*dz)))
					i++
				}
			}
		}
		g.Fields = append(g.Fields, data.Field{Name: "temperature", Values: vals})
		src.Data = append(src.Data, g)
	}
	return src
}

// chaosViz builds a visualization proxy rendering the chaos source.
func chaosViz(t *testing.T, jw *journal.Writer, pub proxy.FramePublisher, steer hub.Source) *proxy.VizProxy {
	t.Helper()
	viz, err := proxy.NewVizProxy(proxy.VizConfig{
		Width: 48, Height: 36, Algorithm: "vtk-iso", ImagesPerStep: 2,
		Journal: jw, Publisher: pub, Steering: steer,
	})
	if err != nil {
		t.Fatal(err)
	}
	return viz
}

// runPipeline drives sim->viz step by step (the unified coupling shape)
// and returns the per-step frame signatures.
func runPipeline(t *testing.T, sim *proxy.SimProxy, viz *proxy.VizProxy) []uint32 {
	t.Helper()
	var sigs []uint32
	for i := 0; i < sim.Steps(); i++ {
		ds, err := sim.StepData(i)
		if err != nil {
			t.Fatal(err)
		}
		res, err := viz.RenderStep(i, ds)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, hub.FrameSig(res.LastFrame))
	}
	return sigs
}

// drainSub receives frames until Done (or maxFrames, if positive),
// returning steps and signatures.
func drainSub(t *testing.T, c *transport.Conn, maxFrames int) (steps []int64, sigs []uint32) {
	t.Helper()
	var f *fb.Frame
	for maxFrames <= 0 || len(steps) < maxFrames {
		typ, ds, step, err := c.Recv()
		if err != nil {
			t.Fatalf("subscriber recv after %d frames: %v", len(steps), err)
		}
		if typ == transport.MsgDone {
			break
		}
		var ferr error
		f, ferr = hub.GridFrame(ds, f)
		if ferr != nil {
			t.Fatal(ferr)
		}
		steps = append(steps, step)
		sigs = append(sigs, hub.FrameSig(f))
	}
	return steps, sigs
}

// TestHubChaosSlowSubscriber proves the isolation claim: a subscriber
// that never reads does not perturb the publisher's cadence or the
// rendered output, sheds frames via journaled drop-oldest overflow,
// and a healthy subscriber alongside it still receives every step
// byte-identical.
func TestHubChaosSlowSubscriber(t *testing.T) {
	const steps = 10
	// Bare run: no hub at all — the reference cadence and output.
	bareJW := journal.New()
	bareSim, err := proxy.NewSimProxy(proxy.SimConfig{Journal: bareJW}, chaosSource(steps, 12))
	if err != nil {
		t.Fatal(err)
	}
	bare := runPipeline(t, bareSim, chaosViz(t, bareJW, nil, nil))

	// Hub run: one draining subscriber, one stuck subscriber with a tiny
	// queue joining mid-run with a backlog it can never absorb.
	jw := journal.New()
	h, err := hub.New(hub.Config{
		Addr: "127.0.0.1:0", Queue: 4, History: 16,
		WriteTimeout: 500 * time.Millisecond, Journal: jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- h.Serve(context.Background()) }()

	healthy := dialHello(t, h.Addr(), "healthy", 0)
	defer healthy.Close()
	waitSubs(t, h, 1)
	type drained struct {
		steps []int64
		sigs  []uint32
	}
	healthyCh := make(chan drained, 1)
	go func() {
		s, g := drainSub(t, healthy, 0)
		healthyCh <- drained{s, g}
	}()

	sim, err := proxy.NewSimProxy(proxy.SimConfig{Journal: jw}, chaosSource(steps, 12))
	if err != nil {
		t.Fatal(err)
	}
	viz := chaosViz(t, jw, h, nil)
	var hubSigs []uint32
	for i := 0; i < steps; i++ {
		ds, err := sim.StepData(i)
		if err != nil {
			t.Fatal(err)
		}
		res, err := viz.RenderStep(i, ds)
		if err != nil {
			t.Fatal(err)
		}
		hubSigs = append(hubSigs, hub.FrameSig(res.LastFrame))
		if i == steps/2 {
			// Mid-run, a subscriber joins asking for the full backlog —
			// more than its queue can hold — and then never reads a byte.
			stuck := dialHello(t, h.Addr(), "stuck", 0)
			defer stuck.Close()
			waitSubs(t, h, 2)
		}
	}
	// The run completed with a wedged subscriber attached: PublishFrame
	// never blocked. Closing drains the healthy stream and times out the
	// stuck one.
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve: %v", err)
	}

	if len(hubSigs) != steps || len(bare) != steps {
		t.Fatalf("run lengths: hub %d, bare %d, want %d", len(hubSigs), len(bare), steps)
	}
	for i := range bare {
		if hubSigs[i] != bare[i] {
			t.Errorf("step %d: broadcasting changed the rendered frame (%08x vs %08x)", i, hubSigs[i], bare[i])
		}
	}
	stuckDrops, healthyDrops, joins := 0, 0, 0
	for _, ev := range jw.Events() {
		switch ev.Type {
		case journal.TypeOverflow:
			if strings.Contains(ev.Detail, "hub subscriber stuck") {
				stuckDrops += int(ev.Elements)
			}
			if strings.Contains(ev.Detail, "hub subscriber healthy") {
				healthyDrops += int(ev.Elements)
			}
		case journal.TypeSubscribe:
			if strings.HasPrefix(ev.Detail, "join") {
				joins++
			}
		}
	}
	// Conservation: every published frame either reached the healthy
	// subscriber or was journaled as dropped — nothing vanished silently.
	got := <-healthyCh
	if len(got.steps)+healthyDrops != steps {
		t.Fatalf("healthy subscriber: %d delivered + %d journaled drops != %d published",
			len(got.steps), healthyDrops, steps)
	}
	for i, s := range got.steps {
		if i > 0 && s <= got.steps[i-1] {
			t.Fatalf("healthy subscriber steps out of order: %v", got.steps)
		}
		if got.sigs[i] != bare[s] {
			t.Errorf("healthy subscriber step %d not byte-identical to the bare run", s)
		}
	}
	// The stuck subscriber joined with a backlog (6 retained frames) its
	// queue of 4 cannot hold: at least 2 drop-oldest overflows are
	// structurally guaranteed, independent of scheduling.
	if stuckDrops < 2 {
		t.Errorf("stuck subscriber shed %d frames, want >= 2 (catch-up overflow)", stuckDrops)
	}
	if joins != 2 {
		t.Errorf("journaled %d joins, want 2", joins)
	}
}

// TestHubChaosKillResume proves the resume claim: a subscriber killed
// mid-stream reconnects with its checkpointed cursor and receives every
// remaining step exactly once, byte-identical to an uninterrupted
// subscriber, with the temporal codec downgrading its first frame to a
// keyframe.
func TestHubChaosKillResume(t *testing.T) {
	const steps, killAfter = 10, 3
	jw := journal.New()
	h, err := hub.New(hub.Config{
		Addr: "127.0.0.1:0", Queue: 32, History: 32,
		Codec: transport.CodecDelta, Journal: jw,
	})
	if err != nil {
		t.Fatal(err)
	}
	go h.Serve(context.Background())
	defer h.Close()

	for i := 0; i < steps; i++ {
		h.PublishFrame(i, chaosFrame(i))
	}

	// Control subscriber: uninterrupted, sees everything.
	control := dialHello(t, h.Addr(), "control", 0)
	defer control.Close()
	ctrlSteps, ctrlSigs := drainSub(t, control, steps)
	if len(ctrlSteps) != steps {
		t.Fatalf("control got %d frames, want %d", len(ctrlSteps), steps)
	}

	// Victim: read a few frames, checkpoint the cursor after each (the
	// ethwatch client contract), then die without so much as a FIN-ack
	// courtesy — Close on the raw conn models a SIGKILLed viewer.
	cursorPath := filepath.Join(t.TempDir(), "victim.cursor")
	victim := dialHello(t, h.Addr(), "victim", 0)
	vSteps, vSigs := drainSub(t, victim, killAfter)
	cp := journal.Checkpoint{Step: int(vSteps[len(vSteps)-1]) + 1, Detail: "victim"}
	if err := journal.WriteCheckpoint(cursorPath, cp); err != nil {
		t.Fatal(err)
	}
	victim.Close()

	// Resume: reload the cursor, reconnect, and expect a keyframe first
	// (fresh connection, temporal codec) then the exact remaining steps.
	kf0 := telemetry.Default.Counter("transport.keyframes").Value()
	loaded, err := journal.ReadCheckpoint(cursorPath)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Step != killAfter {
		t.Fatalf("checkpoint cursor %d, want %d", loaded.Step, killAfter)
	}
	resumed := dialHello(t, h.Addr(), "victim", int64(loaded.Step))
	defer resumed.Close()
	rSteps, rSigs := drainSub(t, resumed, steps-killAfter)
	if kf := telemetry.Default.Counter("transport.keyframes").Value() - kf0; kf < 1 {
		t.Error("resumed connection sent no keyframe; delta state would be undecodable")
	}

	gotSteps := append(append([]int64{}, vSteps...), rSteps...)
	gotSigs := append(append([]uint32{}, vSigs...), rSigs...)
	if len(gotSteps) != steps {
		t.Fatalf("victim+resume received %d frames, want %d", len(gotSteps), steps)
	}
	for i := 0; i < steps; i++ {
		if gotSteps[i] != int64(i) {
			t.Fatalf("kill/resume step sequence %v: step %d missing or duplicated", gotSteps, i)
		}
		if gotSigs[i] != ctrlSigs[i] {
			t.Errorf("step %d after resume not byte-identical to the uninterrupted subscriber", i)
		}
	}
	// The journal carries the full subscriber lifecycle for the audit
	// tooling: two joins under the victim's name, one mid-run leave.
	var joins, leaves int
	for _, ev := range jw.Events() {
		if ev.Type != journal.TypeSubscribe {
			continue
		}
		if strings.HasPrefix(ev.Detail, "join name=victim") {
			joins++
		}
		if strings.HasPrefix(ev.Detail, "leave name=victim") {
			leaves++
		}
	}
	if joins != 2 || leaves < 1 {
		t.Errorf("victim lifecycle journaled %d joins / %d leaves, want 2 joins and >= 1 leave", joins, leaves)
	}
}

// TestHubChaosSteeringReplay proves deterministic steering: two runs
// under the same viz-side steering script produce byte-identical frames
// and identical journaled steering sequences, and the script
// demonstrably changes the output versus an unsteered run. The sim axes
// (ratio, codec) reach the sim only over the in-situ connection, so
// TestHubChaosSteeringOverSocketPair covers them.
func TestHubChaosSteeringReplay(t *testing.T) {
	const steps = 8
	script := &hub.Script{Entries: []hub.ScriptEntry{
		{Step: 2, Msg: hub.Msg{Kind: hub.KindSteer, Axes: hub.AxisIso, Iso: 0.55}},
		{Step: 4, Msg: hub.Msg{Kind: hub.KindSteer, Axes: hub.AxisCamera,
			Cam: hub.View{Az: 1.1, El: 0.6, Dist: 1.5}}},
	}}

	run := func(steer hub.Source) ([]uint32, []journal.Event) {
		jw := journal.New()
		sim, err := proxy.NewSimProxy(proxy.SimConfig{Journal: jw}, chaosSource(steps, 12))
		if err != nil {
			t.Fatal(err)
		}
		sigs := runPipeline(t, sim, chaosViz(t, jw, nil, steer))
		var steerEvs []journal.Event
		for _, ev := range jw.Events() {
			if ev.Type == journal.TypeSteer {
				steerEvs = append(steerEvs, ev)
			}
		}
		return sigs, steerEvs
	}

	sigsA, evsA := run(script)
	sigsB, evsB := run(script)
	plain, evsPlain := run(nil)

	if len(sigsA) != steps {
		t.Fatalf("steered run produced %d steps, want %d", len(sigsA), steps)
	}
	for i := range sigsA {
		if sigsA[i] != sigsB[i] {
			t.Errorf("step %d: two runs of the same steering script diverged", i)
		}
	}
	if len(evsA) == 0 {
		t.Fatal("steered run journaled no steering events")
	}
	if len(evsA) != len(evsB) {
		t.Fatalf("steering event counts diverged: %d vs %d", len(evsA), len(evsB))
	}
	for i := range evsA {
		if evsA[i].Step != evsB[i].Step || evsA[i].Detail != evsB[i].Detail || evsA[i].Rank != evsB[i].Rank {
			t.Errorf("steering event %d diverged:\n A %d %q\n B %d %q",
				i, evsA[i].Step, evsA[i].Detail, evsB[i].Step, evsB[i].Detail)
		}
	}
	if len(evsPlain) != 0 {
		t.Errorf("unsteered run journaled %d steering events, want 0", len(evsPlain))
	}
	differs := false
	for i := range plain {
		if plain[i] != sigsA[i] {
			differs = true
		}
	}
	if !differs {
		t.Error("steering script produced frames identical to the unsteered run; replay proof is vacuous")
	}
	// Steps before the first script entry must match the unsteered run —
	// steering applies at its scripted boundary, not retroactively.
	for i := 0; i < 2; i++ {
		if plain[i] != sigsA[i] {
			t.Errorf("step %d differs before any steering was scripted", i)
		}
	}
}

// TestHubChaosSteeringOverSocketPair proves the forwarded-steering path
// end to end over real sockets: ratio/codec steering enters at the viz
// side, crosses the in-situ connection as a control frame, and the sim
// proxy applies and journals it at a step boundary; the steps after the
// codec switch still decode and render.
func TestHubChaosSteeringOverSocketPair(t *testing.T) {
	const steps = 6
	script := &hub.Script{Entries: []hub.ScriptEntry{
		{Step: 2, Msg: hub.Msg{Kind: hub.KindSteer, Axes: hub.AxisRatio | hub.AxisCodec,
			Ratio: 0.5, Codec: transport.CodecDeltaFlate}},
	}}
	jw := journal.New()
	sim, err := proxy.NewSimProxy(proxy.SimConfig{Journal: jw}, chaosSource(steps, 12))
	if err != nil {
		t.Fatal(err)
	}
	viz := chaosViz(t, jw, nil, script)

	layout := filepath.Join(t.TempDir(), "layout")
	ln, err := transport.Listen(layout, 0, "127.0.0.1")
	if err != nil {
		t.Fatal(err)
	}
	simDone := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			simDone <- err
			return
		}
		defer nc.Close()
		_, _, err = sim.ServeFrom(transport.NewConn(nc), 0)
		simDone <- err
	}()
	conn, err := transport.Dial(layout, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := viz.Receive(conn); err != nil {
		t.Fatal(err)
	}
	if err := <-simDone; err != nil {
		t.Fatal(err)
	}

	var forwarded, applied, codecApplied bool
	var appliedStep int
	rendered := map[int]bool{}
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeRender {
			rendered[ev.Step] = true
		}
		if ev.Type != journal.TypeSteer {
			continue
		}
		if strings.HasPrefix(ev.Detail, "forward") {
			forwarded = true
		}
		if strings.HasPrefix(ev.Detail, "sim applied") && strings.Contains(ev.Detail, "ratio=0.5") {
			applied = true
			appliedStep = ev.Step
		}
		if strings.HasPrefix(ev.Detail, "sim applied") && strings.Contains(ev.Detail, "codec=delta+flate") {
			codecApplied = true
		}
	}
	if !forwarded {
		t.Error("viz proxy never forwarded the ratio/codec steer upstream")
	}
	if !applied {
		t.Fatal("sim proxy never applied the forwarded ratio")
	}
	if !codecApplied {
		t.Fatal("sim proxy never applied the forwarded codec")
	}
	for step := 0; step < steps; step++ {
		if !rendered[step] {
			t.Errorf("step %d was not decoded and rendered after the codec switch", step)
		}
	}
	// FIFO control framing pins the earliest possible boundary: the steer
	// is scripted at the step-2 receive, so it cannot apply before step 2.
	if appliedStep < 2 {
		t.Errorf("forwarded ratio applied at step %d, before it was scripted (step 2)", appliedStep)
	}
	// Sampling really kicked in: later steps carry fewer elements.
	var before, after int
	for _, ev := range jw.Events() {
		if ev.Type == journal.TypeSample {
			if ev.Step < appliedStep {
				before = ev.Elements
			} else if ev.Step > appliedStep && after == 0 {
				after = ev.Elements
			}
		}
	}
	if before == 0 || after == 0 || after >= before {
		t.Errorf("sampling after steering kept %d elements vs %d before; ratio not applied to the data", after, before)
	}
}

// chaosFrame is a deterministic frame generator for hub-only tests.
func chaosFrame(step int) *fb.Frame {
	f := fb.New(40, 30)
	for i := range f.Color {
		v := float64((i*13+step*131)%997) / 997
		f.Color[i] = vec.V3{X: v, Y: v * 0.5, Z: 1 - v}
		f.Depth[i] = 1 + v
	}
	return f
}

// dialHello connects and registers a subscriber (external-package
// mirror of the unit-test helper).
func dialHello(t *testing.T, addr, name string, from int64) *transport.Conn {
	t.Helper()
	c, err := hub.DialSubscriber(addr, name, from)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func waitSubs(t *testing.T, h *hub.Hub, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for h.Subscribers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d subscribers", n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
