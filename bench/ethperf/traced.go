package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"github.com/ascr-ecx/eth/internal/obs"
	"github.com/ascr-ecx/eth/internal/transport"
)

// ledgerRows are the span names whose per-step self times add up to the
// step period, in pipeline order. Anything else on the step's timeline
// (the benchmark's own frame signature, scheduling gaps) lands in
// ledger.unaccounted_ms.
var ledgerRows = []string{
	"proxy.sim_stepdata",
	"transport.send",
	"transport.recv_tail",
	"proxy.viz_renderstep",
	"compositing.barrier_wait",
	"compositing.composite",
	"hub.publish",
	"transport.ack",
}

// runTraced is the traced pass's driver: per rank, two goroutines make
// the same public calls coupling.RunPairs makes (StepData → SendDataset ‖
// Recv → RenderStep → SendAck ‖ Recv) over a transport.Listen/Dial
// loopback pair, with a span around each.
func (pl *pipeline) runTraced() error {
	ranks, steps := pl.w.Ranks, pl.sz.total()
	grid := func() [][]time.Time {
		g := make([][]time.Time, ranks)
		for r := range g {
			g[r] = make([]time.Time, steps)
		}
		return g
	}
	pl.sendStart, pl.sendEnd, pl.recvStart, pl.recvEnd, pl.ackStart, pl.ackEnd =
		grid(), grid(), grid(), grid(), grid(), grid()

	errs := make([]error, 2*ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		ln, err := transport.Listen(pl.layout(), r, "")
		if err != nil {
			return err
		}
		vconn, err := transport.Dial(pl.layout(), r, 10*time.Second)
		if err != nil {
			ln.Close()
			return err
		}
		raw, err := ln.Accept()
		ln.Close()
		if err != nil {
			vconn.Close()
			return fmt.Errorf("ethperf: accepting pair %d: %w", r, err)
		}
		sconn := transport.NewConn(raw)
		// Either side failing closes both sockets, which unblocks its peer.
		fail := func(err error) {
			pl.pub.abort(err)
			sconn.Close()
			vconn.Close()
		}
		wg.Add(2)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[2*r] = fmt.Errorf("ethperf: sim driver %d panicked: %v", r, p)
					fail(errs[2*r])
				}
			}()
			if errs[2*r] = pl.driveSim(r, sconn); errs[2*r] != nil {
				fail(errs[2*r])
			}
		}(r)
		go func(r int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					errs[2*r+1] = fmt.Errorf("ethperf: viz driver %d panicked: %v", r, p)
					fail(errs[2*r+1])
				}
			}()
			if errs[2*r+1] = pl.driveViz(r, vconn); errs[2*r+1] != nil {
				fail(errs[2*r+1])
			}
			vconn.Close()
		}(r)
	}
	wg.Wait()
	pl.deriveSpans()
	return errors.Join(append(errs, pl.pub.err)...)
}

// driveSim is SimProxy.ServeFrom with spans: it makes the same calls in
// the same order on the same connection settings.
func (pl *pipeline) driveSim(r int, conn *transport.Conn) error {
	defer conn.Close()
	sim := pl.sims[r]
	conn.SetCodec(sim.Codec())
	conn.Journal = pl.jw
	conn.Rank = r
	for step := 0; step < pl.sz.total(); step++ {
		conn.Step = step
		id := pl.tr.begin("proxy.sim_stepdata", -1, r, step)
		pl.sources[r].parent = id
		ds, err := sim.StepData(step)
		pl.tr.end(id)
		if err != nil {
			return fmt.Errorf("ethperf: preparing step %d: %w", step, err)
		}
		pl.sendStart[r][step] = time.Now()
		id = pl.tr.begin("transport.send", -1, r, step)
		err = conn.SendDataset(ds)
		pl.tr.end(id)
		pl.sendEnd[r][step] = time.Now()
		if err != nil {
			return fmt.Errorf("ethperf: sending step %d: %w", step, err)
		}
		typ, _, ack, err := conn.Recv()
		pl.ackEnd[r][step] = time.Now()
		if err != nil {
			return fmt.Errorf("ethperf: waiting for ack %d: %w", step, err)
		}
		if typ != transport.MsgAck || ack != int64(step) {
			return fmt.Errorf("ethperf: expected ack for step %d, got type %d step %d", step, typ, ack)
		}
		pl.acked[r] = step + 1
	}
	return conn.SendDone()
}

// driveViz is VizProxy.Receive with spans.
func (pl *pipeline) driveViz(r int, conn *transport.Conn) error {
	viz, rp := pl.vizs[r], pl.rpubs[r]
	conn.Journal = pl.jw
	conn.Rank = r
	conn.SetDatasetReuse(true)
	for next := 0; ; next++ {
		conn.Step = next
		recvStart := time.Now()
		typ, ds, wireStep, err := conn.Recv()
		recvEnd := time.Now()
		if err != nil {
			return fmt.Errorf("ethperf: receiving step %d: %w", next, err)
		}
		if typ == transport.MsgDone {
			return nil
		}
		if typ != transport.MsgDataset || wireStep != int64(next) || next >= pl.sz.total() {
			return fmt.Errorf("ethperf: expected dataset %d, got type %d step %d", next, typ, wireStep)
		}
		pl.recvStart[r][next], pl.recvEnd[r][next] = recvStart, recvEnd
		rp.parent = pl.tr.begin("proxy.viz_renderstep", -1, r, next)
		_, err = viz.RenderStep(next, ds)
		pl.tr.end(rp.parent)
		if err != nil {
			return err
		}
		pl.ackStart[r][next] = time.Now()
		if err := conn.SendAck(wireStep); err != nil {
			return fmt.Errorf("ethperf: acking step %d: %w", next, err)
		}
	}
}

// deriveSpans adds the intervals that cross goroutines, from the
// timestamps both sides left behind.
func (pl *pipeline) deriveSpans() {
	for r := range pl.sendEnd {
		for step := range pl.sendEnd[r] {
			add := func(name string, lo, hi time.Time) {
				if !lo.IsZero() && hi.After(lo) {
					pl.tr.add(span{name: name, start: lo, end: hi, parent: -1, rank: r, step: step})
				}
			}
			add("transport.recv_tail", pl.sendEnd[r][step], pl.recvEnd[r][step])
			add("transport.ack", pl.ackStart[r][step], pl.ackEnd[r][step])
			add("proxy.viz_wait", pl.recvStart[r][step], pl.sendStart[r][step])
		}
	}
}

// ledger returns, for each measured step, the self time per span name in
// ms, scaled by the step's speed like its period, on the timeline of the
// rank that reached the composite first: that
// rank's RenderStep plus its barrier wait is what the slower rank spent
// rendering, so the imbalance shows as its own row and the rows still
// add up to the period.
func (pl *pipeline) ledger(speeds []float64) []map[string]float64 {
	steps := make([]map[string]float64, pl.sz.Measured)
	for i := range steps {
		steps[i] = map[string]float64{}
	}
	spans := pl.tr.spans
	for i, s := range spans {
		if s.step >= pl.sz.Warm && s.rank == pl.pub.first[s.step] {
			steps[s.step-pl.sz.Warm][s.name] += ms(selfTime(spans, i)) * speeds[s.step]
		}
	}
	return steps
}

// writeTrace writes the spans as Chrome trace-event JSON, the shape the
// obs plane's /trace endpoint serves: one pid per rank, sim-side spans
// on tid 0 and viz-side spans on tid 1.
func writeTrace(path string, spans []span) error {
	tf := obs.TraceFile{TraceEvents: []obs.TraceEvent{}, DisplayTimeUnit: "ms"}
	if len(spans) > 0 {
		t0 := spans[0].start
		for _, s := range spans {
			if s.start.Before(t0) {
				t0 = s.start
			}
		}
		simSide := map[string]bool{"proxy.sim_stepdata": true, "bench.boundary": true, "transport.send": true}
		for i, s := range spans {
			tid := 1
			if simSide[s.name] {
				tid = 0
			}
			tf.TraceEvents = append(tf.TraceEvents, obs.TraceEvent{
				Name: s.name, Cat: "ethperf", Ph: "X",
				Ts:  float64(s.start.Sub(t0)) / 1e3,
				Dur: float64(s.dur()) / 1e3,
				Pid: s.rank + 1, Tid: tid,
				Args: map[string]any{"step": s.step, "id": i, "parent": s.parent},
			})
		}
	}
	b, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("ethperf: encoding trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("ethperf: writing trace: %w", err)
	}
	return nil
}
