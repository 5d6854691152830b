// Package coupling executes simulation/visualization proxy pairs under
// ETH's process-coupling modes (§III, "ETH can run with different
// process-couplings"): unified (both proxies in one process, the paper's
// tight coupling), and socket mode (separate flows connected through the
// transport layer's rendezvous protocol — the mechanism behind both
// intercore and internode coupling; which nodes the two sides land on is
// the scheduler's business, not the protocol's). The cmd/ethsim and
// cmd/ethviz binaries wrap the same drivers for true multi-process runs.
package coupling

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/ascr-ecx/eth/internal/faults"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/supervise"
	"github.com/ascr-ecx/eth/internal/telemetry"
	"github.com/ascr-ecx/eth/internal/transport"
)

// Coupling telemetry: reconnect/retry/skip counts across all socket-mode
// pairs, and the wall time of each pair run and unified step.
var (
	ctrRetries      = telemetry.Default.Counter("coupling.retries")
	ctrSkips        = telemetry.Default.Counter("coupling.steps_skipped")
	ctrReconnects   = telemetry.Default.Counter("coupling.reconnects")
	histUnified     = telemetry.Default.Histogram("coupling.unified")
	histUnifiedStep = telemetry.Default.Histogram("coupling.unified.step")
	histSocket      = telemetry.Default.Histogram("coupling.socket")
)

// Mode selects how a proxy pair executes.
type Mode uint8

const (
	// Unified runs both proxies in one process with direct hand-off —
	// the paper's tight coupling.
	Unified Mode = iota
	// Socket runs the pair over the transport layer: the simulation side
	// listens and registers in the layout file; the visualization side
	// looks it up and connects (§III-C).
	Socket
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == Socket {
		return "socket"
	}
	return "unified"
}

// Report instruments one pair's run.
type Report struct {
	// Wall is end-to-end time for the pair.
	Wall time.Duration
	// BytesMoved is the payload crossing the in-situ interface (0 in
	// unified mode — shared memory).
	BytesMoved int64
	// Steps is the number of time steps processed.
	Steps int
	// Retries counts reconnect+resume cycles the degradation policy ran.
	Retries int
	// Skipped counts steps abandoned under the skip policy.
	Skipped int
	// Viz exposes the visualization proxy (per-step results, frames).
	Viz *proxy.VizProxy
}

// RunUnified executes sim and viz in-process: each step's dataset is
// handed to the renderer directly, no serialization. Cancelling ctx
// drains at the next step boundary with an ErrShutdown-wrapped error.
// The loop starts at the visualization proxy's step cursor, so a proxy
// restarted after a contained panic (or re-created at its journal's
// cursor) resumes instead of replaying completed steps.
func RunUnified(ctx context.Context, sim *proxy.SimProxy, viz *proxy.VizProxy) (Report, error) {
	if err := viz.EnsureOutDir(); err != nil {
		return Report{}, err
	}
	defer histUnified.Since(time.Now())
	t0 := time.Now()
	for step := viz.NextStep(); step < sim.Steps(); step++ {
		if ctx.Err() != nil {
			return Report{Wall: time.Since(t0), Steps: step, Viz: viz},
				fmt.Errorf("coupling: unified pair drained before step %d: %w", step, supervise.ErrShutdown)
		}
		// The iteration body is a closure so its deferred Since records
		// the step on every path out, a failing step included.
		if err := func() error {
			defer histUnifiedStep.Since(time.Now())
			ds, err := sim.StepData(step)
			if err != nil {
				return fmt.Errorf("coupling: step %d: %w", step, err)
			}
			if _, err := viz.RenderStep(step, ds); err != nil {
				return err
			}
			return nil
		}(); err != nil {
			return Report{}, err
		}
	}
	return Report{
		Wall:  time.Since(t0),
		Steps: sim.Steps(),
		Viz:   viz,
	}, nil
}

// Policy is the degradation policy for socket-mode pairs: how hard to
// fight a failing connection before giving up. The zero value fails on
// the first error with no timeouts — the historical behavior.
type Policy struct {
	// MaxRetries is how many consecutive reconnect+resume cycles may be
	// spent on the same stuck step before escalating. Progress (a newly
	// acknowledged step) resets the count.
	MaxRetries int
	// MaxSkips is how many stuck steps may be abandoned (with a journal
	// skip event) after retries exhaust. 0 means never skip: exhausting
	// retries fails the pair.
	MaxSkips int
	// IOTimeout arms per-operation read/write deadlines on both ends so a
	// stalled peer surfaces as transport.ErrTimeout instead of a hang.
	IOTimeout time.Duration
	// Backoff is the reconnect dial policy; a zero Attempts count selects
	// transport.DefaultBackoff(Seed).
	Backoff transport.Backoff
	// Seed feeds backoff jitter (and documentation of the run's fault
	// seed); reproducible runs share seeds.
	Seed int64
	// Faults, when non-nil, injects the schedule's faults into every
	// connection and dial attempt of this pair.
	Faults *faults.Schedule
}

// classify maps a failure to the deterministic cause token recorded in
// retry/skip journal events. Checksum wins over timeout wins over an
// injected fault wins over a frame-bound violation; anything else is a
// generic connection failure. The priority makes the token stable when
// one fault produces several symptoms.
func classify(errs ...error) string {
	for _, c := range []struct {
		sentinel error
		name     string
	}{
		{transport.ErrChecksum, "checksum"},
		{transport.ErrTimeout, "timeout"},
		{faults.ErrInjected, "injected"},
		{transport.ErrFrameTooLarge, "frame"},
	} {
		for _, err := range errs {
			if errors.Is(err, c.sentinel) {
				return c.name
			}
		}
	}
	return "conn"
}

// deadliner is the subset of net.TCPListener needed to bound Accept.
type deadliner interface {
	SetDeadline(time.Time) error
}

// RunSocketPair executes the pair over a real TCP loopback connection
// using the layout-file rendezvous (§III-C), in one process for
// testability; the payload crosses the full serialize/socket/deserialize
// path. pol is the degradation policy: on a transport failure the pair
// reconnects through the layout file with backoff and resumes at the
// first unacknowledged step (up to MaxRetries times per step), then
// abandons the stuck step (up to MaxSkips times), then fails — so the
// zero Policy fails on the first error. Every decision is journaled: a
// retry event per reconnect, a skip event per abandoned step, with a
// classified cause. jw may be nil.
//
// Cancelling ctx drains at the next reconnect boundary (the simulation
// proxy's stop channel drains mid-stream at the next step boundary) with
// an ErrShutdown-wrapped error. The resume point is the visualization
// proxy's step cursor, so a freshly restarted attempt over the same
// proxies — or over a proxy a new process started at its journal's
// cursor — picks up where the last one stopped.
func RunSocketPair(ctx context.Context, sim *proxy.SimProxy, viz *proxy.VizProxy, layoutPath string, rank int, pol Policy, jw *journal.Writer) (Report, error) {
	return runSocketPair(ctx, sim, viz, layoutPath, rank, pol, jw, nil)
}

// runSocketPair is RunSocketPair with a connection registry: when reg is
// non-nil, the listener and every live connection register in it so a
// supervisor's Interrupt can tear the attempt's I/O down from outside.
func runSocketPair(ctx context.Context, sim *proxy.SimProxy, viz *proxy.VizProxy, layoutPath string, rank int, pol Policy, jw *journal.Writer, reg *connRegistry) (Report, error) {
	if err := viz.EnsureOutDir(); err != nil {
		return Report{}, err
	}
	defer histSocket.Since(time.Now())
	t0 := time.Now()

	ln, err := transport.Listen(layoutPath, rank, "")
	if err != nil {
		return Report{}, err
	}
	defer ln.Close()
	reg.add(ln)
	sim.SetStop(ctx.Done())
	viz.SetAllowGaps(pol.MaxSkips > 0)

	bo := pol.Backoff
	if bo.Attempts <= 0 {
		bo = transport.DefaultBackoff(pol.Seed)
	}
	baseDial := bo.Dial
	if baseDial == nil {
		baseDial = net.DialTimeout
	}
	bo.Dial = pol.Faults.Dialer(baseDial)

	rep := Report{Viz: viz}
	resume := viz.NextStep() // first step not yet acknowledged
	retries := 0             // consecutive failures at the current resume step
	stuck := -1              // resume step the retry count refers to
	var bytesDone int64      // payload bytes from finished connections
	for {
		if ctx.Err() != nil {
			rep.Wall = time.Since(t0)
			rep.BytesMoved = bytesDone
			return rep, fmt.Errorf("coupling: pair %d drained at step %d: %w", rank, resume, supervise.ErrShutdown)
		}
		// Dial first: the listener's backlog holds the connection until the
		// accept below, so a failed dial leaks nothing.
		vconn, err := transport.DialBackoff(layoutPath, rank, bo)
		var sconn *transport.Conn
		var vizErr, simErr error
		var next int
		if err != nil {
			vizErr = err
			next = resume
		} else {
			reg.add(vconn)
			if d, ok := ln.(deadliner); ok {
				d.SetDeadline(time.Now().Add(10 * time.Second))
			}
			raw, aerr := ln.Accept()
			if aerr != nil {
				vconn.Close()
				if ctx.Err() != nil {
					rep.Wall = time.Since(t0)
					rep.BytesMoved = bytesDone
					return rep, fmt.Errorf("coupling: pair %d drained in accept: %w", rank, supervise.ErrShutdown)
				}
				return rep, fmt.Errorf("coupling: accepting pair %d: %w", rank, aerr)
			}
			sconn = transport.NewConn(pol.Faults.WrapAccepted(raw))
			reg.add(sconn)
			sconn.SetTimeouts(pol.IOTimeout, pol.IOTimeout)
			vconn.SetTimeouts(pol.IOTimeout, pol.IOTimeout)
			ctrReconnects.Inc()

			type simOut struct {
				next  int
				bytes int64
				err   error
			}
			simc := make(chan simOut, 1)
			go func() {
				// Closing on exit (success or failure) unblocks a viz side
				// mid-Recv; on the success path all frames are already
				// flushed, so the orderly TCP shutdown delivers them first.
				defer sconn.Close()
				n, b, serr := sim.ServeFrom(sconn, resume)
				simc <- simOut{n, b, serr}
			}()
			vizErr = viz.Receive(vconn)
			vconn.Close() // unblocks the sim side if it is mid-Recv
			res := <-simc
			simErr, next = res.err, res.next
			bytesDone += res.bytes
			if vizErr == nil && simErr == nil {
				rep.Wall = time.Since(t0)
				rep.BytesMoved = bytesDone
				rep.Steps = sim.Steps()
				return rep, nil
			}
		}

		// A contained panic or a drain is not a transport failure: hand it
		// straight back instead of burning the retry budget. The supervisor
		// (if any) decides whether a panic warrants a restart; a drain ends
		// the attempt.
		for _, e := range []error{vizErr, simErr} {
			if e != nil && (errors.Is(e, proxy.ErrPanic) || errors.Is(e, proxy.ErrStopped)) {
				rep.Wall = time.Since(t0)
				rep.BytesMoved = bytesDone
				return rep, e
			}
		}
		cause := classify(vizErr, simErr)
		firstErr := vizErr
		if firstErr == nil {
			firstErr = simErr
		}
		if next > resume || next != stuck {
			retries = 0 // progress since the last failure: fresh budget
		}
		resume, stuck = next, next
		retries++
		if retries > pol.MaxRetries {
			// Retries exhausted on this step: skip it if the policy still
			// allows (and there is a step to skip), otherwise fail the pair.
			if pol.MaxSkips > rep.Skipped && resume < sim.Steps() {
				rep.Skipped++
				ctrSkips.Inc()
				jw.Emit(journal.Event{
					Type: journal.TypeSkip, Rank: rank, Step: resume,
					Detail: fmt.Sprintf("cause=%s retries=%d skipped=%d/%d",
						cause, retries-1, rep.Skipped, pol.MaxSkips),
				})
				resume++
				stuck, retries = resume, 0
				continue
			}
			jw.Error(rank, resume, firstErr)
			rep.Wall = time.Since(t0)
			rep.BytesMoved = bytesDone
			return rep, fmt.Errorf("coupling: pair %d gave up at step %d after %d retries (cause=%s): %w",
				rank, resume, retries-1, cause, firstErr)
		}
		rep.Retries++
		ctrRetries.Inc()
		jw.Emit(journal.Event{
			Type: journal.TypeRetry, Rank: rank, Step: resume,
			Detail: fmt.Sprintf("cause=%s attempt=%d/%d resume=%d",
				cause, retries, pol.MaxRetries, resume),
		})
	}
}

// PairSpec describes one proxy pair for a multi-pair run.
type PairSpec struct {
	Sim *proxy.SimProxy
	Viz *proxy.VizProxy
}

// RunPairs executes several pairs concurrently under the given mode —
// the multi-rank configuration of Figure 2 — with the zero degradation
// policy and no supervisor; see RunPairsSupervised for what is journaled.
func RunPairs(pairs []PairSpec, mode Mode, layoutPath string, jw *journal.Writer) ([]Report, error) {
	return RunPairsSupervised(context.Background(), pairs, mode, layoutPath, Policy{}, nil, jw)
}
