package coupling

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/proxy"
	"github.com/ascr-ecx/eth/internal/supervise"
	"github.com/ascr-ecx/eth/internal/telemetry"
)

// connRegistry tracks the listener and live connections of one
// supervised pair so the watchdog's Interrupt can unblock a stalled
// attempt from outside: Go cannot preempt a goroutine parked in a read,
// but closing its socket can. A nil registry is a no-op (unsupervised
// runs pay nothing).
type connRegistry struct {
	mu      sync.Mutex
	closers []io.Closer
}

func (r *connRegistry) add(c io.Closer) {
	if r == nil || c == nil {
		return
	}
	r.mu.Lock()
	r.closers = append(r.closers, c)
	r.mu.Unlock()
}

// closeAll closes everything registered since the last call. Double
// closes (the attempt's own deferred Close racing ours) are harmless.
func (r *connRegistry) closeAll() {
	if r == nil {
		return
	}
	r.mu.Lock()
	cs := r.closers
	r.closers = nil
	r.mu.Unlock()
	for _, c := range cs {
		c.Close()
	}
}

// cursorObserver is the optional extension a supervise.Observer can
// implement to receive the visualization proxy's durable step cursor
// alongside the watchdog's opaque progress value. internal/obs's Health
// implements it, which is how /healthz reports per-pair step cursors.
type cursorObserver interface {
	RoleCursor(role string, cursor func() int64)
}

// registerCursor hands the pair's step-cursor probe to the observer when
// it wants one, under the same display name the supervisor reports with.
func registerCursor(cfg supervise.Config, viz *proxy.VizProxy) {
	co, ok := cfg.Observer.(cursorObserver)
	if !ok {
		return
	}
	role := cfg.Role
	if role == "" {
		role = "task"
	}
	co.RoleCursor(role, func() int64 { return int64(viz.NextStep()) })
}

// asSupervised maps proxy-level failure classes onto the supervisor's
// sentinels so restart events carry the right cause token: a contained
// proxy panic becomes ErrPanicked, a drain becomes ErrShutdown.
func asSupervised(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, proxy.ErrPanic):
		return fmt.Errorf("%w: %w", err, supervise.ErrPanicked)
	case errors.Is(err, proxy.ErrStopped):
		return fmt.Errorf("%w: %w", err, supervise.ErrShutdown)
	default:
		return err
	}
}

// supervisePair runs attempt under a supervisor until it succeeds or
// cfg's budget is spent; attempts resume from the visualization proxy's
// step cursor. Progress for the stall watchdog is derived from the cursor
// and the journal length. The returned report aggregates retries, skips,
// and bytes across all attempts.
func supervisePair(ctx context.Context, sim *proxy.SimProxy, viz *proxy.VizProxy, cfg supervise.Config, jw *journal.Writer,
	attempt func(context.Context) (Report, error)) (Report, error) {
	if cfg.Journal == nil {
		cfg.Journal = jw
	}
	cfg.Probe = func() int64 { return int64(viz.NextStep()) + int64(jw.Len()) }
	registerCursor(cfg, viz)
	t0 := time.Now()
	agg := Report{Viz: viz}
	err := supervise.New(cfg).Run(ctx, func(actx context.Context) error {
		rep, rerr := attempt(actx)
		agg.BytesMoved += rep.BytesMoved
		agg.Retries += rep.Retries
		agg.Skipped += rep.Skipped
		agg.Steps = rep.Steps
		return asSupervised(rerr)
	})
	agg.Wall = time.Since(t0)
	if err != nil {
		return agg, err
	}
	agg.Steps = sim.Steps()
	return agg, nil
}

// RunSocketPairSupervised runs one socket-mode pair under a supervisor:
// a stalled, panicked, or failed attempt is torn down (listener and
// connections closed) and restarted under cfg's budget. cfg.Probe and
// cfg.Interrupt are derived here and must not be set by the caller.
func RunSocketPairSupervised(ctx context.Context, sim *proxy.SimProxy, viz *proxy.VizProxy, layoutPath string, rank int, pol Policy, cfg supervise.Config, jw *journal.Writer) (Report, error) {
	reg := &connRegistry{}
	if cfg.Role == "" {
		cfg.Role = fmt.Sprintf("pair%d", rank)
	}
	cfg.Interrupt = reg.closeAll
	return supervisePair(ctx, sim, viz, cfg, jw, func(actx context.Context) (Report, error) {
		return runSocketPair(actx, sim, viz, layoutPath, rank, pol, jw, reg)
	})
}

// RunPairsSupervised executes several pairs concurrently under the given
// mode. Socket mode shares one layout file; rank i registers under i.
// It returns per-pair reports in rank order. pol applies to every
// socket-mode pair; its fault schedule (if any) is cloned per rank with a
// rank-offset seed, so each pair sees independent operation counters and
// its own deterministic fault stream — one flaky pair degrades under its
// own budget without poisoning the sweep. With a non-nil sup every pair
// runs under its own supervisor (role "pair<rank>"): sup carries the
// shared supervision policy — budget, backoff, stall timeout — and a
// contained proxy panic, a stall or a failure restarts that pair, which
// resumes at its step cursor. jw (may be nil) receives one
// phase-transition event per pair start/end plus an error event for any
// failed pair; per-step generate/sample/transfer/render events come from
// the proxies themselves, which carry their own journal references.
func RunPairsSupervised(ctx context.Context, pairs []PairSpec, mode Mode, layoutPath string, pol Policy, sup *supervise.Config, jw *journal.Writer) ([]Report, error) {
	if len(pairs) == 0 {
		return nil, fmt.Errorf("coupling: no pairs")
	}
	if mode == Socket && layoutPath == "" {
		return nil, fmt.Errorf("coupling: socket mode needs a layout path")
	}
	start := fmt.Sprintf("pair_start mode=%s", mode)
	if sup != nil {
		start += " supervised"
	}
	active := telemetry.Default.Gauge("coupling.active_pairs")
	active.Set(int64(len(pairs)))
	reports := make([]Report, len(pairs))
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	wg.Add(len(pairs))
	for i, p := range pairs {
		go func(i int, p PairSpec) {
			defer wg.Done()
			jw.Emit(journal.Event{Type: journal.TypePhase, Rank: i, Step: -1, Detail: start})
			rankPol := pol
			rankPol.Seed = pol.Seed + int64(i)
			rankPol.Faults = pol.Faults.Clone(rankPol.Seed)
			switch {
			case sup == nil && mode == Socket:
				reports[i], errs[i] = RunSocketPair(ctx, p.Sim, p.Viz, layoutPath, i, rankPol, jw)
			case sup == nil:
				reports[i], errs[i] = RunUnified(ctx, p.Sim, p.Viz)
			default:
				scfg := *sup
				scfg.Role = fmt.Sprintf("pair%d", i)
				if mode == Socket {
					reports[i], errs[i] = RunSocketPairSupervised(ctx, p.Sim, p.Viz, layoutPath, i, rankPol, scfg, jw)
				} else {
					reports[i], errs[i] = supervisePair(ctx, p.Sim, p.Viz, scfg, jw, func(actx context.Context) (Report, error) {
						return RunUnified(actx, p.Sim, p.Viz)
					})
				}
			}
			if errs[i] != nil {
				jw.Error(i, -1, errs[i])
			}
			jw.Emit(journal.Event{
				Type: journal.TypePhase, Rank: i, Step: -1,
				DurNS: int64(reports[i].Wall), Bytes: reports[i].BytesMoved,
				Detail: fmt.Sprintf("pair_end mode=%s steps=%d", mode, reports[i].Steps),
			})
		}(i, p)
	}
	wg.Wait()
	active.Set(0)
	for _, err := range errs {
		if err != nil {
			return reports, err
		}
	}
	return reports, nil
}
