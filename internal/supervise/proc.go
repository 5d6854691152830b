package supervise

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
	"syscall"
	"time"
)

// ErrExited is wrapped when a supervised subprocess exited abnormally
// (non-zero status or killed by a signal).
var ErrExited = errors.New("supervise: process exited abnormally")

// Proc describes a supervised subprocess — a real ethsim/ethviz proxy
// incarnation. Unlike an in-process Task, a subprocess can be truly
// preempted: a stalled incarnation is SIGKILLed, not merely asked to
// stop.
type Proc struct {
	// Path and Args form the command line (Path is argv[0]).
	Path string
	Args []string
	// Env entries are appended to the parent environment.
	Env []string
	// ProgressPath, when set, is a file whose growth signals liveness —
	// typically the incarnation's journal. It backs the Config.Probe for
	// the stall watchdog.
	ProgressPath string
	// Grace is how long a drain (context cancellation) waits between
	// SIGTERM and SIGKILL. Default 2s.
	Grace time.Duration
	// Stdout and Stderr receive the child's output. Nil discards.
	Stdout, Stderr io.Writer
}

func (p Proc) grace() time.Duration {
	if p.Grace <= 0 {
		return 2 * time.Second
	}
	return p.Grace
}

// procHandle shares the live incarnation's process between the task
// closure and the watchdog's Interrupt.
type procHandle struct {
	mu   sync.Mutex
	proc *os.Process
}

func (h *procHandle) set(p *os.Process) {
	h.mu.Lock()
	h.proc = p
	h.mu.Unlock()
}

func (h *procHandle) kill() {
	h.mu.Lock()
	p := h.proc
	h.mu.Unlock()
	if p != nil {
		_ = p.Kill()
	}
}

// RunProc supervises a subprocess under cfg's restart policy: each
// incarnation is spawned from p, liveness is derived from
// p.ProgressPath growth, a stalled incarnation is SIGKILLed and
// restarted under the budget, and an abnormal exit (crash, kill -9) is
// a restartable ErrExited failure. Exit status 0 ends supervision with
// success. cfg.Probe and cfg.Interrupt are derived from p and must not
// be set by the caller.
func RunProc(ctx context.Context, cfg Config, p Proc) error {
	h := &procHandle{}
	if p.ProgressPath != "" {
		cfg.Probe = fileProbe(p.ProgressPath)
	} else {
		cfg.Stall = 0 // no progress source: crash-only supervision
	}
	cfg.Interrupt = h.kill
	return New(cfg).Run(ctx, func(actx context.Context) error {
		return runOnce(actx, cfg.role(), p, h)
	})
}

// runOnce spawns and reaps one incarnation.
func runOnce(actx context.Context, role string, p Proc, h *procHandle) error {
	cmd := exec.Command(p.Path, p.Args...)
	cmd.Stdout, cmd.Stderr = p.Stdout, p.Stderr
	cmd.Env = append(os.Environ(), p.Env...)
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("supervise: %s: starting %s: %w: %w", role, p.Path, err, ErrExited)
	}
	h.set(cmd.Process)
	defer h.set(nil)
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		return exitErr(role, err)
	case <-actx.Done():
		// Drain: ask politely, then insist. The watchdog's Interrupt may
		// already have killed the process; both paths converge on Wait.
		_ = cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-done:
			if err == nil {
				return nil
			}
		case <-time.After(p.grace()):
			_ = cmd.Process.Kill()
			<-done
		}
		return fmt.Errorf("supervise: %s terminated during drain: %w", role, ErrShutdown)
	}
}

// exitErr maps a cmd.Wait result to the supervision error model.
func exitErr(role string, err error) error {
	if err == nil {
		return nil
	}
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return fmt.Errorf("supervise: %s: %w: %w", role, ee, ErrExited)
	}
	return fmt.Errorf("supervise: %s: waiting on process: %w: %w", role, err, ErrExited)
}

// fileProbe reports the size of path as the progress value; a missing
// file probes as zero (not yet created counts as no progress).
func fileProbe(path string) func() int64 {
	return func() int64 {
		fi, err := os.Stat(path)
		if err != nil {
			return 0
		}
		return fi.Size()
	}
}
