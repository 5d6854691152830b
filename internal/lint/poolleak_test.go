package lint

import "testing"

// The fixture declares the frame pool's shape as internal/mempool has it
// (package-level AcquireFrameUncleared/ReleaseFrame) so the analyzer is
// exercised without importing the real package.
const poolLeakFixture = `package fixture

import "errors"

type Frame struct {
	W, H  int
	Color []float64
}

func AcquireFrameUncleared(w, h int) *Frame { return &Frame{W: w, H: h, Color: make([]float64, w*h)} }
func ReleaseFrame(f *Frame)                 {}

// Early error return skips the release: the bug class the analyzer exists for.
func leakOnError(fail bool) error {
	f := AcquireFrameUncleared(8, 8) // want "pooled frame from AcquireFrameUncleared is not released on every path"
	if fail {
		return errors.New("boom")
	}
	ReleaseFrame(f)
	return nil
}

// Released on both branches: correct on all paths.
func releasedOnAllPaths(fail bool) error {
	f := AcquireFrameUncleared(8, 8)
	if fail {
		ReleaseFrame(f)
		return errors.New("boom")
	}
	ReleaseFrame(f)
	return nil
}

// A deferred release covers every exit, including panic unwinding.
func releasedByDefer(fail bool) error {
	f := AcquireFrameUncleared(8, 8)
	defer ReleaseFrame(f)
	if fail {
		return errors.New("boom")
	}
	f.Color[0] = 1
	return nil
}

// A deferred closure releasing the frame counts too.
func releasedByDeferClosure() {
	f := AcquireFrameUncleared(2, 4)
	defer func() { ReleaseFrame(f) }()
	f.Color[0] = 1
}

// Returning the frame transfers ownership on that path; the error path
// releases explicitly. No finding.
func returnedOwnership(fail bool) (*Frame, error) {
	f := AcquireFrameUncleared(8, 8)
	if fail {
		ReleaseFrame(f)
		return nil, errors.New("boom")
	}
	return f, nil
}

// The rt.scalarColors shape: success path returns the frame, error path
// returns nil and leaks it.
func leakReturningNil(bad bool) (*Frame, error) {
	f := AcquireFrameUncleared(8, 8) // want "not released on every path"
	if bad {
		return nil, errors.New("no field")
	}
	return f, nil
}

// Explicit panic exits are exempt: panicking functions owe the pool
// nothing.
func panicPathExempt(bad bool) {
	f := AcquireFrameUncleared(2, 4)
	if bad {
		panic("bad")
	}
	ReleaseFrame(f)
}

// A frame assigned to a variable declared earlier, leaked on the early
// return.
func leakAssigned(fail bool) error {
	var f *Frame
	f = AcquireFrameUncleared(2, 5) // want "pooled frame from AcquireFrameUncleared"
	if fail {
		return errors.New("x")
	}
	ReleaseFrame(f)
	return nil
}

// Frame acquisition leaked when the error path returns nil.
func leakFrame(fail bool) (*Frame, error) {
	f := AcquireFrameUncleared(4, 4) // want "pooled frame from AcquireFrameUncleared"
	if fail {
		return nil, errors.New("copy failed")
	}
	return f, nil
}

// Released in a helper borrow? No: passing to a call is a borrow; the
// release before both exits keeps this clean.
func borrowedByCallee(fail bool) error {
	f := AcquireFrameUncleared(4, 8)
	fill(f)
	if fail {
		ReleaseFrame(f)
		return errors.New("late")
	}
	ReleaseFrame(f)
	return nil
}

func fill(f *Frame) {}

// Storing into a struct transfers ownership; the new owner releases.
type holder struct{ f *Frame }

func escapesToStruct(h *holder) {
	f := AcquireFrameUncleared(2, 4)
	h.f = f
}

// Discarding the acquisition outright.
func discarded() {
	_ = AcquireFrameUncleared(2, 4) // want "discarded"
}

// Acquire/release balanced inside a loop body.
func loopReleased(n int) {
	for i := 0; i < n; i++ {
		f := AcquireFrameUncleared(4, 4)
		f.Color[0] = float64(i)
		ReleaseFrame(f)
	}
}

// A continue that skips the release leaks one iteration's frame.
func loopLeakViaContinue(n int) {
	for i := 0; i < n; i++ {
		f := AcquireFrameUncleared(4, 4) // want "not released on every path"
		if i%2 == 0 {
			continue
		}
		ReleaseFrame(f)
	}
}

// Capture by a field-only closure (the par.For shape) is a borrow, so
// the leak on the error return is still visible through it.
func leakWithWorkerClosure(bad bool) (*Frame, error) {
	f := AcquireFrameUncleared(8, 8) // want "not released on every path"
	work(func(i int) { f.Color[i] = 0 })
	if bad {
		return nil, errors.New("no field")
	}
	return f, nil
}

func work(fn func(int)) { fn(0) }

// Capture by a closure that stores the frame elsewhere escapes: the
// closure owns its fate now.
var sink *Frame

func escapesViaClosure() {
	f := AcquireFrameUncleared(2, 4)
	work(func(i int) { sink = f })
}
`

func TestPoolLeak(t *testing.T) {
	runFixture(t, PoolLeak, "fixture/poolleak", poolLeakFixture)
}

func TestPoolLeakSuppression(t *testing.T) {
	src := `package fixture

type Frame struct{ W, H int }

func AcquireFrameUncleared(w, h int) *Frame { return &Frame{w, h} }
func ReleaseFrame(f *Frame)                 {}

func intentional(fail bool) error {
	//lint:ignore poolleak the arena frees everything at step end
	f := AcquireFrameUncleared(8, 8)
	f.W = 1
	return nil
}
`
	res := runFixture(t, PoolLeak, "fixture/poolleaksup", src)
	if res.Suppressed != 1 {
		t.Errorf("Suppressed = %d, want 1", res.Suppressed)
	}
	if res.Ignores != 1 {
		t.Errorf("Ignores = %d, want 1", res.Ignores)
	}
}
