// Package raceflag reports whether the race detector is active. The
// allocation-regression tests use it to skip exact testing.AllocsPerRun
// assertions under `go test -race`: the detector instruments allocations,
// so steady-state allocation counts hold only for race-free builds (which
// is also how production binaries run).
package raceflag

// Enabled is true when this binary was built with -race. It is a var set
// from a build-tagged init (rather than a pair of build-tagged consts) so
// tools that type-check all files together still see one declaration.
var Enabled = false
