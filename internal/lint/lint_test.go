package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// maxIgnores is the suppression-debt budget: fixing a finding is free,
// suppressing one spends budget, and raising this bound is a deliberate,
// reviewed act.
const maxIgnores = 8

// TestSelfClean loads the whole module and runs the full suite: the tree
// must stay ethlint-clean, hold at most maxIgnores //lint:ignore
// directives, and hold none that suppresses nothing. It is the lint gate
// (`go test ./...` runs it), and it doubles as the loader's integration
// test (every package in the module parses and type-checks through the
// stdlib-only importer).
func TestSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("loaded %d packages, expected the full module", len(pkgs))
	}
	res := Run(pkgs, All())
	for _, d := range res.Diagnostics {
		t.Errorf("%s", d)
	}
	if res.Suppressed == 0 {
		t.Error("expected the tree's //lint:ignore directives to be counted")
	}
	if res.Ignores > maxIgnores {
		t.Errorf("suppression debt: %d //lint:ignore directives, budget is %d — fix findings instead of suppressing them",
			res.Ignores, maxIgnores)
	}
	for _, dir := range res.IgnoreDirectives {
		if dir.Hits == 0 {
			t.Errorf("stale directive: %s:%d: //lint:ignore %s suppresses nothing",
				dir.Pos.Filename, dir.Pos.Line, strings.Join(dir.Analyzers, ","))
		}
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}

// TestDirectives exercises the directive machinery itself: a reasonless
// directive is malformed (and does not suppress), an unknown analyzer
// name is a finding, and a valid directive only silences the analyzer it
// names.
func TestDirectives(t *testing.T) {
	src := `package fix

func eq(a, b float64) bool {
	//lint:ignore floateq
	return a == b
}

func eq2(a, b float64) bool {
	//lint:ignore nosuchanalyzer some reason
	return a == b
}

func eq3(a, b float64) bool {
	//lint:ignore errwrap wrong analyzer named
	return a == b
}
`
	pkg := typeCheckFixture(t, "example.com/internal/geom", src)
	res := Run([]*Package{pkg}, []*Analyzer{FloatEq})
	if res.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0 (no directive names floateq with a reason)", res.Suppressed)
	}
	var gotMalformed, gotUnknown int
	var floatDiags int
	for _, d := range res.Diagnostics {
		switch {
		case d.Analyzer == "directive" && strings.Contains(d.Message, "malformed"):
			gotMalformed++
		case d.Analyzer == "directive" && strings.Contains(d.Message, "unknown analyzer"):
			gotUnknown++
		case d.Analyzer == "floateq":
			floatDiags++
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if gotMalformed != 1 || gotUnknown != 1 || floatDiags != 3 {
		t.Errorf("got malformed=%d unknown=%d floateq=%d, want 1/1/3 in:\n%v",
			gotMalformed, gotUnknown, floatDiags, res.Diagnostics)
	}
}
