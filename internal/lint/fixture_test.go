package lint

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"regexp"
	"strings"
	"testing"
)

// typeCheckFixture compiles src as a one-file package under pkgPath
// (stdlib imports only) and returns it ready for analysis.
func typeCheckFixture(t *testing.T, pkgPath, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "fixture.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := newInfo()
	conf := types.Config{Importer: importer.Default()}
	pkg, err := conf.Check(pkgPath, fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type-check fixture: %v", err)
	}
	return &Package{
		PkgPath: pkgPath,
		Fset:    fset,
		Files:   []*ast.File{file},
		Types:   pkg,
		Info:    info,
	}
}

var wantRe = regexp.MustCompile(`// want "([^"]+)"`)

// runFixture runs one analyzer over the fixture and checks its surviving
// diagnostics against the `// want "regexp"` comments in the source: every
// diagnostic must be expected on its line, and every expectation must be
// hit. Returns the Result for extra assertions (e.g. suppression counts).
func runFixture(t *testing.T, a *Analyzer, pkgPath, src string) Result {
	t.Helper()
	pkg := typeCheckFixture(t, pkgPath, src)
	res := Run([]*Package{pkg}, []*Analyzer{a})

	type want struct {
		re  *regexp.Regexp
		hit bool
	}
	wants := map[int][]*want{}
	for i, line := range strings.Split(src, "\n") {
		for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
			wants[i+1] = append(wants[i+1], &want{re: regexp.MustCompile(m[1])})
		}
	}

	for _, d := range res.Diagnostics {
		matched := false
		for _, w := range wants[d.Pos.Line] {
			if !w.hit && w.re.MatchString(d.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at line %d: [%s] %s", d.Pos.Line, d.Analyzer, d.Message)
		}
	}
	for line, ws := range wants {
		for _, w := range ws {
			if !w.hit {
				t.Errorf("line %d: expected diagnostic matching %q, got none", line, w.re)
			}
		}
	}
	return res
}
