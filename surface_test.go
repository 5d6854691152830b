package eth_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// surfaceAllowed names the exported functions and methods under
// internal/ that may have no non-test use outside their own declaration,
// each with the reason it stays.
var surfaceAllowed = map[string]string{
	// References and fixtures that tests compare against.
	"Intersect":      "rt: the one-ray walk the packet tracer is checked against",
	"RayThrough":     "camera: the per-pixel ray RayGen is checked against",
	"MulPoint":       "vec: the matrix product Projector and Row are checked against",
	"MulPointW":      "vec: the homogeneous product the projection tests read",
	"Tetrahedralize": "data: the only source of unstructured test data",
	"SSIM":           "fb: the structural image-quality metric kept beside RMSE",
	"RaycastSpheres": "rt: build-and-trace in one call, the one reader of SphereOptions.Radius",
	// One-line assertion helpers.
	"MaxComp":  "vec: colour and range assertions",
	"IsFinite": "vec: camera and normal assertions",
	"Mul":      "vec: component-wise product the gradient and shading tests use",
	// Observation hooks.
	"Backlog":    "hub: a subscriber's queued frames, read by the hub tests",
	"Fired":      "faults: which scheduled faults fired, read by the chaos tests",
	"Rows":       "metrics: table rows, read by the paper-table shape tests",
	"Gauges":     "telemetry: registered gauges, read by the registry tests",
	"TestConfig": "experiments: the small configuration the paper-table tests run",
	// Interface methods the standard library calls.
	"Visit":  "lint: ast.Visitor, called by ast.Walk",
	"Import": "lint: types.Importer, called by the type checker",
}

// TestNoTestOnlySurface fails when an exported function or method under
// internal/ is reached by nothing but tests: such a name is surface the
// module carries only so that tests can cover it. A use is any
// identifier with the same name in a non-test file of the module outside
// the declaration itself, so the check matches by name, not by type.
func TestNoTestOnlySurface(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct {
		name, pos  string
		start, end token.Pos
	}
	var decls []decl
	uses := map[string][]token.Pos{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if internal && n.Name.IsExported() {
					decls = append(decls, decl{n.Name.Name, fset.Position(n.Pos()).String(), n.Pos(), n.End()})
				}
			case *ast.Ident:
				uses[n.Name] = append(uses[n.Name], n.Pos())
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var bad []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.name] = true
		if surfaceAllowed[d.name] != "" {
			continue
		}
		used := false
		for _, p := range uses[d.name] {
			used = used || p < d.start || p >= d.end
		}
		if !used {
			bad = append(bad, d.pos+": "+d.name)
		}
	}
	for name := range surfaceAllowed {
		if !declared[name] {
			bad = append(bad, "surfaceAllowed: "+name+" is not declared")
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("%s: delete it, or allow it with a reason", b)
	}
}
