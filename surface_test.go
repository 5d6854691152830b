package eth_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/ascr-ecx/eth/internal/lint"
)

// surfaceAllowed names, by qualified name, the declarations under
// internal/ that no non-test code reaches, each with the reason it stays.
var surfaceAllowed = map[string]string{
	// References, oracles and fixtures that tests compare against.
	"rt.SphereBVH.Intersect":   "the one-ray walk the packet tracer is checked against",
	"rt.SphereBVH.Validate":    "the structural oracle of the BVH property tests",
	"rt.RaycastSpheres":        "build-and-trace in one call, the one reader of SphereOptions.Radius, which bench/ethperf sets",
	"camera.Camera.RayThrough": "the per-pixel ray RayGen is checked against",
	"vec.M4.MulPoint":          "the matrix product Projector and Row are checked against",
	"vec.M4.MulPointW":         "the homogeneous product the projection tests read",
	"data.Tetrahedralize":      "the only source of unstructured test data",
	"fb.SSIM":                  "the structural image-quality metric kept beside RMSE",
	"experiments.TestConfig":   "the small configuration the paper-table tests run",
	// One-line assertion helpers.
	"vec.V3.MaxComp":  "colour and range assertions",
	"vec.V3.IsFinite": "camera and normal assertions",
	"vec.V3.Mul":      "the component-wise product the gradient and shading tests use",
	"fb.Frame.Set":    "writes one pixel of the compositing and image-metric fixtures",
	"fb.Frame.At":     "reads one pixel in the renderer and compositor assertions",
	// Observation hooks.
	"hub.Hub.Backlog":       "a subscriber's queued frames, read by the hub tests",
	"faults.Schedule.Fired": "which scheduled faults fired, read by the chaos tests",
	"metrics.Table.Rows":    "table rows, read by the paper-table shape tests",
	"power.Meter.Samples":   "the paper's 5-second power samples, read by the cluster tests",
	// Seams the tests drive the product through.
	"obs.Config.Registry":          "an obs server over a private registry, so tests do not share telemetry.Default",
	"obs.Config.Health":            "a shared Health, so the readiness tests flip the roles the server reports",
	"coupling.Policy.Backoff":      "the reconnect dial policy the chaos tests shorten",
	"fleet.Config.BackoffBase":     "requeue backoff the fleet chaos tests shorten",
	"fleet.Config.BackoffMax":      "requeue backoff the fleet chaos tests shorten",
	"fleet.Config.Poll":            "the ingestion poll the fleet chaos tests shorten",
	"supervise.Config.BackoffBase": "restart backoff the supervision tests shorten",
	"supervise.Config.BackoffMax":  "restart backoff the supervision tests shorten",
	"hub.Script":                   "a scripted steering source: the replay tests steer without a viewer",
	"hub.Script.Entries":           "the scripted steering source's entries",
	"hub.ScriptEntry.Step":         "the scripted steering source's entries",
	"hub.ScriptEntry.Msg":          "the scripted steering source's entries",
	"proxy.FuncSource":             "a generated step source the proxy and coupling tests run",
	"proxy.FuncSource.N":           "the generated step source's step count",
	"proxy.FuncSource.Fn":          "the generated step source's generator",
	"journal.NewWriter":            "the one journal over an io.Writer: the sticky-error test fails its writes, the live-tail test counts them",
	// Tuning values the product leaves at their defaults.
	"rt.DVROptions.OpacityScale":     "the volume renderer's opacity scale",
	"analysis.FOFOptions.LinkLength": "the halo finder's linking length",
	"analysis.FOFOptions.MinMembers": "the halo finder's minimum halo size",
	"render.Options.SlicePoint":      "the slice renderers' plane",
	"render.Options.SliceNormal":     "the slice renderers' plane",
	"render.Options.Radius":          "the sort-last test needs one global sprite radius",
	"geom.ShadeOptions.Light":        "the shading tests' light direction",
}

// TestNoTestOnlySurface fails when a function, method, named type or
// settable field under internal/ is reached by nothing but tests: such a
// declaration is surface the module carries only so that tests can cover
// it. It also fails on an allowlist entry that no longer names such a
// declaration.
func TestNoTestOnlySurface(t *testing.T) {
	found, err := testOnlySurface(".")
	if err != nil {
		t.Fatal(err)
	}
	reported := map[string]bool{}
	for _, f := range found {
		reported[f.name] = true
		if surfaceAllowed[f.name] == "" {
			t.Errorf("%s: %s is reached only by tests: delete it, or allow it with a reason", f.pos, f.name)
		}
	}
	for name := range surfaceAllowed {
		if !reported[name] {
			t.Errorf("surfaceAllowed: %s is not test-only surface: remove the entry", name)
		}
	}
}

// TestSurfaceGateFixture runs the gate on a small module whose internal
// package holds one of each case it must report and of each it must not.
func TestSurfaceGateFixture(t *testing.T) {
	found, err := testOnlySurface("testdata/surface")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range found {
		got = append(got, f.name)
	}
	want := []string{"lib.Batch.Flush", "lib.Config.Debug", "lib.Fake", "lib.TestOnly"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gate reports %q, want %q", got, want)
	}
}

type surfaceFinding struct{ name, pos string }

// testOnlySurface type-checks the non-test files of the module at root and
// returns, sorted by qualified name, what is declared under internal/ and
// reached by no non-test code:
//   - a function or method that no identifier resolves to outside its own
//     declaration, unless it is a method of an interface its type
//     satisfies (one declared in the module, error, fmt.Stringer,
//     io.Reader, io.Writer, ast.Visitor, types.Importer, rand.Source or
//     rand.Source64);
//   - a named type used nowhere outside its declaration and its methods;
//   - an exported field, of a struct without json tags, that nothing
//     writes (keyed or positional literal, assignment, ++/--, &x.f).
func testOnlySurface(root string) ([]surfaceFinding, error) {
	pkgs, err := lint.LoadModule(root)
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	s := &surfaceScan{uses: map[types.Object][]token.Pos{}, names: map[types.Object]string{}, written: map[types.Object]bool{}}
	for _, p := range pkgs {
		s.collect(p)
	}
	s.addStdInterfaces(pkgs)
	var found []surfaceFinding
	for _, p := range pkgs {
		rel, _ := filepath.Rel(abs, p.Dir)
		if rel != "internal" && !strings.HasPrefix(filepath.ToSlash(rel), "internal/") {
			continue
		}
		for _, obj := range s.unreached(p) {
			pos := p.Fset.Position(obj.Pos())
			file, _ := filepath.Rel(abs, pos.Filename)
			found = append(found, surfaceFinding{s.names[obj], filepath.ToSlash(file) + ":" + strconv.Itoa(pos.Line)})
		}
	}
	sort.Slice(found, func(i, j int) bool { return found[i].name < found[j].name })
	return found, nil
}

type surfaceScan struct {
	uses       map[types.Object][]token.Pos // by origin, every non-test use (selectors included)
	names      map[types.Object]string      // qualified names of the declarations
	written    map[types.Object]bool        // fields some non-test code writes
	interfaces []*types.Interface
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// collect records the package's uses, field writes and interfaces.
func (s *surfaceScan) collect(p *lint.Package) {
	info := p.Info
	for id, obj := range info.Uses {
		s.uses[origin(obj)] = append(s.uses[origin(obj)], id.Pos())
	}
	for _, name := range p.Types.Scope().Names() {
		if tn, ok := p.Types.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				s.interfaces = append(s.interfaces, it)
			}
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, ok := info.TypeOf(n).Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if key, ok := kv.Key.(*ast.Ident); ok && info.Uses[key] != nil {
							s.written[origin(info.Uses[key])] = true
						}
					} else if i < st.NumFields() {
						s.written[origin(st.Field(i))] = true
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					s.write(info, lhs)
				}
			case *ast.IncDecStmt:
				s.write(info, n.X)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					s.write(info, n.X)
				}
			}
			return true
		})
	}
}

// write marks the fields an assignment to e writes: the selected field,
// and the fields holding it by value (x.f.g = v writes g and f, x.p.g = v
// with p a pointer writes only g).
func (s *surfaceScan) write(info *types.Info, e ast.Expr) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); !ok {
				return
			}
			e = x.X
		case *ast.SelectorExpr:
			sel := info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			s.written[origin(sel.Obj())] = true
			if _, ok := info.TypeOf(x.X).Underlying().(*types.Pointer); ok {
				return
			}
			e = x.X
		default:
			return
		}
	}
}

// addStdInterfaces adds the standard-library interfaces whose methods
// other packages call, found in the module's import graph so that their
// types are the ones the module was checked against.
func (s *surfaceScan) addStdInterfaces(pkgs []*lint.Package) {
	s.interfaces = append(s.interfaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	want := map[string][]string{"fmt": {"Stringer"}, "io": {"Reader", "Writer"}, "go/ast": {"Visitor"}, "go/types": {"Importer"}, "math/rand": {"Source", "Source64"}}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range want[p.Path()] {
			s.interfaces = append(s.interfaces, p.Scope().Lookup(name).Type().Underlying().(*types.Interface))
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
}

// unreached returns the package's declarations no non-test code reaches.
func (s *surfaceScan) unreached(p *lint.Package) []types.Object {
	info := p.Info
	type span struct{ start, end token.Pos }
	own := map[types.Object][]span{} // where a declaration's own uses do not count
	var funcs []*types.Func
	var typeNames, fields []types.Object
	pkg := path.Base(p.PkgPath)
	// addFields collects the exported fields of the structs under n,
	// naming them after owner, the declaration holding them.
	addFields := func(n ast.Node, owner string) {
		ast.Inspect(n, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok || hasJSONTag(st) {
				return true
			}
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					if name.IsExported() {
						obj := info.Defs[name]
						fields = append(fields, obj)
						s.names[obj] = owner + "." + name.Name
					}
				}
			}
			return true
		})
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := info.Defs[d.Name].(*types.Func)
				if d.Recv == nil && d.Name.Name == "init" {
					continue
				}
				s.names[fn] = pkg + "." + fn.Name()
				if recv := receiverType(fn); recv != nil {
					own[recv] = append(own[recv], span{d.Pos(), d.End()})
					s.names[fn] = pkg + "." + recv.Name() + "." + fn.Name()
				}
				funcs = append(funcs, fn)
				own[fn] = append(own[fn], span{d.Pos(), d.End()})
				addFields(d, s.names[fn])
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						addFields(spec, pkg)
						continue
					}
					tn := info.Defs[ts.Name]
					typeNames = append(typeNames, tn)
					own[tn] = append(own[tn], span{ts.Pos(), ts.End()})
					s.names[tn] = pkg + "." + tn.Name()
					addFields(ts, s.names[tn])
				}
			}
		}
	}
	reached := func(obj types.Object) bool {
	uses:
		for _, pos := range s.uses[obj] {
			for _, sp := range own[obj] {
				if sp.start <= pos && pos < sp.end {
					continue uses
				}
			}
			return true
		}
		return false
	}
	var out []types.Object
	for _, fn := range funcs {
		if !reached(fn) && !s.implements(fn) {
			out = append(out, fn)
		}
	}
	for _, tn := range typeNames {
		if !reached(tn) {
			out = append(out, tn)
		}
	}
	for _, fld := range fields {
		if !s.written[fld] {
			out = append(out, fld)
		}
	}
	return out
}

// receiverType returns the type name of fn's receiver, nil for a function.
func receiverType(fn *types.Func) types.Object {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Origin().Obj()
	}
	return nil
}

// implements reports whether fn is a method some interface calls: its
// receiver's type, or a pointer to it, satisfies an interface with a
// method of fn's name.
func (s *surfaceScan) implements(fn *types.Func) bool {
	recv := receiverType(fn)
	if recv == nil {
		return false
	}
	t := recv.Type()
	for _, it := range s.interfaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}

func hasJSONTag(st *ast.StructType) bool {
	for _, f := range st.Fields.List {
		if f.Tag != nil && strings.Contains(f.Tag.Value, `json:"`) {
			return true
		}
	}
	return false
}
