package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzLoadSweep feeds LoadSweep arbitrary sweep files: it loads them or
// returns an error, and never panics. An accepted sweep holds only specs
// that validate, no two with one ID, and its json.Marshal form written
// back loads to equal specs (an empty Args or Env reads back as absent).
func FuzzLoadSweep(f *testing.F) {
	f.Add([]byte(`[{"id":"a","kind":"run","args":["-particles","1000"]},{"id":"b.1","kind":"bench","retries":-1}]`))
	f.Add([]byte(`[{"id":"x_2","kind":"exec","args":["/bin/true"],"env":["A=1"],"retries":2}]`))
	f.Add([]byte(`[{"id":"a","kind":"run","args":[],"env":[]}]`))
	f.Add([]byte(`[{"id":"a","kind":"run"},{"id":"a","kind":"bench"}]`))
	f.Add([]byte(`[{"id":".hidden","kind":"run"},{"id":"a","kind":"exec"},{"id":"b","kind":"run","retries":-2}]`))
	f.Add([]byte(`[null]`))
	f.Add([]byte(`{"id":"a","kind":"run"}`))
	f.Add([]byte(`[{"id":"a","kind":"run"`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "sweep.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		specs, err := LoadSweep(path)
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for i, s := range specs {
			if err := s.Validate(); err != nil {
				t.Fatalf("accepted entry %d does not validate: %v", i, err)
			}
			if seen[s.ID] {
				t.Fatalf("accepted entry %d repeats id %q", i, s.ID)
			}
			seen[s.ID] = true
		}
		out, err := json.Marshal(specs)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		back, err := LoadSweep(path)
		if err != nil {
			t.Fatalf("marshalled sweep %s does not load: %v", out, err)
		}
		if !slices.EqualFunc(back, specs, func(a, b Spec) bool {
			return a.ID == b.ID && a.Kind == b.Kind && a.Retries == b.Retries &&
				slices.Equal(a.Args, b.Args) && slices.Equal(a.Env, b.Env)
		}) {
			t.Fatalf("sweep %s loaded back as %+v, want %+v", out, back, specs)
		}
	})
}
