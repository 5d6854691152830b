package fleet

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/ascr-ecx/eth/internal/journal"
)

// FuzzLoadDoneSet feeds LoadDoneSet bytes a crash, a full disk or a
// hand edit could leave behind: whatever the file holds, it loads or
// returns an error, and never panics. A set built from the fuzzed IDs
// (the text split at NUL) survives Save then LoadDoneSet with the same
// members, and the saved file lists them once each in insertion order.
func FuzzLoadDoneSet(f *testing.F) {
	f.Add([]byte(`{"t":"2026-07-30T22:15:04Z","step":-1,"done":["table1","fig8"],"detail":"last=fig8"}`+"\n"), "table1\x00fig8")
	f.Add([]byte(`{"specs":[{"id":"a"}],"done":["a"],"quarantined":[{"id":"b","attempts":3}]}`), "a\x00a\x00b")
	f.Add([]byte(`{"done": [truncat`), "")
	f.Add([]byte(`null`), "quote\" back\\slash   <tag>")
	f.Fuzz(func(t *testing.T, raw []byte, ids string) {
		path := filepath.Join(t.TempDir(), "sweep.ckpt")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		LoadDoneSet(path)

		// JSON strings carry UTF-8 only: Save replaces other bytes.
		if !utf8.ValidString(ids) {
			return
		}
		d := NewDoneSet()
		for _, id := range strings.Split(ids, "\x00") {
			d.Add(id)
		}
		if err := d.Save(path, "fuzz"); err != nil {
			t.Fatal(err)
		}
		back, err := LoadDoneSet(path)
		if err != nil {
			t.Fatalf("saved set does not load: %v", err)
		}
		var want []string
		for _, id := range strings.Split(ids, "\x00") {
			if !slices.Contains(want, id) {
				want = append(want, id)
			}
			if !back.Has(id) {
				t.Fatalf("ID %q lost in Save+Load", id)
			}
		}
		cp, err := journal.ReadCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if back.Len() != len(want) || !slices.Equal(cp.Done, want) {
			t.Fatalf("IDs after Save+Load = %q (Len %d), want %q", cp.Done, back.Len(), want)
		}
	})
}

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
