package fleet

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzLoadDoneSet feeds the two checkpoint readers bytes a crash, a full
// disk or a hand edit could leave behind: whatever the file holds,
// LoadDoneSet and ReadCheckpoint (the scheduler's fleet.ckpt) load it or
// return an error, and never panic. A set built from the fuzzed IDs (the
// text split at NUL) survives Save then LoadDoneSet with equal IDs().
func FuzzLoadDoneSet(f *testing.F) {
	f.Add([]byte(`{"t":"2026-07-30T22:15:04Z","step":-1,"done":["table1","fig8"],"detail":"last=fig8"}`+"\n"), "table1\x00fig8")
	f.Add([]byte(`{"specs":[{"id":"a"}],"done":["a"],"quarantined":[{"id":"b","attempts":3}]}`), "a\x00a\x00b")
	f.Add([]byte(`{"done": [truncat`), "")
	f.Add([]byte(`null`), "quote\" back\\slash   <tag>")
	f.Fuzz(func(t *testing.T, raw []byte, ids string) {
		dir := t.TempDir()
		path := filepath.Join(dir, CheckpointFile)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if d, err := LoadDoneSet(path); err == nil {
			d.IDs()
		}
		ReadCheckpoint(dir)

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
		if got, want := back.IDs(), d.IDs(); !slices.Equal(got, want) {
			t.Fatalf("IDs after Save+Load = %q, want %q", got, want)
		}
	})
}
