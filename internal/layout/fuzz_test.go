package layout

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzLayoutParse is the hardening gate for the job-layout reader, which
// reads whatever file `ethrun -spec` names: Parse must never panic, and a
// spec it accepts must survive a trip through json.Marshal and Parse
// unchanged — what a tool that rewrites layout files would do to it.
func FuzzLayoutParse(f *testing.F) {
	for _, spec := range []string{goodSpec, xrageSpec, diskSpec} {
		f.Add([]byte(spec))
	}
	for _, to := range unknownFields {
		f.Add([]byte(strings.Replace(goodSpec, `"pairs"`, to, 1)))
	}
	for _, c := range invalidSpecs {
		f.Add([]byte(strings.Replace(goodSpec, c.from, c.to, 1)))
	}
	f.Add([]byte(`{"workload": {"kind": "hacc", "particles": 1, "steps": 1}, "algorithm": "points",
		"image": {"width": 1, "height": 1}, "operations": [], "sampling": {"ratio": -0}, "codec": "delta+flate"}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Parse(raw)
		if err != nil {
			return
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted %q, but it does not marshal: %v", raw, err)
		}
		back, err := Parse(enc)
		if err != nil {
			t.Fatalf("accepted %q, but its marshalled form %s does not parse: %v", raw, enc, err)
		}
		if !reflect.DeepEqual(back, s) {
			t.Fatalf("accepted %q as %+v; its marshalled form %s parses as %+v", raw, s, enc, back)
		}
	})
}
