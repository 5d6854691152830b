package obs

import (
	"strings"
	"testing"
)

// FuzzParseExposition is the hardening gate for the exposition parser,
// which reads whatever a scraped endpoint answers (ethtop): it must
// never panic on any input, and a label value rendered by escapeLabel
// must parse back to exactly the string that was rendered — a run name
// with quotes, backslashes, commas, braces or newlines included.
func FuzzParseExposition(f *testing.F) {
	f.Add("trace.jsonl", "# TYPE eth_steps_total counter\neth_steps_total{role=\"viz\"} 42\n")
	f.Add(`a"b\c`+"\nd", `eth_x_bucket{role="sim",run="r",le="+Inf"} 3`)
	f.Add(`},{="\\n`, "eth_x{role=\"a\\\"\",run=\"\\\\\"} -Inf\n# HELP x\n\n")
	f.Add(" \t ", "eth_x{ 1\neth_y{a=b} 2\n# TYPE\n")
	f.Fuzz(func(t *testing.T, run, doc string) {
		ParseExposition(strings.NewReader(doc))

		line := `eth_steps_total{role="viz",run="` + escapeLabel(run) + `"} 1` + "\n"
		exp, err := ParseExposition(strings.NewReader(line))
		if err != nil {
			t.Fatalf("run %q: rendered line %q does not parse: %v", run, line, err)
		}
		if len(exp.Samples) != 1 {
			t.Fatalf("run %q: %d samples, want 1", run, len(exp.Samples))
		}
		if got := exp.Samples[0].Label("run"); got != run {
			t.Fatalf("run %q: rendered as %q, parses back as %q", run, line, got)
		}
	})
}
