package faults

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzFaultsParse is the hardening gate for the schedule-file parser,
// which reads whatever `ethrun -faults` is pointed at: Parse must never
// panic, and a schedule it accepts must be canonical in one step —
// printing its rules with Rule.String, one per line, and parsing that
// again gives the same rules. A rule that printed as something else (a
// negative corrupt position printed bare, say) would replay a different
// failure than the one the file asked for.
func FuzzFaultsParse(f *testing.F) {
	f.Add(roundTripSchedule)
	for _, line := range strings.Split(roundTripSchedule, "\n") {
		f.Add(line)
	}
	for _, bad := range badSchedules {
		f.Add(bad)
	}
	f.Add("sim:0:write[1]:corrupt=0\nviz:+7:read[007]:delay=-1.5ms\r\n")
	f.Fuzz(func(t *testing.T, text string) {
		s, err := Parse(text, 1)
		if err != nil {
			return
		}
		rules := s.rules
		lines := make([]string, len(rules))
		for i, r := range rules {
			lines[i] = r.String()
		}
		printed := strings.Join(lines, "\n")
		back, err := Parse(printed, 1)
		if err != nil {
			t.Fatalf("accepted %q, but its printed form %q does not parse: %v", text, printed, err)
		}
		if !reflect.DeepEqual(back.rules, rules) {
			t.Fatalf("accepted %q as %+v; its printed form %q parses as %+v", text, rules, printed, back.rules)
		}
	})
}
