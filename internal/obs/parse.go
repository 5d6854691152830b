package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// A minimal Prometheus text-exposition parser — the consumer side of
// prom.go, shared by ethtop (which scrapes /metrics endpoints) and the
// round-trip test (which asserts render→parse→render fidelity). It
// understands exactly the subset the renderer emits: # TYPE comments,
// one metric per line, an optional {label="value",...} set, and
// integer/float sample values (including +Inf).

// Sample is one parsed exposition line.
type Sample struct {
	// Name is the full sample name as rendered (eth_..., including any
	// _total/_bucket/_sum/_count suffix).
	Name string
	// Labels holds the sample's label set.
	Labels map[string]string
	// Value is the sample value. Histogram +Inf bucket bounds live in
	// Labels["le"], not here.
	Value float64
}

// Label returns a label value ("" when absent).
func (s Sample) Label(key string) string { return s.Labels[key] }

// Exposition is a parsed scrape.
type Exposition struct {
	// Types maps metric family name (without sample suffixes) to its
	// declared type (counter, gauge, histogram, summary).
	Types map[string]string
	// Samples holds every sample line in document order.
	Samples []Sample
}

// Find returns all samples with the given name, in document order.
func (e *Exposition) Find(name string) []Sample {
	var out []Sample
	for _, s := range e.Samples {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// Value returns the first sample with the given name and whether one
// exists.
func (e *Exposition) Value(name string) (float64, bool) {
	for _, s := range e.Samples {
		if s.Name == name {
			return s.Value, true
		}
	}
	return 0, false
}

// ParseExposition parses a Prometheus text-format scrape.
func ParseExposition(r io.Reader) (*Exposition, error) {
	exp := &Exposition{Types: map[string]string{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(rest) != 2 {
				return nil, fmt.Errorf("obs: exposition line %d: malformed TYPE comment", lineNo)
			}
			exp.Types[rest[0]] = rest[1]
			continue
		case strings.HasPrefix(line, "#"):
			continue // HELP or free comment
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: exposition line %d: %w", lineNo, err)
		}
		exp.Samples = append(exp.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading exposition: %w", err)
	}
	return exp, nil
}

// parseSample parses `name{labels} value` (labels optional).
func parseSample(line string) (Sample, error) {
	s := Sample{Labels: map[string]string{}}
	rest := line
	if brace := strings.IndexByte(line, '{'); brace >= 0 {
		s.Name = line[:brace]
		end := strings.LastIndexByte(line, '}')
		if end < brace {
			return s, fmt.Errorf("unterminated label set")
		}
		if err := parseLabels(line[brace+1:end], s.Labels); err != nil {
			return s, err
		}
		rest = strings.TrimSpace(line[end+1:])
	} else {
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return s, fmt.Errorf("want `name value`, got %d fields", len(fields))
		}
		s.Name, rest = fields[0], fields[1]
	}
	if s.Name == "" {
		return s, fmt.Errorf("empty metric name")
	}
	// The renderer never emits timestamps, so rest is exactly the value.
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return s, err
	}
	s.Value = v
	return s, nil
}

// parseValue handles floats plus the exposition spellings of infinity.
func parseValue(v string) (float64, error) {
	switch v {
	case "+Inf", "Inf":
		return strconv.ParseFloat("+Inf", 64)
	case "-Inf":
		return strconv.ParseFloat("-Inf", 64)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", v)
	}
	return f, nil
}

// parseLabels parses `k="v",k2="v2"` into dst.
func parseLabels(body string, dst map[string]string) error {
	for _, kv := range splitTopLevel(body) {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("label %q missing =", kv)
		}
		v = strings.TrimSpace(v)
		if len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("label %q value not quoted", kv)
		}
		dst[strings.TrimSpace(k)] = unescapeLabel(v[1 : len(v)-1])
	}
	return nil
}

// splitTopLevel splits a label body on commas outside quoted values.
func splitTopLevel(s string) []string {
	var parts []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				parts = append(parts, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		parts = append(parts, s[start:])
	}
	return parts
}

// unescapeLabel reverses escapeLabel.
func unescapeLabel(v string) string {
	if !strings.Contains(v, `\`) {
		return v
	}
	r := strings.NewReplacer(`\\`, `\`, `\"`, `"`, `\n`, "\n")
	return r.Replace(v)
}
