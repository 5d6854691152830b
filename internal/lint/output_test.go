package lint

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"
)

func sampleResult() Result {
	return Result{
		Diagnostics: []Diagnostic{
			{
				Analyzer: "errwrap",
				Pos:      token.Position{Filename: "/mod/internal/x/x.go", Line: 12, Column: 3},
				Message:  "error argument formatted with %v; use %w so errors.Is/As see the cause",
			},
			{
				Analyzer: "ctxguard",
				Pos:      token.Position{Filename: "/elsewhere/y.go", Line: 4, Column: 1},
				Message:  "loop never observes ctx.Done()",
			},
		},
		Suppressed: 2,
		Ignores:    5,
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, sampleResult(), "/mod"); err != nil {
		t.Fatal(err)
	}
	var got jsonResult
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(got.Diagnostics) != 2 || got.Suppressed != 2 || got.Ignores != 5 {
		t.Fatalf("round trip lost fields: %+v", got)
	}
	if got.Diagnostics[0].File != "internal/x/x.go" {
		t.Errorf("in-module path not root-relative: %q", got.Diagnostics[0].File)
	}
	if got.Diagnostics[1].File != "/elsewhere/y.go" {
		t.Errorf("out-of-module path mangled: %q", got.Diagnostics[1].File)
	}
	if got.Diagnostics[0].Line != 12 || got.Diagnostics[0].Column != 3 {
		t.Errorf("position lost: %+v", got.Diagnostics[0])
	}
}

func TestWriteJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, Result{}, ""); err != nil {
		t.Fatal(err)
	}
	// diagnostics must be [] rather than null so consumers can iterate.
	if !strings.Contains(buf.String(), `"diagnostics": []`) {
		t.Errorf("empty result should render an empty array:\n%s", buf.String())
	}
}

func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, sampleResult(), All(), "/mod"); err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Fatalf("wrong SARIF version marker: %s %s", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "ethlint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	// Every analyzer that ran becomes a rule, plus the directive
	// pseudo-rule for malformed //lint:ignore lines.
	if want := len(All()) + 1; len(run.Tool.Driver.Rules) != want {
		t.Errorf("rules = %d, want %d", len(run.Tool.Driver.Rules), want)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		if r.ShortDescription.Text == "" {
			t.Errorf("rule %s has no description", r.ID)
		}
		ruleIDs[r.ID] = true
	}
	if len(run.Results) != 2 {
		t.Fatalf("results = %d, want 2", len(run.Results))
	}
	r0 := run.Results[0]
	if !ruleIDs[r0.RuleID] {
		t.Errorf("result rule %q not declared by the driver", r0.RuleID)
	}
	if r0.Level != "error" {
		t.Errorf("level = %q, want error", r0.Level)
	}
	loc := r0.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/x/x.go" {
		t.Errorf("URI not root-relative slash form: %q", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 12 || loc.Region.StartColumn != 3 {
		t.Errorf("region lost: %+v", loc.Region)
	}
}

func TestWriteSARIFEmptyResults(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, Result{}, nil, ""); err != nil {
		t.Fatal(err)
	}
	// results must be [] rather than null — GitHub's SARIF ingestion
	// rejects a null results array.
	if !strings.Contains(buf.String(), `"results": []`) {
		t.Errorf("empty run should render an empty results array:\n%s", buf.String())
	}
}
