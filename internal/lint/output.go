package lint

// Machine-readable renderings of a Result: a compact JSON form for
// scripting and SARIF 2.1.0 for CI code-scanning annotation. Both render
// file paths relative to the module root so output is stable across
// checkouts.

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"
)

// jsonDiag mirrors Diagnostic with a root-relative file path.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

type jsonResult struct {
	Diagnostics []jsonDiag `json:"diagnostics"`
	Suppressed  int        `json:"suppressed"`
	Ignores     int        `json:"ignores"`
}

// WriteJSON renders the result as one JSON document.
func WriteJSON(w io.Writer, res Result, root string) error {
	out := jsonResult{Diagnostics: []jsonDiag{}, Suppressed: res.Suppressed, Ignores: res.Ignores}
	for _, d := range res.Diagnostics {
		out.Diagnostics = append(out.Diagnostics, jsonDiag{
			Analyzer: d.Analyzer,
			File:     relPath(d.Pos.Filename, root),
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SARIF 2.1.0 skeleton — only the fields code-scanning consumers read.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysical `json:"physicalLocation"`
}

type sarifPhysical struct {
	ArtifactLocation sarifArtifact `json:"artifactLocation"`
	Region           sarifRegion   `json:"region"`
}

type sarifArtifact struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders the result as a SARIF 2.1.0 log. analyzers supplies
// the rule metadata (every analyzer that ran, not just those that fired).
func WriteSARIF(w io.Writer, res Result, analyzers []*Analyzer, root string) error {
	driver := sarifDriver{
		Name:  "ethlint",
		Rules: []sarifRule{},
	}
	for _, a := range analyzers {
		driver.Rules = append(driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifMessage{Text: a.Doc},
		})
	}
	// The driver pseudo-analyzer reports malformed //lint:ignore lines.
	driver.Rules = append(driver.Rules, sarifRule{
		ID:               "directive",
		ShortDescription: sarifMessage{Text: "//lint:ignore directives must name a known analyzer and a reason"},
	})

	run := sarifRun{Tool: sarifTool{Driver: driver}, Results: []sarifResult{}}
	for _, d := range res.Diagnostics {
		run.Results = append(run.Results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifMessage{Text: d.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysical{
					ArtifactLocation: sarifArtifact{URI: filepath.ToSlash(relPath(d.Pos.Filename, root))},
					Region:           sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
				},
			}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs:    []sarifRun{run},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// relPath renders path relative to root when it is inside it.
func relPath(path, root string) string {
	if root == "" {
		return path
	}
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
