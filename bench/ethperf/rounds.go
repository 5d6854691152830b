package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"
)

// childRun is what one re-executed single-workload run printed.
type childRun struct {
	Res result
	Det detail
}

// spawn re-executes this binary for one workload. Each workload gets a
// fresh process so peak RSS, allocation counters and telemetry.Default
// start clean. A child that reports failures exits non-zero but still
// prints its lines; only a child that printed nothing is an error.
func spawn(o options, w workload, trace bool) (childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return childRun{}, fmt.Errorf("ethperf: locating own binary: %w", err)
	}
	args := []string{
		"-workload", w.Name,
		"-seed", strconv.FormatInt(o.Seed, 10),
		"-seconds", strconv.Itoa(o.Seconds),
		"-trace=" + strconv.FormatBool(trace),
		"-scratch", o.Scratch,
	}
	if o.Quick {
		args = append(args, "-quick")
	}
	if trace && o.TraceOut != "" {
		args = append(args, "-trace-out", filepath.Join(o.TraceOut, w.Name+".trace.json"))
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(lines) < 2 {
		return childRun{}, fmt.Errorf("ethperf: %s printed no result: %w", w.Name, runErr)
	}
	var run childRun
	if err := json.Unmarshal(lines[len(lines)-2], &run.Det); err != nil {
		return childRun{}, fmt.Errorf("ethperf: %s detail line: %w", w.Name, err)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &run.Res); err != nil {
		return childRun{}, fmt.Errorf("ethperf: %s result line: %w", w.Name, err)
	}
	return run, nil
}

// series collects one workload's runs of one kind (end-to-end or traced)
// within one set.
type series struct {
	runs []childRun
}

func (s *series) values(metric string) []float64 {
	var vals []float64
	for _, r := range s.runs {
		vals = append(vals, r.Res.Metrics[metric].Value)
	}
	return vals
}

func (s *series) failed() int {
	n := 0
	for _, r := range s.runs {
		n += r.Res.Failed
	}
	return n
}

// aaRow is one line of the A/A table.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Set1     float64 `json:"set1_median"`
	Set2     float64 `json:"set2_median"`
	Diff     float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	OK       bool    `json:"ok"`
}

// compareSets builds the A/A table from two sets of runs of the same
// binary: per metric the two medians, their relative difference, and
// whether it is within the bound.
func compareSets(name string, a, b *series) []aaRow {
	var rows []aaRow
	for _, m := range endToEnd {
		m1, m2 := median(a.values(m.Name)), median(b.values(m.Name))
		row := aaRow{Workload: name, Metric: m.Name, Unit: m.Unit, Set1: m1, Set2: m2, Bound: m.Bound}
		if m1 != 0 {
			row.Diff = math.Abs(m2-m1) / math.Abs(m1)
		}
		row.OK = row.Diff <= m.Bound
		rows = append(rows, row)
	}
	return rows
}

// report is the machine-readable form of one workload's runs.
type report struct {
	detail
	OpsAttempted int                     `json:"ops_attempted"`
	OpsFailed    int                     `json:"ops_failed"`
	Rounds       int                     `json:"rounds"`
	Metrics      map[string]metricReport `json:"metrics"`
	Layers       map[string]metricReport `json:"layers,omitempty"`
}

// metricReport is one metric over the rounds: the median is the value.
type metricReport struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Q1    float64   `json:"q1"`
	Q3    float64   `json:"q3"`
	Runs  []float64 `json:"runs"`
}

func summarize(defs []metricDef, s *series) map[string]metricReport {
	out := map[string]metricReport{}
	for _, m := range defs {
		vals := s.values(m.Name)
		out[m.Name] = metricReport{
			Value: median(vals), Unit: m.Unit,
			Q1: percentile(vals, 25), Q3: percentile(vals, 75), Runs: vals,
		}
	}
	return out
}

// runAll runs every workload -rounds times, interleaved round-robin (A B
// C D A B C D …) so machine drift lands on every workload — and, with
// -aa, on both sets — alike. It returns the process exit code.
func runAll(o options) int {
	sets := 1
	if o.AA {
		sets = 2
	}
	e2e := make([]map[string]*series, sets)
	traced := map[string]*series{}
	for s := range e2e {
		e2e[s] = map[string]*series{}
		for _, w := range workloads {
			e2e[s][w.Name] = &series{}
			traced[w.Name] = &series{}
		}
	}
	if o.Trace && o.TraceOut != "" {
		if err := os.MkdirAll(o.TraceOut, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	var runErr error
	for round := 0; round < o.Rounds; round++ {
		for s := 0; s < sets; s++ {
			for _, w := range workloads {
				passes := []bool{false}
				if o.Trace && !o.AA {
					passes = append(passes, true)
				}
				for _, trace := range passes {
					fmt.Fprintf(os.Stderr, "ethperf: round %d/%d set %d/%d %s trace=%v\n",
						round+1, o.Rounds, s+1, sets, w.Name, trace)
					run, err := spawn(o, w, trace)
					if err != nil {
						runErr = errors.Join(runErr, err)
						continue
					}
					if trace {
						traced[w.Name].runs = append(traced[w.Name].runs, run)
					} else {
						e2e[s][w.Name].runs = append(e2e[s][w.Name].runs, run)
					}
				}
			}
		}
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, runErr)
		return 1
	}

	code := 0
	var reports []report
	for _, w := range workloads {
		s := e2e[0][w.Name]
		last := s.runs[len(s.runs)-1]
		rep := report{
			detail: last.Det, Rounds: len(s.runs),
			OpsAttempted: last.Res.Attempted,
			Metrics:      summarize(endToEnd, s),
		}
		for i := range e2e {
			rep.OpsFailed += e2e[i][w.Name].failed()
		}
		if t := traced[w.Name]; len(t.runs) > 0 {
			rep.Layers = summarize(perLayer(), t)
			rep.OpsFailed += t.failed()
			for _, r := range t.runs {
				rep.Failures = append(rep.Failures, r.Det.Failures...)
			}
		}
		if rep.OpsFailed > 0 {
			code = 1
		}
		reports = append(reports, rep)
	}
	var table []aaRow
	if o.AA {
		for _, w := range workloads {
			table = append(table, compareSets(w.Name, e2e[0][w.Name], e2e[1][w.Name])...)
		}
		for _, row := range table {
			if !row.OK {
				code = 1
			}
		}
	}

	if o.JSON {
		out := struct {
			Date      string   `json:"date"`
			NProc     int      `json:"nproc"`
			GoVersion string   `json:"go_version"`
			Workloads []report `json:"workloads"`
			AA        []aaRow  `json:"aa,omitempty"`
		}{time.Now().UTC().Format("2006-01-02"), runtime.NumCPU(), runtime.Version(), reports, table}
		b, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(b))
		return code
	}
	for _, rep := range reports {
		printReport(rep)
	}
	if o.AA {
		printAA(table)
	}
	return code
}

func printReport(rep report) {
	fmt.Printf("%s  seed %d, %d+%d steps, GOMAXPROCS %d, %s, %d round(s)\n",
		rep.Workload, rep.Seed, rep.Warm, rep.Measured, rep.GoMaxProcs, rep.GoVersion, rep.Rounds)
	fmt.Printf("  ops_attempted %d  ops_failed %d  golden_match %s  final frame: covered %.4f luminance %.4f sig %s\n",
		rep.OpsAttempted, rep.OpsFailed, rep.GoldenMatch, rep.Final.Covered, rep.Final.Luma, rep.Final.Sig)
	for _, f := range rep.Failures {
		fmt.Printf("  FAILED: %s\n", f)
	}
	printMetrics(endToEnd, rep.Metrics)
	fmt.Printf("  last run as the clock read it (reference kernel %.2f ms; %.1f when quiet):", rep.Raw["reference_ms"], refKernelMs)
	for _, m := range endToEnd {
		if v, ok := rep.Raw[m.Name]; ok {
			fmt.Printf(" %s %.4f", m.Name, v)
		}
	}
	fmt.Println()
	if rep.Layers != nil {
		fmt.Println("  -- per layer (traced pass) --")
		printMetrics(perLayer(), rep.Layers)
	}
	fmt.Println()
}

func printMetrics(defs []metricDef, vals map[string]metricReport) {
	for _, m := range defs {
		v := vals[m.Name]
		fmt.Printf("  %-30s %14.4f %-6s", m.Name, v.Value, v.Unit)
		if len(v.Runs) > 1 {
			fmt.Printf("  q1 %.4f  q3 %.4f  runs %v", v.Q1, v.Q3, v.Runs)
		}
		fmt.Println()
	}
}

func printAA(table []aaRow) {
	fmt.Printf("A/A self-check: nproc %d, %s, %s\n", runtime.NumCPU(), runtime.Version(),
		time.Now().UTC().Format("2006-01-02"))
	fmt.Printf("%-16s %-24s %14s %14s %8s %8s\n", "workload", "metric", "set 1 median", "set 2 median", "diff %", "bound %")
	for _, r := range table {
		verdict := ""
		if !r.OK {
			verdict = "  EXCEEDED"
		}
		fmt.Printf("%-16s %-24s %14.4f %14.4f %8.2f %8.2f%s\n",
			r.Workload, r.Metric, r.Set1, r.Set2, 100*r.Diff, 100*r.Bound, verdict)
	}
}
