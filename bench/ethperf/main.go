// Command ethperf is the repo's end-to-end pipeline benchmark: four
// workloads through sim → sample → serialize → codec/wire → decode →
// render → composite → hub → viewer, closed loop over real loopback
// sockets, reporting what a user experiences (frames/s, step period,
// step-to-viewer latency, CPU, allocation, RSS, wire bytes, set-up) and,
// in a separate traced pass, a per-layer ledger whose rows add up to the
// step period. See bench/README.md for definitions.
//
//	go run ./bench/ethperf                 every workload once, end-to-end metrics
//	go run ./bench/ethperf -trace          plus the per-layer ledger, counts and probes
//	go run ./bench/ethperf -rounds 5       interleaved rounds, medians and quartiles
//	go run ./bench/ethperf -aa -rounds 3   A/A self-check against the bounds
//
// With -workload it runs that one workload in this process and prints a
// single JSON result as its last line (the protocol BENCHMARK.json's
// command speaks); without, it re-executes itself once per workload so no
// run inherits another's heap, peak RSS or telemetry.
//
// Every run uses one CPU (goMaxProcs): on the two-vCPU box the benchmark
// is sized for, the second CPU's share comes and goes, and with it any
// number that depends on two (bench/README.md, "Why one CPU").
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// options are the command's flags.
type options struct {
	Workload string
	Seed     int64
	Seconds  int
	Trace    bool
	Quick    bool
	Rounds   int
	AA       bool
	JSON     bool
	TraceOut string
	Scratch  string
}

// goMaxProcs is the GOMAXPROCS of every run, recorded in its output. It is
// a constant, not min(nproc, 2): with two the same code's step period
// spread 12–24 % between runs on this box, with one 1–3 %.
const goMaxProcs = 1

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// detail is the line before it: what the result's fixed shape has no
// room for.
type detail struct {
	Workload    string     `json:"workload"`
	Seed        int64      `json:"seed"`
	GoMaxProcs  int        `json:"gomaxprocs"`
	GoVersion   string     `json:"go_version"`
	Warm        int        `json:"warm_steps"`
	Measured    int        `json:"measured_steps"`
	Failures    []string   `json:"failures,omitempty"`
	GoldenMatch string     `json:"golden_match"`
	Final       frameStats `json:"final_frame"`
	EpochSigs   []string   `json:"epoch_sigs"`
	// Raw holds the timings as the clock read them, before they were
	// scaled to the quiet machine, and reference_ms, the reference
	// kernel's median time over the window (refKernelMs when quiet).
	Raw    map[string]float64 `json:"raw"`
	Counts map[string]float64 `json:"counts"`
}

func parseFlags(args []string) (options, error) {
	// The driver passes "--trace 0|1"; a bare "-trace" is the human form.
	// Fold both into "-trace=<bool>" before the flag package sees them.
	var norm []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			norm = append(norm, "-trace="+args[i+1])
			i++
			continue
		}
		norm = append(norm, a)
	}
	var o options
	fs := flag.NewFlagSet("ethperf", flag.ContinueOnError)
	fs.StringVar(&o.Workload, "workload", "", "run this one workload in-process and print one JSON result line")
	fs.Int64Var(&o.Seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&o.Seconds, "seconds", nominalSeconds, "window the step counts are scaled to (counts are fixed for a given value)")
	fs.BoolVar(&o.Trace, "trace", false, "run the traced pass: per-layer ledger, counts and kernel probes")
	fs.BoolVar(&o.Quick, "quick", false, "smoke sizes: 2 warm-up + 4 measured steps, one call per probe")
	fs.IntVar(&o.Rounds, "rounds", 1, "rounds over all workloads, interleaved round-robin")
	fs.BoolVar(&o.AA, "aa", false, "A/A self-check: two interleaved sets of -rounds rounds, compared against the bounds")
	fs.BoolVar(&o.JSON, "json", false, "machine-readable output: one JSON object per workload")
	fs.StringVar(&o.TraceOut, "trace-out", "", "with -trace: write Chrome trace JSON here (a file with -workload, else a directory)")
	fs.StringVar(&o.Scratch, "scratch", ".", "directory for the run's rendezvous files (removed afterwards)")
	if err := fs.Parse(norm); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("ethperf: unexpected argument %q", fs.Arg(0))
	}
	if o.Seconds < 1 || o.Rounds < 1 {
		return o, fmt.Errorf("ethperf: -seconds and -rounds must be at least 1")
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(goMaxProcs)
	if o.Workload != "" {
		os.Exit(runOne(o))
	}
	os.Exit(runAll(o))
}

// runOne runs one workload in this process and prints the detail and
// result lines. It returns the process exit code.
func runOne(o options) int {
	w, err := findWorkload(o.Workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	out, err := measure(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	res := out.result(o.Trace)
	for _, line := range []any{out.Det, res} {
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(b))
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// outcome is what measuring one workload produced. E2E comes from the
// untraced pass; Layer is set only with -trace.
type outcome struct {
	E2E, Layer        map[string]float64
	Attempted, Failed int
	Det               detail
}

// result shapes the outcome as the last output line: the end-to-end
// metrics, or with trace the per-layer ones.
func (out outcome) result(trace bool) result {
	defs, values := endToEnd, out.E2E
	if trace {
		defs, values = perLayer(), out.Layer
	}
	res := result{
		Correct: out.Failed == 0, Attempted: out.Attempted, Failed: out.Failed,
		Metrics: map[string]metricValue{},
	}
	for _, m := range defs {
		res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
	}
	return res
}

// measure generates the workload's data and runs the end-to-end pass;
// with -trace that pass is shortened and followed by a traced pass of the
// same length (the difference between the two is the tracing overhead)
// and by the kernel probes.
func measure(w workload, o options) (outcome, error) {
	t0 := time.Now()
	if o.Quick {
		w.Epochs = min(w.Epochs, quickEpochs)
	}
	epochs, genTimes, err := w.generate(o.Seed)
	if err != nil {
		return outcome{}, err
	}
	sz := w.untracedSizes(o.Seconds, o.Quick)
	if o.Trace {
		sz = w.tracedSizes(o.Seconds, o.Quick)
	}
	pass, err := runPass(w, o.Seed, sz, epochs, t0, o.Scratch, false)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{E2E: pass.E2E, Attempted: pass.Attempted, Failed: pass.Failed}
	raw := pass.Raw
	failures := pass.Failures
	if o.Trace {
		// The first pass's retained frames would otherwise sit in the
		// second pass's heap.
		plainP50 := pass.E2E["step_ms_p50"]
		runtime.GC()
		debug.FreeOSMemory()
		if pass, err = runPass(w, o.Seed, sz, epochs, t0, o.Scratch, true); err != nil {
			return outcome{}, err
		}
		out.Attempted += pass.Attempted
		out.Failed += pass.Failed
		failures = append(failures, pass.Failures...)
		out.Layer = pass.Layer
		if plainP50 > 0 {
			out.Layer["trace.overhead_pct"] = 100 * (pass.E2E["step_ms_p50"] - plainP50) / plainP50
		}
		calls := probeCalls
		if o.Quick {
			calls = 1
		}
		probes, err := runProbes(w, epochs, genTimes, calls)
		if err != nil {
			return outcome{}, err
		}
		for k, v := range probes {
			out.Layer[k] = v
		}
		if o.TraceOut != "" {
			if err := writeTrace(o.TraceOut, pass.spans); err != nil {
				return outcome{}, err
			}
		}
	}
	out.Det = detail{
		Workload: w.Name, Seed: o.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Warm: sz.Warm, Measured: sz.Measured,
		Failures: failures, GoldenMatch: pass.GoldenMatch,
		Final: pass.Final, EpochSigs: pass.EpochSigs, Raw: raw,
		Counts: map[string]float64{},
	}
	for _, m := range countMetrics {
		out.Det.Counts[m.Name] = pass.Layer[m.Name]
	}
	return out, nil
}
