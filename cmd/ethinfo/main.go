// Command ethinfo inspects ETH artifacts. For ETHD dataset containers it
// prints kind, element counts, bounds, and fields with their ranges — the
// quick sanity check before wiring a file into an experiment. With -vtk
// it converts the dataset to the ASCII legacy VTK format so it opens in
// ParaView/VisIt. With -journal it instead replays a JSONL run journal
// written by `ethrun -trace`, reconstructing the run's phase breakdown,
// event counts, and any recorded errors for post-hoc audit. A fleet
// journal (`ethserve`) additionally gets an experiment-ledger audit:
// per-spec submit/lease/requeue/quarantine/complete tallies and the
// completed+quarantined==submitted conservation check, or, when the
// ledger does not replay (a journal an earlier build wrote), the replay
// error in its place.
//
// Usage:
//
//	ethinfo data/hacc_step000.ethd
//	ethinfo -vtk out.vtk data/xrage_step000.ethd
//	ethinfo -journal trace.jsonl
//	ethinfo -journal -json trace.jsonl | jq .breakdown
//
// -json switches both modes to machine-readable output: one JSON
// document per argument, so audits and dataset inventories can feed
// scripts and dashboards without scraping the table layout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"github.com/ascr-ecx/eth/internal/data"
	"github.com/ascr-ecx/eth/internal/fleet"
	"github.com/ascr-ecx/eth/internal/journal"
	"github.com/ascr-ecx/eth/internal/metrics"
	"github.com/ascr-ecx/eth/internal/vtkio"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ethinfo: ")
	vtkOut := flag.String("vtk", "", "also export as ASCII legacy VTK to this path")
	journalMode := flag.Bool("journal", false, "treat arguments as JSONL run journals and audit them")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	flag.Parse()
	if flag.NArg() == 0 {
		log.Fatal("usage: ethinfo [-json] [-vtk out.vtk] file.ethd ...  |  ethinfo -journal [-json] trace.jsonl ...")
	}
	if *journalMode {
		for _, path := range flag.Args() {
			if err := auditJournal(path, *jsonOut); err != nil {
				log.Fatalf("%s: %v", path, err)
			}
		}
		return
	}
	for _, path := range flag.Args() {
		ds, err := vtkio.ReadFile(path)
		if err != nil {
			log.Fatalf("%s: %v", path, err)
		}
		if *jsonOut {
			if err := writeJSON(describeJSON(path, ds)); err != nil {
				log.Fatal(err)
			}
		} else {
			describe(path, ds)
		}
		if *vtkOut != "" {
			if err := vtkio.ExportLegacyVTKFile(*vtkOut, ds, path); err != nil {
				log.Fatalf("exporting %s: %v", *vtkOut, err)
			}
			if !*jsonOut {
				fmt.Printf("  exported %s\n", *vtkOut)
			}
		}
	}
}

// writeJSON emits one indented JSON document on stdout.
func writeJSON(v any) error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func describe(path string, ds data.Dataset) {
	fmt.Printf("%s:\n", path)
	fmt.Printf("  kind     %v\n", ds.Kind())
	b := ds.Bounds()
	fmt.Printf("  bounds   %v .. %v\n", b.Min, b.Max)
	fmt.Printf("  payload  %.2f MB\n", float64(ds.Bytes())/1e6)
	switch d := ds.(type) {
	case *data.PointCloud:
		fmt.Printf("  points   %d\n", d.Count())
		printFields(d.Fields)
	case *data.StructuredGrid:
		fmt.Printf("  dims     %dx%dx%d (%d vertices, %d cells)\n",
			d.NX, d.NY, d.NZ, d.Count(), d.Cells())
		fmt.Printf("  spacing  %v, origin %v\n", d.Spacing, d.Origin)
		printFields(d.Fields)
	case *data.UnstructuredGrid:
		fmt.Printf("  vertices %d, tets %d\n", d.Count(), d.Cells())
		printFields(d.Fields)
	}
}

func printFields(fields []data.Field) {
	for _, f := range fields {
		lo, hi := f.MinMax()
		fmt.Printf("  field    %-16s [%g, %g]\n", f.Name, lo, hi)
	}
}

// datasetInfo is the machine-readable form of describe.
type datasetInfo struct {
	Path   string        `json:"path"`
	Kind   string        `json:"kind"`
	Bounds [2][3]float64 `json:"bounds"`
	Bytes  int64         `json:"bytes"`
	Count  int           `json:"count"`
	Cells  int           `json:"cells,omitempty"`
	Dims   []int         `json:"dims,omitempty"`
	Fields []fieldInfo   `json:"fields"`
}

type fieldInfo struct {
	Name string  `json:"name"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func describeJSON(path string, ds data.Dataset) datasetInfo {
	b := ds.Bounds()
	info := datasetInfo{
		Path: path,
		Kind: fmt.Sprintf("%v", ds.Kind()),
		Bounds: [2][3]float64{
			{b.Min.X, b.Min.Y, b.Min.Z},
			{b.Max.X, b.Max.Y, b.Max.Z},
		},
		Bytes: ds.Bytes(),
		Count: ds.Count(),
	}
	var fields []data.Field
	switch d := ds.(type) {
	case *data.PointCloud:
		fields = d.Fields
	case *data.StructuredGrid:
		info.Cells = d.Cells()
		info.Dims = []int{d.NX, d.NY, d.NZ}
		fields = d.Fields
	case *data.UnstructuredGrid:
		info.Cells = d.Cells()
		fields = d.Fields
	}
	info.Fields = make([]fieldInfo, 0, len(fields))
	for _, f := range fields {
		lo, hi := f.MinMax()
		info.Fields = append(info.Fields, fieldInfo{Name: f.Name, Min: float64(lo), Max: float64(hi)})
	}
	return info
}

// journalAudit is the machine-readable form of auditJournal.
type journalAudit struct {
	Path      string             `json:"path"`
	TornTail  bool               `json:"torn_tail,omitempty"`
	Events    int                `json:"events"`
	Run       string             `json:"run,omitempty"`
	Started   string             `json:"started,omitempty"`
	WallSec   float64            `json:"wall_seconds"`
	ByType    map[string]int     `json:"events_by_type"`
	Restarts  []restartAudit     `json:"restarts,omitempty"`
	Breakdown map[string]float64 `json:"breakdown_seconds"`
	// Durations holds per-event-type latency quantiles reconstructed
	// from the journal's recorded durations.
	Durations []durationAudit `json:"durations,omitempty"`
	Errors    []errorAudit    `json:"errors,omitempty"`
	// Hub summarizes the broadcast hub's subscriber and steering
	// traffic; present only when the run served live viewers.
	Hub *hubAudit `json:"hub,omitempty"`
	// Fleet summarizes a fleet scheduler journal's experiment ledger;
	// present only when the journal records fleet traffic.
	Fleet *fleetAudit `json:"fleet,omitempty"`
	// FleetError is why the fleet ledger does not replay (a journal
	// an earlier build wrote, or a corrupt one); Fleet is then absent
	// and the rest of the audit stands.
	FleetError string `json:"fleet_error,omitempty"`

	// started is the run_start time and phases the breakdown's keys in
	// pipeline order (journal.PhaseNames), for the text rendering.
	started time.Time
	phases  []string
}

// fleetAudit replays a fleet journal's experiment ledger. Spec tallies
// (submitted, completed, quarantined, retried) count unique spec IDs;
// leases and requeues count attempts. Balanced is the fleet's
// conservation law: every submitted spec ended exactly one of completed
// or quarantined — false means the fleet was killed mid-sweep (resume
// it) or lost a spec (a bug).
type fleetAudit struct {
	Submitted   int  `json:"submitted"`
	Completed   int  `json:"completed"`
	Quarantined int  `json:"quarantined"`
	Retried     int  `json:"retried"`
	Leases      int  `json:"leases"`
	Requeues    int  `json:"requeues"`
	Balanced    bool `json:"balanced"`
	// Quarantines lists each quarantined spec with its final error.
	Quarantines []quarantineAudit `json:"quarantines,omitempty"`
}

type quarantineAudit struct {
	ID  string `json:"id"`
	Err string `json:"err"`
}

// hubAudit tallies the multi-viewer hub's journaled traffic: session
// churn, overflow drops, and the steering sequence as applied.
type hubAudit struct {
	Joins         int `json:"joins"`
	Leaves        int `json:"leaves"`
	Rejects       int `json:"rejects,omitempty"`
	DroppedFrames int `json:"dropped_frames"`
	SteerReceived int `json:"steer_received"`
	SteerApplied  int `json:"steer_applied"`
	// Steering lists every journaled steer event in order, so two runs
	// can be diffed for replay determinism.
	Steering []steerAudit `json:"steering,omitempty"`
}

type steerAudit struct {
	Step   int    `json:"step"`
	Detail string `json:"detail"`
}

type durationAudit struct {
	Type     string  `json:"type"`
	Count    int     `json:"count"`
	TotalSec float64 `json:"total_seconds"`
	P50Sec   float64 `json:"p50_seconds"`
	P95Sec   float64 `json:"p95_seconds"`
	P99Sec   float64 `json:"p99_seconds"`
}

type restartAudit struct {
	Role     string `json:"role"`
	Restarts int    `json:"restarts"`
	Causes   string `json:"causes"`
}

type errorAudit struct {
	Rank int    `json:"rank"`
	Step int    `json:"step"`
	Err  string `json:"err"`
}

// auditJournal replays a JSONL run journal: run metadata, wall time,
// event counts by type, the reconstructed per-phase time breakdown, and
// any recorded errors. With jsonOut the audit is emitted as one JSON
// document instead of tables; both render the one buildAudit fold.
func auditJournal(path string, jsonOut bool) error {
	events, err := journal.ReadFile(path)
	// A crash mid-write leaves at most one torn final line; the clean
	// prefix is still a valid audit subject.
	torn := errors.Is(err, journal.ErrTornTail)
	if err != nil && !torn {
		return err
	}
	fl, flErr := fleetLedger(events)
	a := buildAudit(path, events, torn, fl, flErr)
	if jsonOut {
		return writeJSON(a)
	}
	return printAudit(a)
}

// eventTypeOrder is the text audit's row order for event types; types
// outside it follow, sorted by name.
var eventTypeOrder = []string{
	journal.TypeRunStart, journal.TypeRunEnd, journal.TypePhase,
	journal.TypeDataset, journal.TypeSample, journal.TypeSerialize,
	journal.TypeTransfer, journal.TypeRender, journal.TypeAnalysis,
	journal.TypeComposite, journal.TypeRetry, journal.TypeSkip,
	journal.TypeResume, journal.TypeError, journal.TypeRestart,
	journal.TypeShutdown, journal.TypeCheckpoint, journal.TypeOverflow,
	journal.TypeSteer, journal.TypeSubscribe,
	journal.TypeSubmit, journal.TypeLease, journal.TypeRequeue,
	journal.TypeQuarantine, journal.TypeComplete,
}

// printAudit renders the audit as text tables.
func printAudit(a journalAudit) error {
	if a.TornTail {
		fmt.Printf("warning: %s has a torn final line (crash mid-write); auditing the clean prefix\n", a.Path)
	}
	fmt.Printf("%s:\n", a.Path)
	fmt.Printf("  events   %d\n", a.Events)
	if a.Started != "" {
		fmt.Printf("  run      %s (started %s)\n", a.Run, a.started.Format("2006-01-02 15:04:05"))
	}
	fmt.Printf("  wall     %.3f s\n", a.WallSec)

	ct := metrics.NewTable("Events by type", "type", "count")
	var rest []string
	for _, ty := range sortedKeys(a.ByType) {
		if !slices.Contains(eventTypeOrder, ty) {
			rest = append(rest, ty)
		}
	}
	for _, ty := range append(slices.Clone(eventTypeOrder), rest...) {
		if a.ByType[ty] > 0 {
			ct.AddRow(ty, a.ByType[ty])
		}
	}
	if err := ct.Fprint(os.Stdout); err != nil {
		return err
	}

	// Supervision audit: which roles were restarted, how often, and why.
	if len(a.Restarts) > 0 {
		rt := metrics.NewTable("Restarts by role", "role", "restarts", "causes")
		for _, r := range a.Restarts {
			rt.AddRow(r.Role, r.Restarts, r.Causes)
		}
		if err := rt.Fprint(os.Stdout); err != nil {
			return err
		}
	}

	pt := metrics.NewTable("Per-phase breakdown (replayed)", "phase", "seconds", "% of wall")
	for _, name := range a.phases {
		sec := a.Breakdown[name]
		pct := 0.0
		if a.WallSec > 0 {
			pct = 100 * sec / a.WallSec
		}
		pt.AddRow(name, sec, pct)
	}
	if err := pt.Fprint(os.Stdout); err != nil {
		return err
	}

	// Fleet audit: the experiment ledger and its conservation law.
	if a.FleetError != "" {
		fmt.Printf("  fleet    ledger does not replay: %s\n", a.FleetError)
	}
	if fl := a.Fleet; fl != nil {
		fmt.Printf("  fleet    submitted=%d completed=%d quarantined=%d retried=%d leases=%d requeues=%d balanced=%v\n",
			fl.Submitted, fl.Completed, fl.Quarantined, fl.Retried, fl.Leases, fl.Requeues, fl.Balanced)
		for _, q := range fl.Quarantines {
			fmt.Printf("    quarantined %s: %s\n", q.ID, firstLine(q.Err))
		}
		if !fl.Balanced {
			fmt.Printf("    unbalanced: %d specs neither completed nor quarantined (killed mid-sweep? resume the fleet)\n",
				fl.Submitted-fl.Completed-fl.Quarantined)
		}
	}

	// Hub audit: who watched, what was dropped, how the run was steered.
	if h := a.Hub; h != nil {
		fmt.Printf("  hub      joins=%d leaves=%d rejects=%d dropped_frames=%d steer_received=%d steer_applied=%d\n",
			h.Joins, h.Leaves, h.Rejects, h.DroppedFrames, h.SteerReceived, h.SteerApplied)
		for _, st := range h.Steering {
			fmt.Printf("    step=%d %s\n", st.Step, st.Detail)
		}
	}

	if len(a.Errors) > 0 {
		fmt.Printf("  errors   %d\n", len(a.Errors))
		for _, e := range a.Errors {
			fmt.Printf("    rank=%d step=%d: %s\n", e.Rank, e.Step, firstLine(e.Err))
		}
	}
	return nil
}

// buildAudit folds the journal into the audit both renderings print, so
// the text and JSON outputs cannot drift apart.
func buildAudit(path string, events []journal.Event, torn bool, fl *fleetAudit, flErr error) journalAudit {
	a := journalAudit{
		Path:      path,
		TornTail:  torn,
		Events:    len(events),
		WallSec:   journal.Wall(events).Seconds(),
		ByType:    journal.CountByType(events),
		Breakdown: map[string]float64{},
	}
	for _, ev := range events {
		if ev.Type == journal.TypeRunStart {
			a.Run = ev.Detail
			a.started = ev.T
			a.Started = ev.T.Format("2006-01-02T15:04:05Z07:00")
			break
		}
	}
	roles, causes := restartsByRole(events)
	for _, role := range sortedKeys(roles) {
		a.Restarts = append(a.Restarts, restartAudit{Role: role, Restarts: roles[role], Causes: causes[role]})
	}
	breakdown := journal.Breakdown(events)
	a.phases = journal.PhaseNames(events)
	for _, name := range a.phases {
		a.Breakdown[name] = breakdown[name].Seconds()
	}
	a.Durations = durationQuantiles(events)
	for _, ev := range journal.Errors(events) {
		a.Errors = append(a.Errors, errorAudit{Rank: ev.Rank, Step: ev.Step, Err: ev.Err})
	}
	a.Hub = hubTallies(events)
	a.Fleet = fl
	if flErr != nil {
		a.FleetError = flErr.Error()
	}
	return a
}

// fleetLedger builds the fleet audit from fleet.Replay, the fold a
// resuming scheduler reads the same journal with. Returns nil when the
// journal records no fleet traffic, and Replay's error when its ledger
// is corrupt.
func fleetLedger(events []journal.Event) (*fleetAudit, error) {
	led, err := fleet.Replay(events)
	if err != nil || len(led.Specs) == 0 {
		return nil, err
	}
	c := led.Counts
	f := &fleetAudit{
		Submitted: c.Submitted, Completed: c.Completed, Quarantined: c.Quarantined,
		Retried: led.Retried, Leases: led.Leases, Requeues: c.Requeues,
		Balanced: c.Balanced(),
	}
	for _, q := range led.Quarantined {
		f.Quarantines = append(f.Quarantines, quarantineAudit{ID: q.ID, Err: q.Err})
	}
	return f, nil
}

// hubTallies replays the hub's journaled traffic: subscriber churn,
// overflow drops, and the ordered steering sequence. Returns nil when
// the run never served live viewers.
func hubTallies(events []journal.Event) *hubAudit {
	var h hubAudit
	seen := false
	for _, ev := range events {
		switch ev.Type {
		case journal.TypeSubscribe:
			seen = true
			switch {
			case strings.HasPrefix(ev.Detail, "join"):
				h.Joins++
			case strings.HasPrefix(ev.Detail, "leave"):
				h.Leaves++
			case strings.HasPrefix(ev.Detail, "reject"):
				h.Rejects++
			}
		case journal.TypeOverflow:
			if strings.HasPrefix(ev.Detail, "hub ") {
				seen = true
				h.DroppedFrames += ev.Elements
			}
		case journal.TypeSteer:
			seen = true
			if strings.HasPrefix(ev.Detail, "recv") {
				h.SteerReceived++
			}
			if strings.Contains(ev.Detail, "applied") {
				h.SteerApplied++
			}
			h.Steering = append(h.Steering, steerAudit{Step: ev.Step, Detail: ev.Detail})
		}
	}
	if !seen {
		return nil
	}
	return &h
}

// durationQuantiles reconstructs per-event-type latency quantiles from
// the durations the journal recorded — the post-hoc equivalent of the
// live /metrics span summaries.
func durationQuantiles(events []journal.Event) []durationAudit {
	byType := map[string][]int64{}
	for _, ev := range events {
		if ev.DurNS > 0 {
			byType[ev.Type] = append(byType[ev.Type], ev.DurNS)
		}
	}
	var out []durationAudit
	for _, ty := range sortedKeys(mapLen(byType)) {
		ds := byType[ty]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var total int64
		for _, d := range ds {
			total += d
		}
		q := func(p float64) float64 {
			i := int(p * float64(len(ds)-1))
			return float64(ds[i]) / 1e9
		}
		out = append(out, durationAudit{
			Type: ty, Count: len(ds), TotalSec: float64(total) / 1e9,
			P50Sec: q(0.5), P95Sec: q(0.95), P99Sec: q(0.99),
		})
	}
	return out
}

// mapLen projects a slice-valued map to its lengths, so sortedKeys can
// order its keys.
func mapLen[T any](m map[string][]T) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = len(v)
	}
	return out
}

// restartsByRole tallies restart events per supervised role, collecting
// the distinct cause tokens, both parsed from the event detail
// ("role=viz attempt=1/3 cause=exit backoff=5ms").
func restartsByRole(events []journal.Event) (map[string]int, map[string]string) {
	counts := map[string]int{}
	causes := map[string]string{}
	for _, ev := range events {
		if ev.Type != journal.TypeRestart {
			continue
		}
		role, cause := "?", "?"
		for _, tok := range strings.Fields(ev.Detail) {
			if v, ok := strings.CutPrefix(tok, "role="); ok {
				role = v
			}
			if v, ok := strings.CutPrefix(tok, "cause="); ok {
				cause = v
			}
		}
		counts[role]++
		if !strings.Contains(causes[role], cause) {
			if causes[role] != "" {
				causes[role] += ","
			}
			causes[role] += cause
		}
	}
	return counts, causes
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// firstLine truncates multi-line error text (panic stacks) for the
// one-row-per-error audit listing.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " [stack in journal]"
	}
	return s
}
