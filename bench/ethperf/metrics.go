package main

// metricDef names one metric. BENCHMARK.json repeats this table (the
// smoke test keeps the two in step); the bounds here are the ones the
// A/A self-check enforces. No bound exceeds 10 %: a timing's is twice the
// largest disagreement between two sets of runs of the same code, capped
// there; the two counts differ only with the seed (bench/README.md,
// "Noise").
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the pipeline sees, per workload.
var endToEnd = []metricDef{
	{"frames_per_s", "1/s", higher, 0.10},
	{"step_ms_p50", "ms", lower, 0.10},
	{"step_ms_p90", "ms", lower, 0.10},
	{"step_to_viewer_ms_p50", "ms", lower, 0.10},
	{"step_to_viewer_ms_p90", "ms", lower, 0.10},
	{"cpu_ms_per_step", "ms", lower, 0.10},
	{"alloc_kb_per_step", "KiB", lower, 0.03},
	{"peak_rss_mb", "MiB", lower, 0.10},
	{"wire_kb_per_step", "KiB", lower, 0.02},
	{"setup_s", "s", lower, 0.10},
}

// The traced pass's metrics: the ledger, the exact counts taken at the
// same boundaries, and the kernel probes.

// ledgerMetrics are median self times per step on the critical path. The
// first eight rows plus ledger.unaccounted_ms equal the traced step
// period.
var ledgerMetrics = []metricDef{
	{Name: "proxy.sim_stepdata_ms", Unit: "ms", Better: lower},
	{Name: "transport.send_ms", Unit: "ms", Better: lower},
	{Name: "transport.recv_tail_ms", Unit: "ms", Better: lower},
	{Name: "proxy.viz_renderstep_ms", Unit: "ms", Better: lower},
	{Name: "compositing.barrier_wait_ms", Unit: "ms", Better: lower},
	{Name: "compositing.composite_ms", Unit: "ms", Better: lower},
	{Name: "hub.publish_ms", Unit: "ms", Better: lower},
	{Name: "transport.ack_ms", Unit: "ms", Better: lower},
	{Name: "ledger.unaccounted_ms", Unit: "ms", Better: lower},
	{Name: "ledger.coverage_pct", Unit: "%", Better: higher},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
	// Off the critical path.
	{Name: "proxy.viz_wait_ms", Unit: "ms", Better: lower},
	{Name: "hub.deliver_ms_p50", Unit: "ms", Better: lower},
	{Name: "hub.deliver_ms_p90", Unit: "ms", Better: lower},
	{Name: "hub.viewer_decode_ms", Unit: "ms", Better: lower},
}

// countMetrics are exact counts per measured step.
var countMetrics = []metricDef{
	{Name: "proxy.elements_in", Unit: "count", Better: lower},
	{Name: "proxy.elements_sampled", Unit: "count", Better: lower},
	{Name: "transport.plain_kb", Unit: "KiB", Better: lower},
	{Name: "transport.wire_kb", Unit: "KiB", Better: lower},
	{Name: "transport.ratio", Unit: "ratio", Better: higher},
	{Name: "transport.keyframes", Unit: "count", Better: lower},
	{Name: "transport.messages", Unit: "count", Better: lower},
	{Name: "hub.published", Unit: "count", Better: higher},
	{Name: "hub.delivered", Unit: "count", Better: higher},
	{Name: "hub.dropped", Unit: "count", Better: lower},
	{Name: "hub.wire_kb_per_frame", Unit: "KiB", Better: lower},
	{Name: "render.primitives_per_image", Unit: "count", Better: lower},
	{Name: "compositing.kb_moved", Unit: "KiB", Better: lower},
	{Name: "compositing.rounds", Unit: "count", Better: lower},
	{Name: "journal.events_per_step", Unit: "count", Better: lower},
	{Name: "gc.cycles_per_step", Unit: "count", Better: lower},
	{Name: "gc.pause_ms_per_step", Unit: "ms", Better: lower},
	{Name: "coupling.retries", Unit: "count", Better: lower},
	{Name: "coupling.steps_skipped", Unit: "count", Better: lower},
	{Name: "coupling.reconnects", Unit: "count", Better: lower},
	{Name: "transport.crc_errors", Unit: "count", Better: lower},
	{Name: "transport.timeouts", Unit: "count", Better: lower},
}

// probeMetrics are direct calls into the lower layers on the workload's
// own epochs; 0 where the workload does not use the kernel.
var probeMetrics = []metricDef{
	{Name: "cosmo.generate_ms", Unit: "ms", Better: lower},
	{Name: "blast.generate_ms", Unit: "ms", Better: lower},
	{Name: "data.partition_ms", Unit: "ms", Better: lower},
	{Name: "sampling.points_ms", Unit: "ms", Better: lower},
	{Name: "vtkio.write_ms", Unit: "ms", Better: lower},
	{Name: "vtkio.read_ms", Unit: "ms", Better: lower},
	{Name: "rt.bvh_build_ms", Unit: "ms", Better: lower},
	{Name: "rt.trace_ms_per_image", Unit: "ms", Better: lower},
	{Name: "geom.isosurface_ms", Unit: "ms", Better: lower},
	{Name: "geom.drawmesh_ms", Unit: "ms", Better: lower},
	{Name: "geom.triangles", Unit: "count", Better: lower},
	{Name: "geom.mappoints_ms", Unit: "ms", Better: lower},
	{Name: "raster.drawsprites_ms", Unit: "ms", Better: lower},
	{Name: "render.setup_ms_per_image", Unit: "ms", Better: lower},
	{Name: "render.draw_ms_per_image", Unit: "ms", Better: lower},
	{Name: "fb.snapshot_ms", Unit: "ms", Better: lower},
	{Name: "hub.framegrid_ms", Unit: "ms", Better: lower},
	{Name: "hub.gridframe_ms", Unit: "ms", Better: lower},
	{Name: "compositing.direct_send_ms", Unit: "ms", Better: lower},
	{Name: "compositing.binary_swap_ms", Unit: "ms", Better: lower},
}

func perLayer() []metricDef {
	return append(append(append([]metricDef(nil), ledgerMetrics...), countMetrics...), probeMetrics...)
}

// failureCounters must read 0 over every measured window.
var failureCounters = []string{
	"coupling.retries", "coupling.steps_skipped", "coupling.reconnects",
	"transport.crc_errors", "transport.timeouts",
}
