package cluster

import (
	"fmt"

	"github.com/ascr-ecx/eth/internal/compositing"
	"github.com/ascr-ecx/eth/internal/power"
)

// Config describes the modeled machine.
type Config struct {
	// Nodes is the allocation size.
	Nodes int
	// CoresPerNode is the worker-core count per node (Hikari: 2x12).
	CoresPerNode int
	// Node is the per-node power model.
	Node power.NodeModel
	// LinkBandwidth is per-link bandwidth in bytes/s (EDR InfiniBand
	// ~ 12 GB/s effective).
	LinkBandwidth float64
	// LinkLatency is the per-message latency in seconds.
	LinkLatency float64
}

// Hikari returns the paper's testbed configuration at the given
// allocation size (§V-A).
func Hikari(nodes int) Config {
	return Config{
		Nodes:         nodes,
		CoresPerNode:  24,
		Node:          power.Hikari(),
		LinkBandwidth: 12e9,
		LinkLatency:   2e-6,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Nodes <= 0 {
		return fmt.Errorf("cluster: node count %d must be positive", c.Nodes)
	}
	if c.CoresPerNode <= 0 {
		return fmt.Errorf("cluster: cores per node %d must be positive", c.CoresPerNode)
	}
	if c.LinkBandwidth <= 0 {
		return fmt.Errorf("cluster: link bandwidth must be positive")
	}
	return nil
}

// Job describes one visualization workload to model.
type Job struct {
	// Algorithm is the cost model to charge.
	Algorithm AlgorithmCost
	// Elements is the dataset size before sampling (particles or cells).
	Elements float64
	// SamplingRatio in (0, 1] thins Elements (spatial sampling, §IV-B).
	// Zero means 1 (no sampling).
	SamplingRatio float64
	// PixelsPerImage is the ray/fragment budget per image.
	PixelsPerImage int
	// ImagesPerStep is the number of renders per time step (the paper
	// renders 500 per step for HACC).
	ImagesPerStep int
	// TimeSteps is the number of simulation steps replayed.
	TimeSteps int
}

// Validate reports job specification errors.
func (j Job) Validate() error {
	if err := j.Algorithm.Validate(); err != nil {
		return err
	}
	if j.Elements < 0 {
		return fmt.Errorf("cluster: negative element count")
	}
	if j.SamplingRatio < 0 || j.SamplingRatio > 1 {
		return fmt.Errorf("cluster: sampling ratio %v outside [0,1]", j.SamplingRatio)
	}
	if j.PixelsPerImage <= 0 {
		return fmt.Errorf("cluster: pixels per image must be positive")
	}
	if j.ImagesPerStep <= 0 || j.TimeSteps <= 0 {
		return fmt.Errorf("cluster: images per step and time steps must be positive")
	}
	return nil
}

// Result reports a modeled run.
type Result struct {
	// Seconds is total execution time.
	Seconds float64
	// SetupSeconds, ComputeSeconds, CommSeconds break the time down.
	SetupSeconds, ComputeSeconds, CommSeconds float64
	// AvgWatts is cluster-average power over the run (the Apollo 8000
	// metering quantity).
	AvgWatts float64
	// DynWatts is AvgWatts minus the allocation's idle floor — the
	// "dynamic power" of Fig 9b.
	DynWatts float64
	// EnergyJ is total energy (AvgWatts x Seconds).
	EnergyJ float64
	// Utilization is the modeled node utilization during compute phases.
	Utilization float64
	// Meter is the full power timeline (5-second samples available).
	Meter *power.Meter
}

// Simulate models running job on cfg and returns timing, power, and
// energy. The model is deterministic and purely arithmetic.
func Simulate(cfg Config, job Job) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if err := job.Validate(); err != nil {
		return Result{}, err
	}
	alg := job.Algorithm
	ratio := job.SamplingRatio
	if ratio == 0 {
		ratio = 1
	}
	elems := job.Elements * ratio
	eLoc := elems / float64(cfg.Nodes)
	rays := float64(job.PixelsPerImage)

	// Phase times per node (all nodes identical — the harness partitions
	// by equal element count).
	setup := alg.setupSeconds(eLoc, cfg.CoresPerNode)
	compute := alg.imageComputeSeconds(eLoc, elems, rays, cfg.Nodes, cfg.CoresPerNode)
	// Contention is busy time (ranks spinning on shared resources), so it
	// joins the compute phase for power accounting; compositing
	// communication idles the cores.
	compute += alg.contentionSeconds(cfg.Nodes, elems)
	comm := compositing.ModelCost(alg.Compositing, cfg.Nodes, job.PixelsPerImage, cfg.LinkBandwidth, cfg.LinkLatency)

	// Utilization while computing.
	unitsPerCore := eLoc / float64(cfg.CoresPerNode)
	if alg.RaysDominateUtil {
		localRays := rays
		if alg.RayWorkDivides {
			localRays = rays / float64(cfg.Nodes)
		}
		unitsPerCore = localRays / float64(cfg.CoresPerNode)
	}
	util := alg.utilization(unitsPerCore)

	meter := &power.Meter{}
	busyW := float64(cfg.Nodes) * cfg.Node.Power(util)
	idleW := float64(cfg.Nodes) * cfg.Node.Power(alg.UtilFloor)

	var setupTotal, computeTotal, commTotal float64
	for step := 0; step < job.TimeSteps; step++ {
		if setup > 0 {
			meter.Record(setup, busyW)
			setupTotal += setup
		}
		// All images of a step behave identically: record aggregated
		// intervals to keep the meter compact at high image counts.
		n := float64(job.ImagesPerStep)
		meter.Record(n*compute, busyW)
		computeTotal += n * compute
		if comm > 0 {
			meter.Record(n*comm, idleW)
			commTotal += n * comm
		}
	}

	total := meter.Duration()
	avg := meter.AverageW()
	return Result{
		Seconds:        total,
		SetupSeconds:   setupTotal,
		ComputeSeconds: computeTotal,
		CommSeconds:    commTotal,
		AvgWatts:       avg,
		DynWatts:       avg - float64(cfg.Nodes)*cfg.Node.IdleW,
		EnergyJ:        meter.EnergyJ(),
		Utilization:    util,
		Meter:          meter,
	}, nil
}
