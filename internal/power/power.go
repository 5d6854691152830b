// Package power models node power draw and the rack-level metering of the
// paper's testbed. Hikari's HPE Apollo 8000 system manager samples
// instantaneous power and records 5-second averages (§V-A, §V-C); the
// Meter type reproduces that pipeline over a simulated timeline so
// experiments report power/energy exactly the way the paper computes them:
// average power over a run times execution time.
//
// The node model is the standard linear form P = Idle + util * Dynamic.
// Coefficients are calibrated in DESIGN.md §5 so that 400 busy nodes draw
// ~55 kW (Table I) and the dynamic fraction matches the paper's Figure 9b
// sampling result.
package power

import (
	"fmt"
	"math"
)

// NodeModel is the per-node linear power model.
type NodeModel struct {
	// IdleW is the node's idle draw in watts.
	IdleW float64
	// DynamicW is the additional draw at full utilization in watts.
	DynamicW float64
}

// Hikari returns the calibrated model for the paper's testbed nodes
// (2x 12-core Haswell E5-2600v3; HVDC power delivery makes idle draw
// comparatively low).
func Hikari() NodeModel {
	return NodeModel{IdleW: 85, DynamicW: 190}
}

// Power returns the node draw at the given utilization (clamped to [0,1]).
func (m NodeModel) Power(util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return m.IdleW + util*m.DynamicW
}

// Interval is a span of simulated time with constant cluster-wide power.
type Interval struct {
	// Start and End are simulated seconds from run start.
	Start, End float64
	// Watts is the total cluster draw during the interval.
	Watts float64
}

// Meter accumulates a power timeline and reports Apollo-8000-style
// 5-second averaged samples plus run-level aggregates.
type Meter struct {
	intervals []Interval
	cursor    float64
}

// SamplePeriod is the Apollo 8000 system manager's recording period.
const SamplePeriod = 5.0 // seconds

// Record appends a constant-power interval of the given duration,
// starting where the previous interval ended. Negative or zero durations
// are ignored.
func (m *Meter) Record(seconds, watts float64) {
	if seconds <= 0 {
		return
	}
	m.intervals = append(m.intervals, Interval{
		Start: m.cursor,
		End:   m.cursor + seconds,
		Watts: watts,
	})
	m.cursor += seconds
}

// Duration returns the total recorded time in seconds.
func (m *Meter) Duration() float64 { return m.cursor }

// EnergyJ integrates the timeline and returns total energy in joules.
func (m *Meter) EnergyJ() float64 {
	e := 0.0
	for _, iv := range m.intervals {
		e += (iv.End - iv.Start) * iv.Watts
	}
	return e
}

// AverageW returns run-average power (energy / duration), the quantity
// the paper multiplies by execution time to report energy (§V-C).
func (m *Meter) AverageW() float64 {
	if m.cursor == 0 {
		return 0
	}
	return m.EnergyJ() / m.cursor
}

// PeakW returns the highest interval power.
func (m *Meter) PeakW() float64 {
	p := 0.0
	for _, iv := range m.intervals {
		p = math.Max(p, iv.Watts)
	}
	return p
}

// Samples returns the 5-second averaged series the system manager would
// have logged: sample k averages [k*5, (k+1)*5), with the final partial
// window averaged over its actual length.
func (m *Meter) Samples() []float64 {
	if m.cursor == 0 {
		return nil
	}
	n := int(math.Ceil(m.cursor / SamplePeriod))
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		lo := float64(k) * SamplePeriod
		hi := math.Min(lo+SamplePeriod, m.cursor)
		e := 0.0
		for _, iv := range m.intervals {
			ovLo := math.Max(lo, iv.Start)
			ovHi := math.Min(hi, iv.End)
			if ovHi > ovLo {
				e += (ovHi - ovLo) * iv.Watts
			}
		}
		out[k] = e / (hi - lo)
	}
	return out
}

// Reset clears the timeline.
func (m *Meter) Reset() {
	m.intervals = m.intervals[:0]
	m.cursor = 0
}

// String summarizes the meter.
func (m *Meter) String() string {
	return fmt.Sprintf("power: %.1fs, avg %.1f W, peak %.1f W, %.1f kJ",
		m.Duration(), m.AverageW(), m.PeakW(), m.EnergyJ()/1000)
}
