package power

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNodeModelClamps(t *testing.T) {
	m := NodeModel{IdleW: 100, DynamicW: 200}
	if got := m.Power(0); got != 100 {
		t.Errorf("idle = %v", got)
	}
	if got := m.Power(1); got != 300 {
		t.Errorf("full = %v", got)
	}
	if got := m.Power(-5); got != 100 {
		t.Errorf("negative util = %v", got)
	}
	if got := m.Power(7); got != 300 {
		t.Errorf("over-unity util = %v", got)
	}
	if got := m.Power(0.5); got != 200 {
		t.Errorf("half = %v", got)
	}
}

func TestHikariCalibration(t *testing.T) {
	// 400 nodes at the utilization the HACC runs see (~0.27) should land
	// near the paper's 55 kW rack readings.
	m := Hikari()
	total := 400 * m.Power(0.27)
	if total < 50_000 || total > 60_000 {
		t.Errorf("400-node draw = %.0f W, want ~55 kW", total)
	}
}

func TestMeterEnergyAndAverage(t *testing.T) {
	var m Meter
	m.Record(10, 100) // 1000 J
	m.Record(5, 400)  // 2000 J
	if got := m.EnergyJ(); got != 3000 {
		t.Errorf("energy = %v", got)
	}
	if got := m.Duration(); got != 15 {
		t.Errorf("duration = %v", got)
	}
	if got := m.AverageW(); got != 200 {
		t.Errorf("average = %v", got)
	}
	if got := m.PeakW(); got != 400 {
		t.Errorf("peak = %v", got)
	}
}

func TestMeterIgnoresNonPositive(t *testing.T) {
	var m Meter
	m.Record(0, 500)
	m.Record(-3, 500)
	if m.Duration() != 0 || m.EnergyJ() != 0 {
		t.Error("non-positive intervals recorded")
	}
	if m.AverageW() != 0 {
		t.Error("empty meter average not 0")
	}
	if m.Samples() != nil {
		t.Error("empty meter has samples")
	}
}

func TestMeterSamples(t *testing.T) {
	var m Meter
	m.Record(5, 100)  // sample 0: 100 W
	m.Record(5, 300)  // sample 1: 300 W
	m.Record(2.5, 80) // sample 2 (partial): 80 W
	s := m.Samples()
	if len(s) != 3 {
		t.Fatalf("samples = %v", s)
	}
	if s[0] != 100 || s[1] != 300 || s[2] != 80 {
		t.Errorf("samples = %v", s)
	}
}

func TestMeterSamplesSpanIntervals(t *testing.T) {
	var m Meter
	m.Record(7.5, 200) // covers sample 0 fully, half of sample 1
	m.Record(7.5, 400) // second half of sample 1, sample 2
	s := m.Samples()
	if len(s) != 3 {
		t.Fatalf("samples = %v", s)
	}
	if s[0] != 200 || math.Abs(s[1]-300) > 1e-9 || s[2] != 400 {
		t.Errorf("samples = %v", s)
	}
}

func TestMeterReset(t *testing.T) {
	var m Meter
	m.Record(5, 100)
	m.Reset()
	if m.Duration() != 0 || m.EnergyJ() != 0 {
		t.Error("reset failed")
	}
}

// Property: energy equals average power times duration exactly.
func TestEnergyIdentityProperty(t *testing.T) {
	f := func(durs, watts []uint16) bool {
		var m Meter
		n := len(durs)
		if len(watts) < n {
			n = len(watts)
		}
		for i := 0; i < n; i++ {
			m.Record(float64(durs[i])/100, float64(watts[i]))
		}
		if m.Duration() == 0 {
			return m.EnergyJ() == 0
		}
		return math.Abs(m.EnergyJ()-m.AverageW()*m.Duration()) < 1e-6*(1+m.EnergyJ())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the mean of the 5s samples weighted by window length equals
// the run average.
func TestSampleConsistencyProperty(t *testing.T) {
	f := func(durs, watts []uint16) bool {
		var m Meter
		n := len(durs)
		if len(watts) < n {
			n = len(watts)
		}
		for i := 0; i < n; i++ {
			m.Record(float64(durs[i]%1000)/50+0.01, float64(watts[i]))
		}
		if m.Duration() == 0 {
			return true
		}
		samples := m.Samples()
		total := 0.0
		for k, s := range samples {
			lo := float64(k) * SamplePeriod
			hi := math.Min(lo+SamplePeriod, m.Duration())
			total += s * (hi - lo)
		}
		return math.Abs(total-m.EnergyJ()) < 1e-6*(1+m.EnergyJ())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestMeterString(t *testing.T) {
	var m Meter
	m.Record(2, 100)
	if m.String() == "" {
		t.Error("empty String()")
	}
}
