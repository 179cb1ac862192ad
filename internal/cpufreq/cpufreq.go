// Package cpufreq models the processor frequency subsystem of the simulated
// host: the ladder of P-states (frequency/voltage operating points), the
// per-frequency performance efficiency that gives rise to the paper's cf
// calibration factors, the frequency-switch interface used by governors and
// by the PAS scheduler, and a simple dynamic power model used for energy
// accounting.
//
// The package mirrors the role of the Linux "cpufreq" subsystem referenced
// in Section 2.2 of the paper: governors do not touch hardware directly,
// they ask cpufreq to transition between supported frequencies.
package cpufreq

import (
	"fmt"
	"sort"

	"pasched/internal/sim"
)

// Freq is a processor frequency in MHz, the unit used throughout the paper
// (e.g. the Optiplex 755 ladder 1600..2667 MHz).
type Freq int

// String renders the frequency as "2667MHz".
func (f Freq) String() string { return fmt.Sprintf("%dMHz", int(f)) }

// PState is one processor operating point: a frequency, the core voltage at
// that frequency, and the relative performance efficiency.
//
// Efficiency expresses how the processor's real throughput at this
// frequency compares with perfect frequency proportionality. A value of 1
// means performance scales exactly with frequency; values below 1 mean the
// processor is slower than proportional at this frequency (for example
// because the uncore or memory subsystem is clocked down together with the
// core). Efficiency at the maximum frequency is 1 by normalization. This is
// the ground truth from which the paper's cf_i factors (equation 1) emerge
// when measured by the calibration procedure of Section 5.2.
type PState struct {
	Freq       Freq
	Voltage    float64 // core voltage in volts at this operating point
	Efficiency float64 // throughput relative to frequency-proportional, (0,1]
}

// Profile describes a processor architecture: its P-state ladder and the
// parameters of its power model. Profiles are immutable after construction;
// the predefined constructors return fresh copies.
type Profile struct {
	// Name identifies the architecture, e.g. "Intel Core 2 Duo E6750".
	Name string
	// States is the P-state ladder in strictly ascending frequency order.
	States []PState
	// TransitionLatency is the time a frequency switch takes. During the
	// switch the processor keeps running at the old frequency.
	TransitionLatency sim.Time
	// StaticPower is the frequency-independent power draw in watts
	// (package leakage, fans local to the socket, ...).
	StaticPower float64
	// DynCoeff scales dynamic power: P_dyn = DynCoeff * V^2 * f_GHz * util.
	DynCoeff float64
	// IdleFactor is the fraction of dynamic power burnt at a given
	// frequency even when the processor is idle (clock distribution).
	IdleFactor float64
}

// Validate checks the structural invariants of the profile: at least two
// P-states, strictly ascending frequencies, efficiencies in (0, 1] with the
// top state at exactly 1, and positive voltages.
func (p *Profile) Validate() error {
	if p == nil {
		return fmt.Errorf("cpufreq: nil profile")
	}
	if len(p.States) < 2 {
		return fmt.Errorf("cpufreq: profile %q needs at least 2 P-states, has %d", p.Name, len(p.States))
	}
	for i, s := range p.States {
		if s.Freq <= 0 {
			return fmt.Errorf("cpufreq: profile %q state %d has non-positive frequency %v", p.Name, i, s.Freq)
		}
		if i > 0 && s.Freq <= p.States[i-1].Freq {
			return fmt.Errorf("cpufreq: profile %q states not strictly ascending at index %d", p.Name, i)
		}
		if s.Efficiency <= 0 || s.Efficiency > 1 {
			return fmt.Errorf("cpufreq: profile %q state %d efficiency %v outside (0,1]", p.Name, i, s.Efficiency)
		}
		if s.Voltage <= 0 {
			return fmt.Errorf("cpufreq: profile %q state %d voltage %v not positive", p.Name, i, s.Voltage)
		}
	}
	if top := p.States[len(p.States)-1].Efficiency; top != 1 {
		return fmt.Errorf("cpufreq: profile %q top-state efficiency %v, must be 1", p.Name, top)
	}
	return nil
}

// Levels returns the number of P-states.
func (p *Profile) Levels() int { return len(p.States) }

// Min returns the lowest supported frequency.
func (p *Profile) Min() Freq { return p.States[0].Freq }

// Max returns the highest supported frequency.
func (p *Profile) Max() Freq { return p.States[len(p.States)-1].Freq }

// Frequencies returns the ladder of supported frequencies in ascending
// order. The returned slice is a copy.
func (p *Profile) Frequencies() []Freq {
	out := make([]Freq, len(p.States))
	for i, s := range p.States {
		out[i] = s.Freq
	}
	return out
}

// Index returns the position of f in the ladder, or an error if f is not a
// supported frequency.
func (p *Profile) Index(f Freq) (int, error) {
	i := sort.Search(len(p.States), func(i int) bool { return p.States[i].Freq >= f })
	if i < len(p.States) && p.States[i].Freq == f {
		return i, nil
	}
	return 0, fmt.Errorf("cpufreq: frequency %v not supported by %q", f, p.Name)
}

// Nearest returns the supported frequency closest to f, preferring the
// higher one on ties (so capacity is never silently reduced).
func (p *Profile) Nearest(f Freq) Freq {
	best := p.States[0].Freq
	bestDiff := abs(int(best) - int(f))
	for _, s := range p.States[1:] {
		d := abs(int(s.Freq) - int(f))
		if d < bestDiff || (d == bestDiff && s.Freq > best) {
			best = s.Freq
			bestDiff = d
		}
	}
	return best
}

// FloorFor returns the lowest supported frequency >= f, or the maximum
// frequency if f is above the ladder.
func (p *Profile) FloorFor(f Freq) Freq {
	for _, s := range p.States {
		if s.Freq >= f {
			return s.Freq
		}
	}
	return p.Max()
}

// Ratio returns f divided by the maximum frequency (the paper's ratio_i).
func (p *Profile) Ratio(f Freq) float64 {
	return float64(f) / float64(p.Max())
}

// Efficiency returns the ground-truth efficiency at frequency f. When
// measured through the paper's calibration procedure this quantity is
// recovered as cf_i (equation 1). f must be a supported frequency; an
// unsupported frequency returns an error.
func (p *Profile) Efficiency(f Freq) (float64, error) {
	i, err := p.Index(f)
	if err != nil {
		return 0, err
	}
	return p.States[i].Efficiency, nil
}

// Throughput returns the compute capacity of the processor at frequency f,
// in work units per simulated second. One work unit corresponds to one
// cycle at nominal efficiency, so throughput at the maximum frequency is
// Max()*1e6 units/s and lower frequencies deliver f*1e6*Efficiency(f).
// This is the float report/sizing-edge view; the simulation's execution
// path accounts work through the exact integer WorkRate.
func (p *Profile) Throughput(f Freq) (float64, error) {
	eff, err := p.Efficiency(f)
	if err != nil {
		return 0, err
	}
	return float64(f) * 1e6 * eff, nil
}

// WorkRate returns the exact integer compute capacity at frequency f, in
// sim.Work (milli-work-units) per microsecond: round(f * Efficiency(f) *
// 1000). The rounding happens once per P-state; all downstream work
// accounting (quantum capacities, workload consumption, host tallies)
// multiplies and sums this integer, which is what makes batched and
// reference runs bit-identical on every work-derived series.
func (p *Profile) WorkRate(f Freq) (sim.Work, error) {
	eff, err := p.Efficiency(f)
	if err != nil {
		return 0, err
	}
	return sim.Work(float64(float64(f)*eff*float64(sim.WorkUnit)) + 0.5), nil
}

// EfficiencyTable returns the per-P-state efficiencies in ladder order:
// the ground-truth values a perfect calibration of the paper's cf factors
// would measure. The returned slice is a copy.
func (p *Profile) EfficiencyTable() []float64 {
	out := make([]float64, len(p.States))
	for i, s := range p.States {
		out[i] = s.Efficiency
	}
	return out
}

// Power returns the power draw in watts at frequency f and utilization
// util in [0,1]. Utilization outside the range is clamped.
func (p *Profile) Power(f Freq, util float64) (float64, error) {
	i, err := p.Index(f)
	if err != nil {
		return 0, err
	}
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	s := p.States[i]
	fGHz := float64(s.Freq) / 1000
	dyn := p.DynCoeff * s.Voltage * s.Voltage * fGHz
	// The conversions are rounding barriers: the Go spec lets a compiler
	// fuse x*y+z into one FMA (arm64, ppc64le and s390x do), and a fused
	// sum differs in the last bit from the amd64 result.
	return p.StaticPower + float64(dyn*float64(p.IdleFactor+float64((1-p.IdleFactor)*util))), nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
