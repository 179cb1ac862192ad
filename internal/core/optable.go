package core

import "pasched/internal/cpufreq"

// OpTable is one processor's P-state ladder tabulated, under one
// calibration table, for the two equations PAS evaluates on its hot
// paths: equation 5 (Listing 1.1), the lowest P-state whose
// credit-compensated capacity covers the absolute load, and equation 4,
// the credit compensation at that P-state. It also carries the
// per-P-state power coefficients, so a power estimate at an operating
// point costs a threshold scan plus one multiply-add chain.
//
// Every entry is computed once, by the same float expression in the
// same order as the per-call code it replaces (Profile.Ratio, cfAt,
// Profile.Power), so a tabulated decision is bit-identical to an
// untabulated one. A table is immutable after NewOpTable and safe for
// concurrent use.
type OpTable struct {
	// thr is equation 5's threshold ratio_i*100*cf_i, in ladder order.
	thr  []float64
	pts  []opPoint
	stat float64 // Profile.StaticPower
	idle float64 // Profile.IdleFactor
	busy float64 // 1 - Profile.IdleFactor
}

type opPoint struct {
	freq  cpufreq.Freq
	ratio float64 // f_i / f_max, the paper's ratio_i
	cf    float64 // calibration factor cf_i (cfAt semantics)
	den   float64 // equation 4's denominator ratio_i*cf_i
	reff  float64 // ratio_i * ground-truth efficiency_i; 0 if the efficiency is not positive
	dyn   float64 // dynamic power at full utilization, DynCoeff*V_i^2*f_i(GHz)
}

// NewOpTable tabulates prof under the calibration table cf (ladder
// order; nil assumes cf = 1 everywhere and a short table is padded
// with 1s, as in ComputeNewFreq).
func NewOpTable(prof *cpufreq.Profile, cf []float64) *OpTable {
	t := &OpTable{
		thr:  make([]float64, len(prof.States)),
		pts:  make([]opPoint, len(prof.States)),
		stat: prof.StaticPower,
		idle: prof.IdleFactor,
		busy: 1 - prof.IdleFactor,
	}
	for i, s := range prof.States {
		ratio := prof.Ratio(s.Freq)
		c := cfAt(cf, i)
		t.thr[i] = ratio * 100 * c
		pt := opPoint{
			freq:  s.Freq,
			ratio: ratio,
			cf:    c,
			den:   ratio * c,
			dyn:   prof.DynCoeff * s.Voltage * s.Voltage * (float64(s.Freq) / 1000),
		}
		if s.Efficiency > 0 {
			pt.reff = ratio * s.Efficiency
		}
		t.pts[i] = pt
	}
	return t
}

// Level is equation 5's threshold scan: the ladder position of the
// lowest P-state with ratio_i*100*cf_i > absLoadPct, or the top one.
func (t *OpTable) Level(absLoadPct float64) int {
	for i, th := range t.thr {
		if th > absLoadPct {
			return i
		}
	}
	return len(t.thr) - 1
}

// Freq returns the frequency at ladder position i.
func (t *OpTable) Freq(i int) cpufreq.Freq { return t.pts[i].freq }

// Ratio returns ratio_i = f_i / f_max.
func (t *OpTable) Ratio(i int) float64 { return t.pts[i].ratio }

// CF returns the calibration factor in effect at ladder position i.
func (t *OpTable) CF(i int) float64 { return t.pts[i].cf }

// Denom returns equation 4's denominator ratio_i*cf_i: a VM with
// initial credit C_init is compensated to C_init / Denom(i).
func (t *OpTable) Denom(i int) float64 { return t.pts[i].den }

// RatioEff returns ratio_i times the ground-truth efficiency at i (the
// throughput at i relative to the maximum frequency), or 0 when the
// profile's efficiency there is not positive.
func (t *OpTable) RatioEff(i int) float64 { return t.pts[i].reff }

// Power returns the power draw in watts at ladder position i and
// utilization util, clamped to [0, 1]; it equals Profile.Power.
func (t *OpTable) Power(i int, util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return t.stat + float64(t.pts[i].dyn*float64(t.idle+float64(t.busy*util)))
}
