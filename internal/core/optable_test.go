package core_test

import (
	"fmt"
	"math"
	"testing"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/sim"
	"pasched/internal/vm"
)

// refLevel is Listing 1.1 evaluated per call, straight off the profile:
// the reference the tabulated scan must reproduce bit for bit.
func refLevel(prof *cpufreq.Profile, cf []float64, absLoadPct float64) int {
	for i, s := range prof.States {
		c := 1.0
		if i < len(cf) && cf[i] > 0 {
			c = cf[i]
		}
		if prof.Ratio(s.Freq)*100*c > absLoadPct {
			return i
		}
	}
	return len(prof.States) - 1
}

func builtinProfiles() []*cpufreq.Profile {
	return append([]*cpufreq.Profile{cpufreq.Optiplex755(), cpufreq.Elite8300()},
		cpufreq.Table1Profiles()...)
}

// TestOpTableMatchesPerCallEquations pins the table to the per-call
// equations over every built-in profile, several calibration tables
// and a load grid that includes zero, negative sub-ulp dust, every
// threshold and its neighbours, and loads above the top threshold.
func TestOpTableMatchesPerCallEquations(t *testing.T) {
	for _, prof := range builtinProfiles() {
		eff := prof.EfficiencyTable()
		// A calibrated table that differs from the ground truth (a
		// measurement a little off in both directions), a short one, one
		// with a non-positive entry, nil and the ground truth itself.
		calibrated := make([]float64, len(eff))
		for i, e := range eff {
			calibrated[i] = e * (1 + 0.013*float64(i%3-1))
		}
		bad := append([]float64(nil), eff...)
		bad[0] = 0
		for _, cf := range [][]float64{nil, eff, calibrated, eff[:1], bad} {
			tab := core.NewOpTable(prof, cf)
			loads := []float64{0, math.Copysign(0, -1), -1e-300, -math.SmallestNonzeroFloat64,
				-2.842170943040401e-14, 1e-12, 0.5, 20, 37.5, 99.99, 100, 100.0001, 150, 1e9}
			for i := range prof.States {
				c := 1.0
				if i < len(cf) && cf[i] > 0 {
					c = cf[i]
				}
				thr := prof.Ratio(prof.States[i].Freq) * 100 * c
				loads = append(loads, thr, math.Nextafter(thr, 0), math.Nextafter(thr, 1e9))
			}
			for _, abs := range loads {
				want := refLevel(prof, cf, abs)
				got := tab.Level(abs)
				if got != want {
					t.Fatalf("%s cf=%v: Level(%v) = %d, want %d", prof.Name, cf, abs, got, want)
				}
				if f := core.ComputeNewFreq(prof, cf, abs); f != prof.States[want].Freq {
					t.Fatalf("%s: ComputeNewFreq(%v) = %v, want %v", prof.Name, abs, f, prof.States[want].Freq)
				}
				// The power estimate the DVFS-aware placement derives at
				// that operating point.
				f := tab.Freq(got)
				e, err := prof.Efficiency(f)
				if err != nil {
					t.Fatal(err)
				}
				util := abs / 100 / (prof.Ratio(f) * e)
				wantW, err := prof.Power(f, util)
				if err != nil {
					t.Fatal(err)
				}
				gotW := tab.Power(got, abs/100/tab.RatioEff(got))
				if math.Float64bits(gotW) != math.Float64bits(wantW) {
					t.Fatalf("%s: Power at %v, util %v = %v, want %v", prof.Name, f, util, gotW, wantW)
				}
			}
			for i, s := range prof.States {
				c := 1.0
				if i < len(cf) && cf[i] > 0 {
					c = cf[i]
				}
				if tab.Freq(i) != s.Freq || tab.Ratio(i) != prof.Ratio(s.Freq) || tab.CF(i) != c {
					t.Fatalf("%s level %d: freq/ratio/cf = %v/%v/%v", prof.Name, i, tab.Freq(i), tab.Ratio(i), tab.CF(i))
				}
				for _, init := range []float64{0, 5, 12.5, 20, 33.4, 70, 95} {
					want, err := core.CompensatedCredit(init, prof.Ratio(s.Freq), c)
					if err != nil {
						t.Fatal(err)
					}
					if got := init / tab.Denom(i); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s level %d: compensated %v = %v, want %v", prof.Name, i, init, got, want)
					}
				}
				for _, util := range []float64{-0.5, 0, 0.25, 1, 3} {
					want, err := prof.Power(s.Freq, util)
					if err != nil {
						t.Fatal(err)
					}
					if got := tab.Power(i, util); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s level %d: Power(%v) = %v, want %v", prof.Name, i, util, got, want)
					}
				}
			}
		}
	}
}

type settableLoad struct{ global float64 }

func (l *settableLoad) GlobalLoad() float64 { return l.global }

// recompLog records the Recompensate decision events.
type recompLog struct{ vms []int64 }

func (*recompLog) TraceRefill(sim.Time)                         {}
func (*recompLog) TraceExhausted(sim.Time, *vm.VM)              {}
func (r *recompLog) TraceRecompensate(_ sim.Time, _, vms int64) { r.vms = append(r.vms, vms) }

// TestPASRecompensationSkip drives PAS pass by pass against a model of
// Listing 1.2 that rewrites every cap on every pass: after each pass
// every positive-credit VM's cap must be exactly its equation-4 credit
// at that pass's target P-state, and the Recompensate events must come
// at the same passes with the same VM counts. The script covers a VM
// added at an unchanged reduced frequency, a SetCap rebase (also while
// a frequency switch is pending), Remove, and passes that run while a
// switch is still in flight.
func TestPASRecompensationSkip(t *testing.T) {
	prof := cpufreq.Optiplex755()
	// Longer than two PAS intervals, so passes see a pending switch.
	prof.TransitionLatency = 25 * sim.Millisecond
	cpu, err := cpufreq.NewCPU(prof)
	if err != nil {
		t.Fatal(err)
	}
	cf := prof.EfficiencyTable()
	cf[1] *= 0.98 // a calibration that differs from the ground truth
	pas, err := core.NewPAS(core.PASConfig{CPU: cpu, CF: cf, SettleTime: sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	load := &settableLoad{}
	pas.BindLoadSource(load)
	log := &recompLog{}
	pas.SetTracer(log)

	init := map[vm.ID]float64{}
	add := func(id vm.ID, credit float64) {
		t.Helper()
		v, err := vm.New(id, vm.Config{Name: fmt.Sprintf("v%d", id), Credit: credit})
		if err != nil {
			t.Fatal(err)
		}
		if err := pas.Add(v); err != nil {
			t.Fatal(err)
		}
		init[id] = credit
	}
	positive := func() int64 {
		n := int64(0)
		for _, c := range init {
			if c > 0 {
				n++
			}
		}
		return n
	}
	var now sim.Time
	wantEvents := []int64{}
	pass := func(global float64) {
		t.Helper()
		now += pas.Interval()
		cpu.Advance(now)
		load.global = global
		cur, _ := prof.Index(cpu.Freq())
		abs := core.AbsoluteLoad(global*100, prof.Ratio(cpu.Freq()), cf[cur])
		target := core.ComputeNewFreq(prof, cf, abs*1.02)
		if target != cpu.Freq() {
			wantEvents = append(wantEvents, positive())
		}
		pas.Tick(now)
		ti, _ := prof.Index(target)
		for id, c := range init {
			if c <= 0 {
				continue
			}
			want, err := core.CompensatedCredit(c, prof.Ratio(target), cf[ti])
			if err != nil {
				t.Fatal(err)
			}
			got, err := pas.EffectiveCap(id)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("t=%v: VM %d (init %v) cap %v, want %v at %v", now, id, c, got, want, target)
			}
		}
		if fmt.Sprint(log.vms) != fmt.Sprint(wantEvents) {
			t.Fatalf("t=%v: Recompensate VM counts %v, want %v", now, log.vms, wantEvents)
		}
	}

	add(1, 20)
	add(2, 0) // null credit: never compensated, never counted
	pass(0.1) // 2667 -> 1600 requested
	pass(0.1) // still pending: the same target is requested again
	for k := 0; k < 4; k++ {
		pass(0.1) // settled at 1600, nothing changes
	}
	add(3, 30) // added at an unchanged reduced frequency
	pass(0.1)
	if err := pas.SetCap(1, 40); err != nil {
		t.Fatal(err)
	}
	init[1] = 40
	pass(0.1)
	if err := pas.Remove(3); err != nil {
		t.Fatal(err)
	}
	delete(init, 3)
	pass(0.1)
	pass(1) // saturated at 1600: one step up is requested
	if _, _, pending := cpu.PendingSwitch(); !pending {
		t.Fatal("no switch in flight after a saturated pass")
	}
	// Rebased while the switch is in flight: compensated for the old
	// frequency, so the next pass must rewrite it although its target
	// P-state is the one last compensated for.
	if err := pas.SetCap(1, 25); err != nil {
		t.Fatal(err)
	}
	init[1] = 25
	pass(1)
	pass(1)
	pass(1)
	for k := 0; k < 4; k++ {
		pass(0.05)
	}
	if len(wantEvents) < 4 {
		t.Fatalf("script produced only %d frequency changes", len(wantEvents))
	}
}
