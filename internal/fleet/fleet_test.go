package fleet

import (
	"bytes"
	"strings"
	"testing"

	"pasched/internal/consolidation"
	"pasched/internal/cpufreq"
	"pasched/internal/sim"
)

// testMachines is a small heterogeneous estate: fast desktops and
// slower, bigger Xeons.
func testMachines(opti, xeon int) []MachineClass {
	return []MachineClass{
		{Name: "optiplex", Count: opti, Spec: consolidation.HostSpec{
			MemoryMB: 8192, Profile: cpufreq.Optiplex755()}},
		{Name: "xeon-e5", Count: xeon, Spec: consolidation.HostSpec{
			MemoryMB: 16384, Profile: cpufreq.XeonE5_2620()}},
	}
}

func genTrace(t *testing.T, cfg GenConfig) *Trace {
	t.Helper()
	tr, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func runFleet(t *testing.T, cfg Config, tr *Trace, horizon sim.Time) *Report {
	t.Helper()
	f, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(horizon)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestFleetBatchedEquivalence runs a contended fleet scenario (2-4
// runnable VMs per machine) through the batching engine and the
// reference quantum-by-quantum loop and requires bit-identical reports
// on every field: counts, energy, work and SLA alike. There are no
// tolerances — the whole accounting spine is exact integers, and every
// report float derives from the same integers through the same
// conversion on both sides.
func TestFleetBatchedEquivalence(t *testing.T) {
	for _, scheduler := range []string{"credit", "pas", "credit2", "pas-credit2"} {
		scheduler := scheduler
		name := scheduler
		if scheduler == "credit" {
			name = "fix-credit"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			// Few machines + max activity: machines host several VMs whose
			// queues stay busy, keeping 2-4 VMs runnable at once.
			tr := genTrace(t, GenConfig{Seed: 3, Arrivals: 12, Horizon: 40 * sim.Second,
				MeanLifetime: 30 * sim.Second, BaseActivity: 0.9, SegmentLen: 10 * sim.Second})
			run := func(reference bool) (*Report, *Fleet) {
				cfg := Config{
					Machines:         testMachines(2, 1),
					Scheduler:        scheduler,
					Policy:           NewFirstFit(),
					ReportEvery:      10 * sim.Second,
					ConsolidateEvery: 20 * sim.Second,
					Seed:             3,
					Reference:        reference,
				}
				f, err := New(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				rep, err := f.Run(40 * sim.Second)
				if err != nil {
					t.Fatal(err)
				}
				return rep, f
			}
			got, bf := run(false)
			want, rf := run(true)
			if bf.BatchedQuanta() == 0 {
				t.Fatal("batching never engaged; the comparison is vacuous")
			}
			if rf.BatchedQuanta() != 0 {
				t.Fatalf("reference fleet batched %d quanta", rf.BatchedQuanta())
			}
			// Contention must actually occur for the scenario to mean
			// anything: some machine hosted >= 2 VMs at once.
			peak := 0
			for _, iv := range want.Intervals {
				if iv.LiveVMs > peak {
					peak = iv.LiveVMs
				}
			}
			if peak < 4 {
				t.Fatalf("peak live VMs %d on 3 machines; scenario is not contended", peak)
			}

			// The two reports must be bit-identical in their entirety:
			// summary, every interval (time, work, energy, SLA) and every
			// per-VM outcome.
			// The engine-introspection counters are the one intentional
			// difference (the reference run never batches); everything the
			// run *simulated* must match bit-for-bit.
			gs, ws := got.Summary, want.Summary
			gs.BatchedQuanta, gs.SteppedQuanta = 0, 0
			ws.BatchedQuanta, ws.SteppedQuanta = 0, 0
			if msg := firstDivergence("summary", []Summary{gs}, []Summary{ws}) +
				firstDivergence("interval", got.Intervals, want.Intervals) +
				firstDivergence("outcome", got.PerVM, want.PerVM); msg != "" {
				t.Errorf("batched run differs from the reference run:%s", msg)
			}
		})
	}
}

// TestFleetConsolidationMigratesAndPowersOff drives a hand-written trace
// through consolidation: departures empty most of machine duty, the
// remaining VM migrates away, and the emptied machine powers off. The
// same trace without consolidation keeps the spread machines on, so the
// consolidated run must use less energy.
func TestFleetConsolidationMigratesAndPowersOff(t *testing.T) {
	trace := `
horizon,300
class,big,30,6144
class,medium,15,2048
class,small,10,1024
# a+b fill machine 0 (8192 MB); c and d spill to machine 1. When b
# departs at t=61, machine 0 has room again and consolidation can fold
# c and d back, emptying machine 1.
vm,a,0,300,big,0.4
vm,b,1,60,medium,0.4
vm,c,2,300,small,0.4
vm,d,3,300,small,0.4
`
	tr, err := ParseTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	run := func(consolidateEvery sim.Time) *Report {
		cfg := Config{
			Machines: []MachineClass{{Name: "optiplex", Count: 3, Spec: consolidation.HostSpec{
				MemoryMB: 8192, Profile: cpufreq.Optiplex755()}}},
			Scheduler:        "pas",
			Policy:           NewFirstFit(),
			ReportEvery:      30 * sim.Second,
			ConsolidateEvery: consolidateEvery,
		}
		return runFleet(t, cfg, tr, 300*sim.Second)
	}
	rep := run(30 * sim.Second)
	if rep.Summary.Migrated == 0 {
		t.Errorf("no migrations: %+v", rep.Summary)
	}
	if rep.Summary.EverPoweredOn < 2 {
		t.Errorf("expected at least 2 machines used, got %d", rep.Summary.EverPoweredOn)
	}
	last := rep.Intervals[len(rep.Intervals)-1]
	if last.ActiveMachines != 1 {
		t.Errorf("expected consolidation to end on 1 active machine, got %d", last.ActiveMachines)
	}
	if rep.Summary.OverallSLA < 0.95 {
		t.Errorf("lightly loaded fleet should meet its SLA, got %v", rep.Summary.OverallSLA)
	}
	spread := run(0)
	if spread.Summary.Migrated != 0 {
		t.Errorf("migrations with consolidation disabled: %+v", spread.Summary)
	}
	if rep.Summary.TotalJoules >= spread.Summary.TotalJoules {
		t.Errorf("consolidated run used %v J, spread run %v J; consolidation saved nothing",
			rep.Summary.TotalJoules, spread.Summary.TotalJoules)
	}
}

// TestFleetRejectsWhenFull: a fleet too small for the trace rejects
// arrivals instead of failing.
func TestFleetRejectsWhenFull(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 5, Arrivals: 60, Horizon: 60 * sim.Second,
		MeanLifetime: 300 * sim.Second})
	cfg := Config{
		Machines: []MachineClass{{Name: "tiny", Count: 1, Spec: consolidation.HostSpec{
			MemoryMB: 4096, Profile: cpufreq.Optiplex755()}}},
		Policy: NewBestFit(),
	}
	rep := runFleet(t, cfg, tr, 60*sim.Second)
	if rep.Summary.Rejected == 0 {
		t.Errorf("expected rejections on an undersized fleet: %+v", rep.Summary)
	}
	if rep.Summary.Arrived+rep.Summary.Rejected != 60 {
		t.Errorf("arrived %d + rejected %d != 60", rep.Summary.Arrived, rep.Summary.Rejected)
	}
}

// badPolicy returns an out-of-range machine, exercising the diagnosable
// failure path.
type badPolicy struct{}

func (badPolicy) Name() string                              { return "bad" }
func (badPolicy) Place([]MachineState, Request) (int, bool) { return 999, true }

func TestFleetDiagnosesBadPolicy(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 1, Arrivals: 5, Horizon: 30 * sim.Second})
	f, err := New(Config{Machines: testMachines(2, 0), Policy: badPolicy{}}, tr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.Run(30 * sim.Second)
	if err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad policy not diagnosed: %v", err)
	}
}

// TestFleetPoliciesDiffer: the three built-in policies produce valid but
// distinct placements on a heterogeneous estate, and the DVFS-aware
// policy does not use more energy than first-fit on the same trace.
func TestFleetPoliciesDiffer(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 11, Arrivals: 80, Horizon: 180 * sim.Second,
		MeanLifetime: 90 * sim.Second})
	reports := map[string]*Report{}
	for _, pol := range []Policy{NewFirstFit(), NewBestFit(), NewDVFSAware()} {
		cfg := Config{
			Machines:    testMachines(6, 6),
			Scheduler:   "pas",
			Policy:      pol,
			ReportEvery: 30 * sim.Second,
			Seed:        11,
		}
		reports[pol.Name()] = runFleet(t, cfg, tr, 180*sim.Second)
	}
	for name, rep := range reports {
		if rep.Summary.Arrived != 80 || rep.Summary.Rejected != 0 {
			t.Errorf("%s: arrived %d rejected %d", name, rep.Summary.Arrived, rep.Summary.Rejected)
		}
		if rep.Summary.TotalJoules <= 0 {
			t.Errorf("%s: no energy accounted", name)
		}
		if rep.Summary.OverallSLA <= 0 || rep.Summary.OverallSLA > 1 {
			t.Errorf("%s: SLA %v out of range", name, rep.Summary.OverallSLA)
		}
	}
	ff := reports["first-fit"].Summary.TotalJoules
	da := reports["dvfs-aware"].Summary.TotalJoules
	if da > ff*1.05 {
		t.Errorf("dvfs-aware used %v J, first-fit %v J; expected no worse than +5%%", da, ff)
	}
}

// TestFleetPASBeatsFixCreditOnEnergy reproduces the paper's headline at
// fleet scale: under partial load, PAS machines run at reduced frequency
// and consume less than fix-credit machines pinned at maximum, while the
// SLA stays comparable.
func TestFleetPASBeatsFixCreditOnEnergy(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 21, Arrivals: 60, Horizon: 180 * sim.Second,
		MeanLifetime: 90 * sim.Second, BaseActivity: 0.4})
	run := func(sched string) *Report {
		cfg := Config{
			Machines:    testMachines(8, 0),
			Scheduler:   sched,
			Policy:      NewFirstFit(),
			ReportEvery: 30 * sim.Second,
			Seed:        21,
		}
		return runFleet(t, cfg, tr, 180*sim.Second)
	}
	pas := run("pas")
	fix := run("credit")
	if pas.Summary.TotalJoules >= fix.Summary.TotalJoules {
		t.Errorf("PAS %v J >= fix-credit %v J; DVFS saved nothing",
			pas.Summary.TotalJoules, fix.Summary.TotalJoules)
	}
	if pas.Summary.OverallSLA < fix.Summary.OverallSLA-0.05 {
		t.Errorf("PAS SLA %v fell more than 5%% below fix-credit %v",
			pas.Summary.OverallSLA, fix.Summary.OverallSLA)
	}
}

func TestFleetReportOutputs(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 2, Arrivals: 20, Horizon: 60 * sim.Second})
	rep := runFleet(t, Config{Machines: testMachines(4, 0), ReportEvery: 20 * sim.Second}, tr,
		60*sim.Second)
	var csv, js bytes.Buffer
	if err := rep.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "time_s,joules,avg_power_w,active_machines") {
		t.Errorf("csv header: %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
	if got := strings.Count(csv.String(), "\n"); got != len(rep.Intervals)+1 {
		t.Errorf("csv rows %d, intervals %d", got, len(rep.Intervals))
	}
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), `"summary"`) || !strings.Contains(js.String(), `"per_vm"`) {
		t.Errorf("json missing sections: %s", js.String()[:120])
	}
}

// TestFleetRunValidation covers the one-shot and bad-horizon guards.
func TestFleetRunValidation(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 1, Arrivals: 3, Horizon: 10 * sim.Second})
	f, err := New(Config{Machines: testMachines(1, 0)}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(0); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := f.Run(10 * sim.Second); err != nil {
		t.Errorf("run after a rejected horizon: %v", err)
	}
	if _, err := f.Run(10 * sim.Second); err == nil {
		t.Error("second Run accepted")
	}
	if _, err := New(Config{}, tr); err == nil {
		t.Error("fleet without machines accepted")
	}
	if _, err := New(Config{Machines: testMachines(1, 0)}, &Trace{}); err == nil {
		t.Error("invalid trace accepted")
	}
}
