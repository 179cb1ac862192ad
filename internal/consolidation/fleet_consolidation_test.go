package consolidation_test

// These tests tell the paper's Section 2.3 consolidation story — spread
// VMs, live-migrate them together, power the emptied machines off and let
// PAS down-clock the survivors — through the fleet engine, which owns
// consolidation, migration and power management. VMs are pinned to their
// starting machines so each scenario begins from an explicit spread.

import (
	"reflect"
	"sort"
	"testing"

	"pasched/internal/consolidation"
	"pasched/internal/cpufreq"
	"pasched/internal/fleet"
	"pasched/internal/sim"
)

// pinnedVM is one VM of a scenario and the machine it starts on.
type pinnedVM struct {
	name      string
	creditPct float64
	memoryMB  int
	activity  float64
	machine   int
}

// pinnedPolicy places each arrival on the machine its name is pinned
// to. Consolidation moves, whose candidate list excludes the source
// machine, fall back to first-fit.
type pinnedPolicy map[string]int

func (pinnedPolicy) Name() string { return "pinned" }

func (p pinnedPolicy) Place(machines []fleet.MachineState, r fleet.Request) (int, bool) {
	for _, m := range machines {
		if m.Index == p[r.Name] && m.Fits(r) {
			return m.Index, true
		}
	}
	return fleet.NewFirstFit().Place(machines, r)
}

// scenario is a fleet of identical machines whose VMs all arrive at
// t = 0 on their pinned machines and stay until the horizon.
type scenario struct {
	machines         int
	memoryMB         int // per machine; default 4096
	scheduler        string
	consolidateEvery sim.Time
	reportEvery      sim.Time // default 1 s
	workers          int      // default 1
	horizon          sim.Time
	vms              []pinnedVM
}

func (sc scenario) config() (fleet.Config, *fleet.Trace) {
	if sc.memoryMB == 0 {
		sc.memoryMB = 4096
	}
	if sc.reportEvery == 0 {
		sc.reportEvery = sim.Second
	}
	if sc.workers == 0 {
		sc.workers = 1
	}
	tr := &fleet.Trace{Classes: map[string]fleet.VMClass{}, Horizon: sc.horizon}
	pin := pinnedPolicy{}
	for _, v := range sc.vms {
		tr.Classes[v.name] = fleet.VMClass{Name: v.name, CreditPct: v.creditPct, MemoryMB: v.memoryMB}
		tr.Events = append(tr.Events, fleet.VMEvent{Name: v.name, Class: v.name,
			Lifetime: sc.horizon, Activity: v.activity})
		pin[v.name] = v.machine
	}
	sort.Slice(tr.Events, func(i, j int) bool { return tr.Events[i].Name < tr.Events[j].Name })
	cfg := fleet.Config{
		Machines: []fleet.MachineClass{{Name: "optiplex-755", Count: sc.machines,
			Spec: consolidation.HostSpec{MemoryMB: sc.memoryMB, Profile: cpufreq.Optiplex755()}}},
		Scheduler:        sc.scheduler,
		Policy:           pin,
		ReportEvery:      sc.reportEvery,
		ConsolidateEvery: sc.consolidateEvery,
		Workers:          sc.workers,
	}
	return cfg, tr
}

func (sc scenario) run(t *testing.T) *fleet.Report {
	t.Helper()
	cfg, tr := sc.config()
	f, err := fleet.New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := f.Run(sc.horizon)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sc.vms {
		if o := outcome(t, rep, v.name); o.ArriveS != 0 {
			t.Fatalf("%s arrived at %v s, want 0", v.name, o.ArriveS)
		}
	}
	return rep
}

func outcome(t *testing.T, rep *fleet.Report, name string) fleet.VMOutcome {
	t.Helper()
	for _, o := range rep.PerVM {
		if o.Name == name {
			return o
		}
	}
	t.Fatalf("no outcome for VM %s", name)
	return fleet.VMOutcome{}
}

func finalActive(rep *fleet.Report) int {
	return rep.Intervals[len(rep.Intervals)-1].ActiveMachines
}

func TestLiveMigrationMovesTheVM(t *testing.T) {
	// web is the lighter load, so consolidation at t = 5 s picks its
	// machine as the victim and moves it next to anchor.
	rep := scenario{
		machines:         2,
		scheduler:        "pas",
		consolidateEvery: 5 * sim.Second,
		horizon:          20 * sim.Second,
		vms: []pinnedVM{
			{name: "anchor", creditPct: 50, memoryMB: 1000, activity: 0.5, machine: 0},
			{name: "web", creditPct: 30, memoryMB: 2000, activity: 0.5, machine: 1},
		},
	}.run(t)
	if rep.Summary.Migrated != 1 {
		t.Fatalf("Migrated = %d, want 1", rep.Summary.Migrated)
	}
	// 2000 MB at 1000 MB/s: the copy planned at t = 5 s takes 2 s, so the
	// VM cannot land on the target before t = 7 s.
	for _, iv := range rep.Intervals {
		if iv.Migrations > 0 && (iv.TimeS < 7 || iv.TimeS > 8) {
			t.Errorf("migration completed in the interval ending at %v s, want 7-8 s", iv.TimeS)
		}
	}
	if web := outcome(t, rep, "web"); web.Machine != 0 {
		t.Errorf("web on machine %d after migration, want 0", web.Machine)
	}
	if got := finalActive(rep); got != 1 {
		t.Errorf("ActiveMachines = %d at the horizon, want 1", got)
	}
	// The workload kept running: the target machine serves both VMs'
	// demand after the move.
	var demanded, attained float64
	for _, iv := range rep.Intervals {
		if iv.TimeS > 8 {
			demanded += iv.DemandedWork
			attained += iv.AttainedWork
		}
	}
	if demanded == 0 || attained/demanded < 0.95 {
		t.Errorf("post-migration SLA on the target = %.0f/%.0f, want >= 0.95", attained, demanded)
	}
	if web := outcome(t, rep, "web"); web.SLA < 0.95 {
		t.Errorf("web SLA = %.3f across the migration, want >= 0.95", web.SLA)
	}
}

func TestPlanConsolidationEmptiesLeastLoaded(t *testing.T) {
	// Machine 0: two mid VMs; machine 1: one small VM; machine 2: one mid.
	// Only the small VM moves; c cannot follow onto the full machine 0.
	rep := scenario{
		machines:         3,
		scheduler:        "pas",
		consolidateEvery: 2 * sim.Second,
		horizon:          20 * sim.Second,
		vms: []pinnedVM{
			{name: "a", creditPct: 30, memoryMB: 1500, activity: 0.5, machine: 0},
			{name: "b", creditPct: 30, memoryMB: 1500, activity: 0.5, machine: 0},
			{name: "small", creditPct: 10, memoryMB: 500, activity: 0.5, machine: 1},
			{name: "c", creditPct: 30, memoryMB: 1500, activity: 0.5, machine: 2},
		},
	}.run(t)
	if rep.Summary.Migrated != 1 {
		t.Fatalf("Migrated = %d, want 1 (small -> elsewhere)", rep.Summary.Migrated)
	}
	if mi := outcome(t, rep, "small").Machine; mi == 1 {
		t.Error("small VM still on machine 1")
	}
	for name, want := range map[string]int{"a": 0, "b": 0, "c": 2} {
		if mi := outcome(t, rep, name).Machine; mi != want {
			t.Errorf("%s on machine %d, want %d", name, mi, want)
		}
	}
	if got := finalActive(rep); got != 2 {
		t.Errorf("ActiveMachines = %d at the horizon, want 2", got)
	}
}

func TestPlanConsolidationNilWhenImpossible(t *testing.T) {
	// Both machines memory-full: nothing can move.
	full := scenario{
		machines:         2,
		scheduler:        "pas",
		consolidateEvery: 2 * sim.Second,
		horizon:          10 * sim.Second,
		vms: []pinnedVM{
			{name: "a", creditPct: 30, memoryMB: 4000, activity: 0.2, machine: 0},
			{name: "b", creditPct: 30, memoryMB: 4000, activity: 0.2, machine: 1},
		},
	}.run(t)
	if full.Summary.Migrated != 0 {
		t.Errorf("Migrated = %d, want 0 (memory bound)", full.Summary.Migrated)
	}
	if got := finalActive(full); got != 2 {
		t.Errorf("ActiveMachines = %d, want 2", got)
	}
	// A single loaded machine has nothing to consolidate either.
	single := scenario{
		machines:         2,
		scheduler:        "pas",
		consolidateEvery: 2 * sim.Second,
		horizon:          10 * sim.Second,
		vms: []pinnedVM{
			{name: "a", creditPct: 30, memoryMB: 1000, activity: 0.2, machine: 0},
		},
	}.run(t)
	if single.Summary.Migrated != 0 {
		t.Errorf("Migrated = %d, want 0 (one loaded machine)", single.Summary.Migrated)
	}
}

func TestConsolidationPlusPASEndToEnd(t *testing.T) {
	// The full Section 2.3 story: spread VMs, consolidate, switch a
	// machine off, and let PAS lower the frequency on the survivor —
	// each step cuts energy while absolute credits hold.
	run := func(sched string, consolidateEvery sim.Time) *fleet.Report {
		return scenario{
			machines:         2,
			scheduler:        sched,
			consolidateEvery: consolidateEvery,
			horizon:          30 * sim.Second,
			vms: []pinnedVM{
				{name: "a", creditPct: 20, memoryMB: 1000, activity: 1.0, machine: 0},
				{name: "b", creditPct: 20, memoryMB: 1000, activity: 1.0, machine: 1},
			},
		}.run(t)
	}
	spread := run("pas", 0)
	consolidated := run("pas", 10*sim.Second)
	atMax := run("credit", 10*sim.Second)
	if consolidated.Summary.Migrated != 1 {
		t.Fatalf("Migrated = %d, want 1", consolidated.Summary.Migrated)
	}
	if got := finalActive(consolidated); got != 1 {
		t.Errorf("ActiveMachines = %d at the horizon, want 1", got)
	}
	if c, s := consolidated.Summary.TotalJoules, spread.Summary.TotalJoules; c >= s {
		t.Errorf("consolidated %.0f J not below spread %.0f J", c, s)
	}
	if p, c := consolidated.Summary.TotalJoules, atMax.Summary.TotalJoules; p >= c {
		t.Errorf("consolidated PAS %.0f J not below consolidated fix-credit %.0f J", p, c)
	}
	// Both VMs share the surviving machine and still get their absolute
	// credit there: at activity 1 the demand is the full 20 % credit.
	a, b := outcome(t, consolidated, "a"), outcome(t, consolidated, "b")
	if a.Machine != b.Machine {
		t.Errorf("a on machine %d, b on machine %d; want one survivor", a.Machine, b.Machine)
	}
	for _, o := range []fleet.VMOutcome{a, b} {
		if o.SLA < 0.95 {
			t.Errorf("%s SLA = %.3f, want >= 0.95", o.Name, o.SLA)
		}
	}
}

func TestAutoConsolidationShrinksTheFleet(t *testing.T) {
	// Four small VMs spread over four machines; consolidation migrates
	// them together and the emptied machines power off, keeping one on.
	sc := scenario{
		machines:         4,
		scheduler:        "pas",
		consolidateEvery: 2 * sim.Second,
		reportEvery:      2 * sim.Second,
		horizon:          60 * sim.Second,
	}
	for i := 0; i < 4; i++ {
		sc.vms = append(sc.vms, pinnedVM{name: string(rune('a' + i)),
			creditPct: 20, memoryMB: 900, activity: 0.5, machine: i})
	}
	bad := sc
	bad.consolidateEvery = -sim.Second
	cfg, tr := bad.config()
	if _, err := fleet.New(cfg, tr); err == nil {
		t.Error("negative consolidation interval accepted")
	}
	rep := sc.run(t)
	if got := finalActive(rep); got != 1 {
		t.Errorf("ActiveMachines = %d, want 1 after consolidation", got)
	}
	if rep.Summary.PowerOffs != 3 {
		t.Errorf("PowerOffs = %d, want 3", rep.Summary.PowerOffs)
	}
	if rep.Summary.Migrated < 3 {
		t.Errorf("Migrated = %d, want >= 3", rep.Summary.Migrated)
	}
	// All VMs ended up on the same machine and keep their credits.
	home := outcome(t, rep, "a").Machine
	for _, v := range sc.vms {
		o := outcome(t, rep, v.name)
		if o.Machine != home {
			t.Errorf("%s on machine %d, want %d", v.name, o.Machine, home)
		}
		if o.SLA < 0.95 {
			t.Errorf("%s SLA = %.3f, want >= 0.95", v.name, o.SLA)
		}
	}
}

func TestAutoConsolidationSavesEnergy(t *testing.T) {
	run := func(consolidateEvery sim.Time) *fleet.Report {
		sc := scenario{
			machines:         3,
			scheduler:        "pas",
			consolidateEvery: consolidateEvery,
			reportEvery:      2 * sim.Second,
			horizon:          60 * sim.Second,
		}
		for i := 0; i < 3; i++ {
			sc.vms = append(sc.vms, pinnedVM{name: string(rune('a' + i)),
				creditPct: 15, memoryMB: 800, activity: 0.4, machine: i})
		}
		return sc.run(t)
	}
	spread := run(0)
	auto := run(2 * sim.Second)
	if auto.Summary.TotalJoules >= spread.Summary.TotalJoules {
		t.Errorf("auto-consolidated %.0f J not below spread %.0f J",
			auto.Summary.TotalJoules, spread.Summary.TotalJoules)
	}
}

// TestDataCenterParallelDeterminism: the eight-machine consolidation
// scenario — 12 web VMs spread over six machines, PAS, consolidation
// every 5 s — produces a bit-identical report for any worker count.
func TestDataCenterParallelDeterminism(t *testing.T) {
	run := func(workers int) *fleet.Report {
		sc := scenario{
			machines:         8,
			memoryMB:         8192,
			scheduler:        "pas",
			consolidateEvery: 5 * sim.Second,
			reportEvery:      5 * sim.Second,
			workers:          workers,
			horizon:          30 * sim.Second,
		}
		for i := 0; i < 12; i++ {
			sc.vms = append(sc.vms, pinnedVM{
				name:      string(rune('a' + i)),
				creditPct: 15 + float64(i%3)*5,
				memoryMB:  1024 + 512*(i%4),
				activity:  0.4 + 0.05*float64(i%5),
				machine:   i % 6,
			})
		}
		return sc.run(t)
	}
	want := run(1)
	if want.Summary.Migrated == 0 {
		t.Fatal("scenario performed no migrations; the determinism check is vacuous")
	}
	for _, workers := range []int{2, 4, 8} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: summary %+v, want %+v (workers=1)", workers, got.Summary, want.Summary)
		}
	}
}
