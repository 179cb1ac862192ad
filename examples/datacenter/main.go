// Datacenter: the Section 2.3 context. A hosting center consolidates VMs
// onto as few machines as memory allows, switches the rest off, and then
// still runs DVFS (with PAS enforcing the credits) on the machines that
// remain — because memory-bound packing leaves their CPUs underloaded,
// consolidation and DVFS are complementary, not redundant.
package main

import (
	"fmt"
	"log"
	"strings"

	"pasched"
	"pasched/internal/consolidation"
	"pasched/internal/fleet"
	"pasched/internal/metrics"
)

func main() {
	machine := consolidation.HostSpec{
		MemoryMB: 8192,
		Profile:  pasched.Optiplex755(),
	}
	// A typical mixed estate: mostly idle services with contractual CPU
	// shares and real memory footprints.
	vms := []consolidation.VMSpec{
		{Name: "web-frontend", CreditPct: 30, MemoryMB: 3072, Activity: 0.9},
		{Name: "web-backend", CreditPct: 30, MemoryMB: 4096, Activity: 0.6},
		{Name: "database", CreditPct: 40, MemoryMB: 6144, Activity: 0.5},
		{Name: "batch", CreditPct: 20, MemoryMB: 2048, Activity: 1.0},
		{Name: "monitoring", CreditPct: 10, MemoryMB: 1024, Activity: 0.3},
		{Name: "build-ci", CreditPct: 25, MemoryMB: 4096, Activity: 0.2},
		{Name: "mail", CreditPct: 10, MemoryMB: 2048, Activity: 0.2},
		{Name: "backup", CreditPct: 15, MemoryMB: 3072, Activity: 0.1},
	}

	placement, err := consolidation.PackFFD(vms, machine)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Consolidation: %d VMs packed onto %d machines (memory-bound FFD);\n",
		len(vms), placement.Hosts)
	fmt.Printf("machines beyond the %d placed ones are switched off.\n\n", placement.Hosts)

	const dur = 60 * pasched.Second
	baseline, err := consolidation.Simulate(placement, vms, machine, dur, "credit")
	if err != nil {
		log.Fatal(err)
	}
	withPAS, err := consolidation.Simulate(placement, vms, machine, dur, "pas")
	if err != nil {
		log.Fatal(err)
	}

	tbm := metrics.NewTable("Per-machine outcome over 60 s:",
		"machine", "VMs", "mean load (%)", "mean freq, PAS (MHz)", "J @ max freq", "J with PAS")
	for i := range withPAS.PerHost {
		b := baseline.PerHost[i]
		p := withPAS.PerHost[i]
		tbm.AddRow(
			fmt.Sprintf("m%d", i),
			fmt.Sprintf("%v", p.VMs),
			metrics.Fmt(p.MeanLoadPct, 1),
			metrics.Fmt(p.MeanFreqMHz, 0),
			metrics.Fmt(b.Joules, 0),
			metrics.Fmt(p.Joules, 0),
		)
	}
	fmt.Println(tbm.Render())
	saved := (baseline.TotalJoules - withPAS.TotalJoules) / baseline.TotalJoules * 100
	fmt.Printf("\nTotal: %.0f J at max frequency vs %.0f J with PAS — %.1f%% saved\n",
		baseline.TotalJoules, withPAS.TotalJoules, saved)
	fmt.Println("on machines that consolidation could not fill (memory was the bottleneck),")
	fmt.Println("while every VM keeps its contracted absolute CPU share.")

	dynamicPhase()
}

// dynamicPhase shows the live side of Section 2.3 as a fleet trace: four
// daytime VMs spread the night-time services one per machine; once they
// leave, the consolidation manager live-migrates the survivors together
// and powers the emptied machines off, and PAS keeps saving on what
// remains.
func dynamicPhase() {
	fmt.Println("\n--- Dynamic consolidation (live migration + power-off) ---")
	const horizon = 90 * pasched.Second
	trace := &fleet.Trace{
		Classes: map[string]fleet.VMClass{
			"day": {Name: "day", CreditPct: 30, MemoryMB: 6144},
			"svc": {Name: "svc", CreditPct: 15, MemoryMB: 1500},
		},
		Horizon: horizon,
	}
	// First-fit gives every day VM a machine of its own, and each one
	// leaves room for exactly one service VM beside it.
	for i := 0; i < 4; i++ {
		trace.Events = append(trace.Events, fleet.VMEvent{Name: fmt.Sprintf("day%d", i),
			Class: "day", Arrive: 0, Lifetime: 30 * pasched.Second, Activity: 0.4})
	}
	for i := 0; i < 4; i++ {
		trace.Events = append(trace.Events, fleet.VMEvent{Name: fmt.Sprintf("svc%d", i),
			Class: "svc", Arrive: pasched.Second, Lifetime: horizon - pasched.Second, Activity: 0.4})
	}
	f, err := fleet.New(fleet.Config{
		Machines: []fleet.MachineClass{{Name: "optiplex-755", Count: 4,
			Spec: consolidation.HostSpec{MemoryMB: 8192, Profile: pasched.Optiplex755()}}},
		Scheduler:        "pas",
		Policy:           fleet.NewFirstFit(),
		ReportEvery:      5 * pasched.Second,
		ConsolidateEvery: 5 * pasched.Second,
	}, trace)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := f.Run(horizon)
	if err != nil {
		log.Fatal(err)
	}
	var timeline []string
	for _, iv := range rep.Intervals {
		timeline = append(timeline, fmt.Sprintf("%.0fs:%d", iv.TimeS, iv.ActiveMachines))
	}
	s := rep.Summary
	active := rep.Intervals[len(rep.Intervals)-1].ActiveMachines
	fmt.Printf("active machines by time: %s\n", strings.Join(timeline, " "))
	fmt.Printf("after 90 s: %d/%d machines still on, %d live migrations, %d power-offs, SLA %.3f\n",
		active, s.Machines, s.Migrated, s.PowerOffs, s.OverallSLA)
	fmt.Printf("energy consumed: %.0f J (machines switched off cost nothing;\n", s.TotalJoules)
	fmt.Println("PAS keeps the surviving machine at a reduced frequency).")
	if s.Migrated == 0 || active != 1 {
		log.Fatalf("consolidation did not fold the services onto one machine: %d migrations, %d active",
			s.Migrated, active)
	}
}
