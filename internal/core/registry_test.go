package core_test

import (
	"strings"
	"testing"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/host"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// TestSchedulerRegistry pins the registry surface every layer derives
// from: canonical names and aliases resolve, unknown names fail, the
// usage string lists every entry, and each constructor builds a working
// scheduler against a real profile — one that host.New wires to its
// load signal, so the PAS family leaves the maximum frequency under a
// light load while the others stay pinned there.
func TestSchedulerRegistry(t *testing.T) {
	for name, want := range map[string]string{
		"pas":         "pas",
		"credit":      "credit",
		"fix-credit":  "credit",
		"credit2":     "credit2",
		"sedf":        "sedf",
		"pas-credit2": "pas-credit2",
	} {
		got, ok := core.CanonicalScheduler(name)
		if !ok || got != want {
			t.Errorf("CanonicalScheduler(%q) = %q, %v; want %q, true", name, got, ok, want)
		}
		if !core.ValidScheduler(name) {
			t.Errorf("ValidScheduler(%q) = false", name)
		}
	}
	for _, name := range []string{"", "Credit", "pas2", "cfs"} {
		if _, ok := core.CanonicalScheduler(name); ok {
			t.Errorf("CanonicalScheduler(%q) accepted", name)
		}
	}

	profile := cpufreq.Optiplex755()
	if _, err := core.NewScheduler("cfs", nil, nil); err == nil || !strings.Contains(err.Error(), core.SchedulerNames()) {
		t.Errorf("NewScheduler(unknown) error %v does not list the accepted names", err)
	}

	names := core.SchedulerNames()
	specs := core.Schedulers()
	if len(specs) != 5 {
		t.Fatalf("Schedulers() returned %d entries, want 5", len(specs))
	}
	for _, s := range specs {
		if s.Description == "" {
			t.Errorf("scheduler %q has no description", s.Name)
		}
		if !strings.Contains(names, s.Name) {
			t.Errorf("SchedulerNames() %q misses %q", names, s.Name)
		}
		for _, a := range s.Aliases {
			if !strings.Contains(names, a) {
				t.Errorf("SchedulerNames() %q misses alias %q", names, a)
			}
		}

		cpu, err := cpufreq.NewCPU(profile)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := core.NewScheduler(s.Name, cpu, profile.EfficiencyTable())
		if err != nil {
			t.Errorf("NewScheduler(%q): %v", s.Name, err)
			continue
		}
		if sc == nil || sc.Name() != s.Name {
			t.Errorf("NewScheduler(%q) built %v", s.Name, sc)
			continue
		}
		freq, recomputes := runLightLoad(t, cpu, sc)
		pasFamily := s.Name == "pas" || s.Name == "pas-credit2"
		switch {
		case pasFamily && (freq == 2667 || recomputes == 0):
			t.Errorf("%s under a 20%% load: %v, %d recomputes; want below 2667 MHz and recomputes > 0",
				s.Name, freq, recomputes)
		case !pasFamily && freq != 2667:
			t.Errorf("%s under a 20%% load left 2667 MHz: %v", s.Name, freq)
		}
	}
}

// runLightLoad runs the scheduler in a host for 5 s under one VM offering
// a steady 20% of the processor, and returns the final frequency and,
// for the PAS family, how often it recomputed.
func runLightLoad(t *testing.T, cpu *cpufreq.CPU, s sched.Scheduler) (cpufreq.Freq, int) {
	t.Helper()
	h, err := host.New(host.Config{CPU: cpu, Scheduler: s})
	if err != nil {
		t.Fatal(err)
	}
	prof := cpu.Profile()
	maxTp, err := prof.Throughput(prof.Max())
	if err != nil {
		t.Fatal(err)
	}
	web, err := workload.NewWebApp(workload.WebAppConfig{
		Deterministic: true,
		Phases:        workload.ThreePhase(0, 5*sim.Second, workload.ExactRate(maxTp, 20, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := vm.New(1, vm.Config{Name: "V20", Credit: 20})
	if err != nil {
		t.Fatal(err)
	}
	v.SetWorkload(web)
	if err := h.AddVM(v); err != nil {
		t.Fatal(err)
	}
	if err := h.Run(5 * sim.Second); err != nil {
		t.Fatal(err)
	}
	recomputes := 0
	if r, ok := s.(interface{ Recomputes() int }); ok {
		recomputes = r.Recomputes()
	}
	return cpu.Freq(), recomputes
}
