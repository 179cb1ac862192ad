package experiments

import (
	"fmt"

	"pasched/internal/consolidation"
	"pasched/internal/cpufreq"
	"pasched/internal/metrics"
	"pasched/internal/multicore"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// buildAsymmetricCluster builds the two-core asymmetric-load cluster used
// by the multicore extension experiment: a thrashing 20%-credit VM pinned
// to core 0 and a thrashing 70%-credit VM pinned to core 1.
func buildAsymmetricCluster(domain multicore.DVFSDomain) (*multicore.Cluster, error) {
	c, err := multicore.New(multicore.Config{
		Profile: cpufreq.Optiplex755(),
		Cores:   2,
		Domain:  domain,
	})
	if err != nil {
		return nil, err
	}
	v20, err := vm.New(1, vm.Config{Name: "V20", Credit: 20})
	if err != nil {
		return nil, err
	}
	v20.SetWorkload(&workload.Hog{})
	if err := c.AddVM(0, v20); err != nil {
		return nil, err
	}
	v70, err := vm.New(2, vm.Config{Name: "V70", Credit: 70})
	if err != nil {
		return nil, err
	}
	v70.SetWorkload(&workload.Hog{})
	if err := c.AddVM(1, v70); err != nil {
		return nil, err
	}
	return c, nil
}

// ExtMulticore is the Section 7 perspective, implemented: per-core vs
// per-socket DVFS under cluster-level PAS coordination, with asymmetric
// per-core loads. Per-core DVFS lets the lightly loaded core idle at the
// minimum frequency; per-socket DVFS must run the whole socket at the
// hungriest core's frequency. Both preserve every VM's absolute credit.
func ExtMulticore() (*Result, error) {
	const dur = 60 * sim.Second
	res := &Result{
		ID:    "ext-multicore",
		Title: "Extension (Section 7): per-core vs per-socket DVFS under PAS",
	}
	tb := metrics.NewTable("Two cores, thrashing V20 on core 0 and V70 on core 1, 60 s",
		"DVFS domain", "core0 freq", "core1 freq", "V20 absolute (%)", "V70 absolute (%)", "energy (J)")

	joules := make(map[multicore.DVFSDomain]float64, 2)
	for _, domain := range []multicore.DVFSDomain{multicore.PerCore, multicore.PerSocket} {
		c, err := buildAsymmetricCluster(domain)
		if err != nil {
			return nil, err
		}
		if err := c.Run(dur); err != nil {
			return nil, err
		}
		f0, err := c.CoreFreq(0)
		if err != nil {
			return nil, err
		}
		f1, err := c.CoreFreq(1)
		if err != nil {
			return nil, err
		}
		h0, err := c.CoreHost(0)
		if err != nil {
			return nil, err
		}
		h1, err := c.CoreHost(1)
		if err != nil {
			return nil, err
		}
		abs20, _ := h0.Recorder().Series("V20_absolute_pct").MeanBetween(10, dur.Seconds())
		abs70, _ := h1.Recorder().Series("V70_absolute_pct").MeanBetween(10, dur.Seconds())
		joules[domain] = c.TotalJoules()
		tb.AddRow(domain.String(), f0.String(), f1.String(),
			metrics.Fmt(abs20, 1), metrics.Fmt(abs70, 1), metrics.Fmt(c.TotalJoules(), 0))

		res.Checks = append(res.Checks,
			checkNear(fmt.Sprintf("%s: V20 absolute credit preserved (%%)", domain), "20", abs20, 20, 1),
			checkNear(fmt.Sprintf("%s: V70 absolute credit preserved (%%)", domain), "70", abs70, 70, 1.5),
		)
	}
	res.Checks = append(res.Checks, checkTrue(
		"per-core DVFS saves energy over per-socket",
		"finer DVFS domains dominate under asymmetric load",
		fmt.Sprintf("%.0fJ vs %.0fJ", joules[multicore.PerCore], joules[multicore.PerSocket]),
		joules[multicore.PerCore] < joules[multicore.PerSocket]))
	res.Tables = append(res.Tables, tb)
	res.Notes = append(res.Notes,
		"this reproduces no paper figure; it implements the paper's stated future work (\"per-socket DVFS, and per-core DVFS\")")
	return res, nil
}

// ExtConsolidation is the Section 2.3 context, quantified: memory-bound
// first-fit-decreasing consolidation leaves the remaining machines
// CPU-underloaded, and PAS still saves energy on them while enforcing
// every VM's credit — consolidation and DVFS are complementary.
func ExtConsolidation() (*Result, error) {
	machine := consolidation.HostSpec{MemoryMB: 8192, Profile: cpufreq.Optiplex755()}
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
		return nil, err
	}
	const dur = 60 * sim.Second
	baseline, err := consolidation.Simulate(placement, vms, machine, dur, "credit")
	if err != nil {
		return nil, err
	}
	withPAS, err := consolidation.Simulate(placement, vms, machine, dur, "pas")
	if err != nil {
		return nil, err
	}

	res := &Result{
		ID:    "ext-consolidation",
		Title: "Extension (Section 2.3): consolidation and DVFS are complementary",
	}
	tb := metrics.NewTable(
		fmt.Sprintf("%d VMs packed onto %d machines (memory-bound FFD), 60 s", len(vms), placement.Hosts),
		"machine", "mean load (%)", "mean freq with PAS (MHz)", "J @ max freq", "J with PAS")
	for i := range withPAS.PerHost {
		tb.AddRow(fmt.Sprintf("m%d", i),
			metrics.Fmt(withPAS.PerHost[i].MeanLoadPct, 1),
			metrics.Fmt(withPAS.PerHost[i].MeanFreqMHz, 0),
			metrics.Fmt(baseline.PerHost[i].Joules, 0),
			metrics.Fmt(withPAS.PerHost[i].Joules, 0))
	}
	res.Tables = append(res.Tables, tb)

	savings := (baseline.TotalJoules - withPAS.TotalJoules) / baseline.TotalJoules * 100
	res.Checks = append(res.Checks,
		checkBetween("machines used (of 8 VMs)", "memory-bound: fewer machines, but CPU headroom remains",
			float64(placement.Hosts), 2, 7),
		checkBetween("PAS energy savings on consolidated machines (%)",
			"DVFS is complementary to consolidation (Section 2.3)", savings, 10, 80),
	)
	res.Notes = append(res.Notes,
		"this reproduces no paper figure; it quantifies Section 2.3's argument that memory-bound consolidation cannot guarantee full CPU usage, so DVFS (and PAS) keep paying off")
	return res, nil
}
