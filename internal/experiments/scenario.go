package experiments

import (
	"fmt"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/governor"
	"pasched/internal/host"
	"pasched/internal/sim"
	"pasched/internal/vm"
	"pasched/internal/workload"
)

// The execution profile of Section 5.3, scaled in time: two VMs, V20 (20%
// credit) and V70 (70% credit), each with an inactive-active-inactive
// profile; Dom0 holds the remaining 10% at the highest priority with a
// light background load. V20 is active early while V70 is lazy, then the
// two overlap, then V70 runs alone.
const (
	scenarioDur = 700 * sim.Second
	v20Start    = 50 * sim.Second
	v20End      = 450 * sim.Second
	v70Start    = 250 * sim.Second
	v70End      = 650 * sim.Second

	// Check windows, clear of the phase boundaries.
	p1Lo, p1Hi = 70.0, 240.0  // V20 active, V70 lazy
	p2Lo, p2Hi = 280.0, 430.0 // both active
	p3Lo, p3Hi = 470.0, 630.0 // V70 active, V20 done
)

// thrashFactor is how far a thrashing load exceeds the VM capacity.
const thrashFactor = 5

// dom0LoadPct is Dom0's steady background load in percent of the host.
const dom0LoadPct = 1.0

// govKind selects the scenario's governor.
type govKind int

const (
	govPerformance govKind = iota + 1
	govLinuxOndemand
	govPaperOndemand
	govNone
)

// loadKind selects exact vs thrashing intensity (Section 5.3).
type loadKind int

const (
	loadExact loadKind = iota + 1
	loadThrashing
)

// scenario is one instantiated Section 5.3 run.
type scenario struct {
	host *host.Host
	pas  *core.PAS
	pc2  *core.PASCredit2
	v20  *vm.VM
	v70  *vm.VM
	dom0 *vm.VM
}

// newScenario builds the Section 5.3 host on the Optiplex 755 under the
// registry scheduler named schedName.
func newScenario(schedName string, gk govKind, lk loadKind, seed uint64) (*scenario, error) {
	prof := cpufreq.Optiplex755()
	cpu, err := cpufreq.NewCPU(prof)
	if err != nil {
		return nil, err
	}
	s, err := core.NewScheduler(schedName, cpu, prof.EfficiencyTable())
	if err != nil {
		return nil, err
	}

	var g governor.Governor
	switch gk {
	case govPerformance:
		g = &governor.Performance{}
	case govLinuxOndemand:
		g, err = governor.NewLinuxOndemand(governor.LinuxOndemandConfig{})
		if err != nil {
			return nil, err
		}
	case govPaperOndemand:
		g, err = governor.NewPaperOndemand(governor.PaperOndemandConfig{
			CF: prof.EfficiencyTable(),
		})
		if err != nil {
			return nil, err
		}
	case govNone:
		g = nil
	default:
		return nil, fmt.Errorf("unknown governor kind %d", gk)
	}

	h, err := host.New(host.Config{CPU: cpu, Scheduler: s, Governor: g})
	if err != nil {
		return nil, err
	}

	maxTp, err := prof.Throughput(prof.Max())
	if err != nil {
		return nil, err
	}
	factor := 1.0
	if lk == loadThrashing {
		factor = thrashFactor
	}
	mkWeb := func(credit float64, start, end sim.Time, wseed uint64) (*workload.WebApp, error) {
		rate := workload.ExactRate(maxTp, credit, workload.DefaultRequestCost) * factor
		return workload.NewWebApp(workload.WebAppConfig{
			Phases: workload.ThreePhase(start, end, rate),
			Seed:   wseed,
		})
	}

	dom0, err := vm.New(0, vm.Config{Name: "Dom0", Credit: 10, Priority: 1})
	if err != nil {
		return nil, err
	}
	dom0Web, err := workload.NewWebApp(workload.WebAppConfig{
		RequestCost:   0.002 * 2667e6,
		Deterministic: true,
		Phases:        workload.ThreePhase(0, scenarioDur, workload.ExactRate(maxTp, dom0LoadPct, 0.002*2667e6)),
	})
	if err != nil {
		return nil, err
	}
	dom0.SetWorkload(dom0Web)

	v20, err := vm.New(1, vm.Config{Name: "V20", Credit: 20})
	if err != nil {
		return nil, err
	}
	w20, err := mkWeb(20, v20Start, v20End, seed+1)
	if err != nil {
		return nil, err
	}
	v20.SetWorkload(w20)

	v70, err := vm.New(2, vm.Config{Name: "V70", Credit: 70})
	if err != nil {
		return nil, err
	}
	w70, err := mkWeb(70, v70Start, v70End, seed+2)
	if err != nil {
		return nil, err
	}
	v70.SetWorkload(w70)

	for _, v := range []*vm.VM{dom0, v20, v70} {
		if err := h.AddVM(v); err != nil {
			return nil, err
		}
	}
	pas, _ := s.(*core.PAS)
	pc2, _ := s.(*core.PASCredit2)
	return &scenario{host: h, pas: pas, pc2: pc2, v20: v20, v70: v70, dom0: dom0}, nil
}

// run executes the full profile.
func (s *scenario) run() error {
	return s.host.RunUntil(scenarioDur)
}
