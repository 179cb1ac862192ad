package fleet

import (
	"fmt"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
)

// Request is a VM the fleet asks a policy to place: the class-derived
// resources plus the mean activity of its demand profile (the policy's
// load estimate; the true demand is only known as it unfolds).
type Request struct {
	Name string
	// CreditPct and MemoryMB come from the VM's class.
	CreditPct float64
	MemoryMB  int
	// MeanActivity is the time-averaged fraction of the credit the VM is
	// expected to demand, in [0, 1].
	MeanActivity float64
}

// MachineState is the policy-visible view of one machine. Policies see
// the fleet's bookkeeping (reservations included), never the live hosts —
// placement needs no host synchronization.
type MachineState struct {
	// Index is the machine's fleet-wide index; policies return it.
	Index int
	// Class is the machine-class name.
	Class string
	// On reports the power state. Placing on an off machine powers it on.
	On bool
	// FreeMemMB and FreeCreditPct are the remaining capacities after all
	// resident VMs and in-flight migration reservations.
	FreeMemMB     int
	FreeCreditPct float64
	// OfferedLoadPct estimates the machine's offered load: the sum of
	// CreditPct x MeanActivity over resident and reserved VMs, in percent
	// of this machine's capacity at maximum frequency.
	OfferedLoadPct float64
	// Profile is the machine's processor architecture (its frequency
	// ladder and power curve), for DVFS-aware decisions.
	Profile *cpufreq.Profile
}

// Fits reports whether the machine has room for the request.
func (m MachineState) Fits(r Request) bool {
	return m.FreeMemMB >= r.MemoryMB && m.FreeCreditPct >= r.CreditPct
}

// Policy decides placement. Place receives every machine (on and off) and
// returns the index of the chosen one, or ok=false to reject the VM.
// Returning an off machine powers it on. For consolidation moves the
// fleet passes only the eligible machines (powered-on, excluding the
// migration source); the MachineState.Index field always carries the
// fleet-wide index to return.
//
// Place must treat the slice as read-only and must not retain it: the
// fleet keeps its machine state in place and passes the same backing
// array on every call.
type Policy interface {
	Name() string
	Place(machines []MachineState, r Request) (int, bool)
}

// FirstFit places on the lowest-indexed powered-on machine with room,
// powering on the lowest-indexed off machine only when no running one
// fits. It is the classic baseline: cheap, and it packs low indices.
type FirstFit struct{}

// NewFirstFit returns the first-fit policy.
func NewFirstFit() FirstFit { return FirstFit{} }

// Name implements Policy.
func (FirstFit) Name() string { return "first-fit" }

// Place implements Policy.
func (FirstFit) Place(machines []MachineState, r Request) (int, bool) {
	for _, m := range machines {
		if m.On && m.Fits(r) {
			return m.Index, true
		}
	}
	for _, m := range machines {
		if !m.On && m.Fits(r) {
			return m.Index, true
		}
	}
	return 0, false
}

// BestFit places on the powered-on machine whose credit headroom after
// placement is smallest (the tightest fit), so big headroom — and with it
// whole machines — is preserved for later arrivals. Off machines are
// powered on only when nothing running fits.
type BestFit struct{}

// NewBestFit returns the best-fit-by-credit-headroom policy.
func NewBestFit() BestFit { return BestFit{} }

// Name implements Policy.
func (BestFit) Name() string { return "best-fit" }

// Place implements Policy.
func (BestFit) Place(machines []MachineState, r Request) (int, bool) {
	best, bestLeft := -1, 0.0
	for _, m := range machines {
		if !m.On || !m.Fits(r) {
			continue
		}
		left := m.FreeCreditPct - r.CreditPct
		if best < 0 || left < bestLeft {
			best, bestLeft = m.Index, left
		}
	}
	if best >= 0 {
		return best, true
	}
	for _, m := range machines {
		if !m.On && m.Fits(r) {
			return m.Index, true
		}
	}
	return 0, false
}

// DVFSAware places where the fleet's estimated power draw grows least,
// using each machine class's own frequency ladder and power curve: for
// every candidate it computes the lowest frequency whose
// credit-compensated capacity absorbs the machine's offered load after
// placement (the PAS operating point, equation 5 of the paper) and
// compares the resulting power deltas. Machines that can stay at a
// reduced frequency with PAS compensating the credits therefore attract
// load before machines that would have to speed up — and powering on a
// new machine competes against those deltas at its full (static +
// dynamic) cost, so it happens only when it is genuinely cheaper than
// cramming.
//
// The estimates read each profile's core.OpTable. A DVFSAware value
// holds no other state, so one value may serve concurrent fleets.
type DVFSAware struct {
	// Margin is the capacity headroom kept above the estimated load when
	// choosing the operating frequency, as in core.PASConfig; the
	// constructor sets 0.05.
	Margin float64
}

// NewDVFSAware returns the DVFS-aware packing policy.
func NewDVFSAware() DVFSAware { return DVFSAware{Margin: 0.05} }

// Name implements Policy.
func (DVFSAware) Name() string { return "dvfs-aware" }

// Place implements Policy.
func (p DVFSAware) Place(machines []MachineState, r Request) (int, bool) {
	add := float64(r.CreditPct * r.MeanActivity) // rounded: the sums below must not fuse it
	var tabs opTables
	best, bestCost := -1, 0.0
	for _, m := range machines {
		if !m.Fits(r) {
			continue
		}
		t := tabs.of(m.Profile)
		var cost float64
		if m.On {
			cost = p.estimate(t, m.OfferedLoadPct+add) - p.estimate(t, m.OfferedLoadPct)
		} else {
			// Powering on pays the machine's whole draw, idle floor
			// included.
			cost = p.estimate(t, add)
		}
		if best < 0 || cost < bestCost {
			best, bestCost = m.Index, cost
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// estimate returns a machine's estimated power draw (watts) when
// serving absLoadPct percent of its maximum capacity at the PAS operating
// point: the lowest ladder frequency whose compensated capacity covers
// the load plus margin. t is the machine profile's table.
func (p DVFSAware) estimate(t *core.OpTable, absLoadPct float64) float64 {
	i := t.Level(absLoadPct * (1 + p.Margin))
	util := 0.0
	if re := t.RatioEff(i); re > 0 {
		util = absLoadPct / 100 / re
	}
	return t.Power(i, util)
}

// opTables resolves each profile's operating-point table once. The
// calibration table is the profile's ground-truth efficiency, what a
// perfect calibration of the paper's cf factors measures.
type opTables struct {
	profs []*cpufreq.Profile
	tabs  []*core.OpTable
}

func (o *opTables) of(prof *cpufreq.Profile) *core.OpTable {
	for i, p := range o.profs {
		if p == prof {
			return o.tabs[i]
		}
	}
	t := core.NewOpTable(prof, prof.EfficiencyTable())
	o.profs = append(o.profs, prof)
	o.tabs = append(o.tabs, t)
	return t
}

// PolicyByName returns the named built-in policy ("first-fit",
// "best-fit", "dvfs-aware").
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "first-fit", "firstfit":
		return NewFirstFit(), nil
	case "best-fit", "bestfit":
		return NewBestFit(), nil
	case "dvfs-aware", "dvfs":
		return NewDVFSAware(), nil
	default:
		return nil, fmt.Errorf("fleet: unknown policy %q (want first-fit, best-fit or dvfs-aware)", name)
	}
}
