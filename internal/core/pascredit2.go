package core

import (
	"fmt"
	"math"

	"pasched/internal/cpufreq"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
)

// PASCredit2 is the Credit2-based variant of the paper's Power-Aware
// Scheduler: the same DVFS policy (Listing 1.1 — lowest frequency whose
// capacity absorbs the absolute load), but enforcement through
// weight-proportional work-conserving scheduling instead of hard caps.
// At every PAS interval it recomputes the processor frequency; the
// per-VM enforcement state is Credit2 weights derived from the
// contracted credits (applied at Add/SetCap) instead of compensated caps
// (Listing 1.2 / equation 4) — and because proportional shares are
// frequency-invariant, weights need no per-frequency recomputation at
// the tick, which is exactly the compensation machinery the variant
// deletes.
//
// A work-conserving proportional-share scheduler preserves *relative*
// shares at any frequency on its own, so no frequency compensation is
// needed — but unlike cap-based PAS it lets a VM exceed its contracted
// capacity whenever other VMs leave slack (a variable-credit scheduler in
// the paper's taxonomy). Comparing the two on the same scenarios
// separates the paper's two claims: energy tracking the absolute load
// (both variants) and strict credit enforcement (caps only).
//
// PASCredit2 implements sched.Scheduler by extending Credit2, so it plugs
// into the host like any other scheduler; the host binds itself as the
// Global load source at construction, exactly like PAS.
type PASCredit2 struct {
	c2          *sched.Credit2
	cpu         *cpufreq.CPU
	ops         *OpTable
	interval    sim.Time
	margin      float64
	settle      sim.Time
	settleUntil sim.Time
	next        sim.Time
	loads       sched.LoadSource
	initCredit  map[vm.ID]float64
	recomputes  int
}

// PASCredit2Config configures the Credit2-based PAS. The fields mirror
// PASConfig; there is no Credit scheduler to wrap and no cap compensation
// to parameterize.
type PASCredit2Config struct {
	// CPU is the processor whose frequency the scheduler manages. Required.
	CPU *cpufreq.CPU
	// CF is the per-P-state calibration factor table; nil assumes cf = 1.
	CF []float64
	// Interval is the recomputation interval; default DefaultPASInterval.
	Interval sim.Time
	// CapacityMargin inflates the absolute load before the frequency
	// scan; zero selects the default of 0.02 (see PASConfig).
	CapacityMargin float64
	// SettleTime is how long recomputation pauses after a frequency
	// change; zero selects the default of 400 ms (see PASConfig).
	SettleTime sim.Time
}

var (
	_ sched.Scheduler        = (*PASCredit2)(nil)
	_ sched.CapSetter        = (*PASCredit2)(nil)
	_ sched.BoundaryReporter = (*PASCredit2)(nil)
	_ sched.PatternBatcher   = (*PASCredit2)(nil)
	_ sched.LoadBinder       = (*PASCredit2)(nil)
)

// NewPASCredit2 builds a Credit2-based PAS scheduler.
func NewPASCredit2(cfg PASCredit2Config) (*PASCredit2, error) {
	if cfg.CPU == nil {
		return nil, fmt.Errorf("core: PAS-credit2 requires a CPU")
	}
	if cfg.Interval == 0 {
		cfg.Interval = DefaultPASInterval
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("core: negative PAS interval %v", cfg.Interval)
	}
	if cfg.CF != nil && len(cfg.CF) != cfg.CPU.Profile().Levels() {
		return nil, fmt.Errorf("core: CF table has %d entries for %d P-states",
			len(cfg.CF), cfg.CPU.Profile().Levels())
	}
	if cfg.CapacityMargin < 0 {
		return nil, fmt.Errorf("core: negative capacity margin %v", cfg.CapacityMargin)
	}
	if cfg.CapacityMargin == 0 {
		cfg.CapacityMargin = 0.02
	}
	if cfg.SettleTime < 0 {
		return nil, fmt.Errorf("core: negative settle time %v", cfg.SettleTime)
	}
	if cfg.SettleTime == 0 {
		cfg.SettleTime = 400 * sim.Millisecond
	}
	return &PASCredit2{
		c2:         sched.NewCredit2(),
		cpu:        cfg.CPU,
		ops:        NewOpTable(cfg.CPU.Profile(), cfg.CF),
		interval:   cfg.Interval,
		margin:     cfg.CapacityMargin,
		settle:     cfg.SettleTime,
		next:       cfg.Interval,
		initCredit: make(map[vm.ID]float64),
	}, nil
}

// BindLoadSource implements sched.LoadBinder: it attaches the Global load
// signal. host.New calls it with the host.
func (p *PASCredit2) BindLoadSource(ls sched.LoadSource) { p.loads = ls }

// Name implements sched.Scheduler.
func (p *PASCredit2) Name() string { return "pas-credit2" }

// weightFor converts a contracted credit percentage to a Credit2 weight:
// the rounded credit, floored at 1 (Credit2 clamps further).
func weightFor(credit float64) int64 {
	w := int64(math.Round(credit))
	if w < 1 {
		w = 1
	}
	return w
}

// Add implements sched.Scheduler. The VM's configured credit is
// remembered as its contracted credit and becomes its initial weight.
func (p *PASCredit2) Add(v *vm.VM) error {
	if err := p.c2.Add(v); err != nil {
		return err
	}
	p.initCredit[v.ID()] = v.Credit()
	if v.Credit() > 0 {
		if err := p.c2.SetWeight(v.ID(), weightFor(v.Credit())); err != nil {
			_ = p.c2.Remove(v.ID())
			delete(p.initCredit, v.ID())
			return err
		}
	}
	return nil
}

// Remove implements sched.Scheduler.
func (p *PASCredit2) Remove(id vm.ID) error {
	if err := p.c2.Remove(id); err != nil {
		return err
	}
	delete(p.initCredit, id)
	return nil
}

// VMs implements sched.Scheduler.
func (p *PASCredit2) VMs() []*vm.VM { return p.c2.VMs() }

// Pick implements sched.Scheduler.
func (p *PASCredit2) Pick(now sim.Time) *vm.VM { return p.c2.Pick(now) }

// Charge implements sched.Scheduler.
func (p *PASCredit2) Charge(v *vm.VM, busy, now sim.Time) { p.c2.Charge(v, busy, now) }

// Tick implements sched.Scheduler: Credit2 accounting (a no-op), then —
// at every PAS interval — the DVFS recomputation.
func (p *PASCredit2) Tick(now sim.Time) {
	p.c2.Tick(now)
	if p.loads == nil {
		return
	}
	for now >= p.next {
		p.updateDvfs(p.next)
		p.next += p.interval
	}
}

// NextBoundary implements sched.BoundaryReporter: Credit2 itself has no
// accounting boundary, so the next PAS recomputation (which can change
// the frequency) is the only one batched steps must stop before.
func (p *PASCredit2) NextBoundary(now sim.Time) sim.Time {
	b := p.c2.NextBoundary(now)
	if p.loads != nil && p.next < b {
		b = p.next
	}
	return b
}

// BatchPattern implements sched.PatternBatcher by delegating to Credit2:
// between recomputations (excluded from batched stretches by
// NextBoundary) the variant schedules exactly like Credit2 under the
// momentary weights, so contended stretches collapse to the same
// closed-form smallest-vruntime merge.
func (p *PASCredit2) BatchPattern(quota []sched.PatternQuota, quantum sim.Time, max int, now sim.Time) ([]sched.PatternPick, bool) {
	return p.c2.BatchPattern(quota, quantum, max, now)
}

// updateDvfs is the variant's half of Listing 1.2: compute the new
// frequency from the absolute load and apply it. The cap-based PAS must
// also recompute every VM's cap here because a cap is frequency-relative
// (equation 4); weights are not — proportional shares are
// frequency-invariant, so the weights applied at Add/SetCap stay correct
// at every frequency and there is nothing to refresh per tick. That
// missing half *is* the variant.
func (p *PASCredit2) updateDvfs(now sim.Time) {
	if now < p.settleUntil {
		return // the load signal still contains pre-transition samples
	}
	cur := p.cpu.Level()
	global := p.loads.GlobalLoad() * 100
	abs := AbsoluteLoad(global, p.ops.Ratio(cur), p.ops.CF(cur))
	newFreq := p.ops.Freq(p.ops.Level(abs * (1 + p.margin)))
	if newFreq != p.cpu.Freq() {
		_ = p.cpu.SetFreq(newFreq, now) // a ladder frequency by construction
		p.settleUntil = now + p.settle
	}
	p.recomputes++
}

// SetCap implements sched.CapSetter: the new value is interpreted as a
// contracted credit and is applied as the VM's weight immediately (the
// single weight-application site besides Add; no per-frequency
// recomputation is needed because proportional shares are
// frequency-invariant). There is no enforced cap — the method exists so
// credit managers and the fleet can re-contract VMs uniformly across
// schedulers.
func (p *PASCredit2) SetCap(id vm.ID, pct float64) error {
	if _, ok := p.initCredit[id]; !ok {
		return fmt.Errorf("%w: id %d", sched.ErrUnknownVM, id)
	}
	if pct < 0 {
		return fmt.Errorf("core: negative credit %v for VM %d", pct, id)
	}
	p.initCredit[id] = pct
	if pct > 0 {
		return p.c2.SetWeight(id, weightFor(pct))
	}
	return nil
}

// Cap implements sched.CapSetter, returning the VM's contracted credit
// (the weight source); nothing is capped.
func (p *PASCredit2) Cap(id vm.ID) (float64, error) {
	init, ok := p.initCredit[id]
	if !ok {
		return 0, fmt.Errorf("%w: id %d", sched.ErrUnknownVM, id)
	}
	return init, nil
}

// Weight returns the VM's current Credit2 weight.
func (p *PASCredit2) Weight(id vm.ID) (float64, error) { return p.c2.Weight(id) }

// Recomputes returns how many DVFS recomputations have run, for tests
// and introspection.
func (p *PASCredit2) Recomputes() int { return p.recomputes }

// Interval returns the recomputation interval.
func (p *PASCredit2) Interval() sim.Time { return p.interval }
