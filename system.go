package pasched

import (
	"fmt"

	"pasched/internal/core"
	"pasched/internal/cpufreq"
	"pasched/internal/governor"
	"pasched/internal/host"
	"pasched/internal/sched"
	"pasched/internal/sim"
	"pasched/internal/vm"
)

// System is the high-level entry point: a configured simulated host with
// convenience methods for adding VMs and running the simulation.
type System struct {
	host *host.Host
	cpu  *cpufreq.CPU
	pas  *core.PAS
	pc2  *core.PASCredit2
	next vm.ID
}

// Option configures NewSystem.
type Option func(*systemConfig) error

type systemConfig struct {
	profile   *cpufreq.Profile
	scheduler sched.Scheduler
	governor  governor.Governor
	schedName string // a registry scheduler, built by NewSystem
	pasCF     []float64
	quantum   sim.Time
	dom0      bool
	reference bool
}

// WithProfile selects the processor architecture. Default: Optiplex755.
func WithProfile(p *Profile) Option {
	return func(c *systemConfig) error {
		if p == nil {
			return fmt.Errorf("pasched: nil profile")
		}
		c.profile = p
		return nil
	}
}

// WithScheduler installs an explicit scheduler (e.g. one built from the
// internal packages in advanced use). Mutually exclusive with WithPAS,
// WithCreditScheduler and WithSEDFScheduler. A PAS-family scheduler is
// bound to the host's load like the built-in ones.
func WithScheduler(s Scheduler) Option {
	return func(c *systemConfig) error {
		if s == nil {
			return fmt.Errorf("pasched: nil scheduler")
		}
		if err := c.noScheduler(); err != nil {
			return err
		}
		c.scheduler = s
		return nil
	}
}

// WithCreditScheduler selects the Xen Credit scheduler (fix credit): each
// VM's credit is guaranteed and hard-capped.
func WithCreditScheduler() Option {
	return func(c *systemConfig) error {
		return c.useScheduler("credit")
	}
}

// WithSEDFScheduler selects the Xen SEDF scheduler with extratime
// (variable credit): unused slices are donated to busy VMs.
func WithSEDFScheduler() Option {
	return func(c *systemConfig) error {
		return c.useScheduler("sedf")
	}
}

// WithPAS selects the paper's Power-Aware Scheduler: Credit scheduling
// with per-tick DVFS management and frequency-compensated credits.
func WithPAS() Option {
	return func(c *systemConfig) error {
		return c.useScheduler("pas")
	}
}

// WithPASCredit2 selects the Credit2-based PAS variant: the same
// per-tick DVFS policy as PAS, but enforcement through
// weight-proportional work-conserving Credit2 scheduling (weights
// refreshed from the contracted credits at the PAS cadence) instead of
// hard compensated caps.
func WithPASCredit2() Option {
	return func(c *systemConfig) error {
		return c.useScheduler("pas-credit2")
	}
}

// noScheduler rejects a second scheduler option.
func (c *systemConfig) noScheduler() error {
	if c.scheduler != nil || c.schedName != "" {
		return fmt.Errorf("pasched: scheduler already configured")
	}
	return nil
}

// useScheduler selects a registry scheduler for NewSystem to build.
func (c *systemConfig) useScheduler(name string) error {
	if err := c.noScheduler(); err != nil {
		return err
	}
	c.schedName = name
	return nil
}

// WithPASCF supplies a measured per-P-state cf table for PAS (see
// internal/calib); by default PAS uses the profile's ground-truth
// efficiency table.
func WithPASCF(cf []float64) Option {
	return func(c *systemConfig) error {
		c.pasCF = cf
		return nil
	}
}

// WithGovernor installs a DVFS governor. Rejected with a PAS-family
// scheduler (WithPAS, WithPASCredit2, or a PAS passed to WithScheduler),
// which manages the frequency itself.
func WithGovernor(g Governor) Option {
	return func(c *systemConfig) error {
		if g == nil {
			return fmt.Errorf("pasched: nil governor")
		}
		c.governor = g
		return nil
	}
}

// WithPerformanceGovernor pins the frequency at the maximum.
func WithPerformanceGovernor() Option {
	return func(c *systemConfig) error {
		c.governor = &governor.Performance{}
		return nil
	}
}

// WithOndemandGovernor installs the paper's smoothed ondemand governor.
func WithOndemandGovernor() Option {
	return func(c *systemConfig) error {
		g, err := governor.NewPaperOndemand(governor.PaperOndemandConfig{})
		if err != nil {
			return err
		}
		c.governor = g
		return nil
	}
}

// WithQuantum overrides the scheduling quantum (default 1 ms).
func WithQuantum(q Time) Option {
	return func(c *systemConfig) error {
		if q <= 0 {
			return fmt.Errorf("pasched: quantum must be positive, got %v", q)
		}
		c.quantum = q
		return nil
	}
}

// WithDom0 adds a Dom0 VM (10% credit, highest priority) as in the
// paper's evaluation setup (Section 5.3).
func WithDom0() Option {
	return func(c *systemConfig) error {
		c.dom0 = true
		return nil
	}
}

// WithReferenceStepping disables the simulation engine's event-horizon
// batching and advances the host strictly one scheduling quantum at a
// time. Batched and reference runs produce the same traces (the host's
// equivalence tests enforce it); the switch exists for debugging and for
// validating new schedulers, governors or workloads against the
// reference semantics.
func WithReferenceStepping() Option {
	return func(c *systemConfig) error {
		c.reference = true
		return nil
	}
}

// NewSystem builds a simulated virtualized host. With no options it is an
// Optiplex 755 under the PAS scheduler.
func NewSystem(opts ...Option) (*System, error) {
	cfg := systemConfig{}
	for _, o := range opts {
		if err := o(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.profile == nil {
		cfg.profile = cpufreq.Optiplex755()
	}
	if cfg.scheduler == nil && cfg.schedName == "" {
		cfg.schedName = "pas"
	}

	cpu, err := cpufreq.NewCPU(cfg.profile)
	if err != nil {
		return nil, err
	}
	s := cfg.scheduler
	if s == nil {
		cf := cfg.pasCF
		if cf == nil {
			cf = cfg.profile.EfficiencyTable()
		}
		if s, err = core.NewScheduler(cfg.schedName, cpu, cf); err != nil {
			return nil, err
		}
	}
	h, err := host.New(host.Config{
		CPU:       cpu,
		Scheduler: s,
		Governor:  cfg.governor,
		Quantum:   cfg.quantum,
		Reference: cfg.reference,
	})
	if err != nil {
		return nil, err
	}
	pas, _ := s.(*core.PAS)
	pc2, _ := s.(*core.PASCredit2)
	sys := &System{host: h, cpu: cpu, pas: pas, pc2: pc2, next: 1}
	if cfg.dom0 {
		dom0, err := vm.New(0, vm.Config{Name: "Dom0", Credit: 10, Priority: 1})
		if err != nil {
			return nil, err
		}
		if err := h.AddVM(dom0); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// AddVM creates and registers a VM with the given name and credit
// percentage (its SLA at maximum frequency). A zero credit creates a
// "null credit" VM with no guarantee and no cap.
func (s *System) AddVM(name string, creditPct float64) (*VM, error) {
	v, err := vm.New(s.next, vm.Config{Name: name, Credit: creditPct})
	if err != nil {
		return nil, err
	}
	if err := s.host.AddVM(v); err != nil {
		return nil, err
	}
	s.next++
	return v, nil
}

// Run advances the simulation by d.
func (s *System) Run(d Time) error { return s.host.Run(d) }

// RunUntil advances the simulation to absolute time t.
func (s *System) RunUntil(t Time) error { return s.host.RunUntil(t) }

// Now returns the current simulated time.
func (s *System) Now() Time { return s.host.Now() }

// Host exposes the underlying host for advanced use (events, agents,
// custom metrics).
func (s *System) Host() *Host { return s.host }

// CPU returns the simulated processor.
func (s *System) CPU() *CPU { return s.cpu }

// PAS returns the PAS scheduler, or nil when another scheduler was
// selected.
func (s *System) PAS() *PAS { return s.pas }

// PASCredit2 returns the Credit2-based PAS scheduler, or nil when
// another scheduler was selected.
func (s *System) PASCredit2() *PASCredit2 { return s.pc2 }

// Recorder returns the recorded time series (loads, frequency, caps).
func (s *System) Recorder() *Recorder { return s.host.Recorder() }

// Energy returns the host's energy meter.
func (s *System) Energy() *EnergyMeter { return s.host.Energy() }

// GlobalLoad returns the averaged recent processor utilization in [0,1].
func (s *System) GlobalLoad() float64 { return s.host.GlobalLoad() }
