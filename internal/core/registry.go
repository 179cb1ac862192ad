package core

import (
	"fmt"
	"slices"
	"strings"

	"pasched/internal/cpufreq"
	"pasched/internal/sched"
)

// SchedulerSpec is one entry of the scheduler registry: the canonical
// name every layer (fleet, consolidation, pasfleet, pastrace) accepts,
// its aliases, a usage-string description, and the constructor.
type SchedulerSpec struct {
	// Name is the canonical scheduler name.
	Name string
	// Aliases are accepted alternative names ("fix-credit" for
	// "credit", the historical report name).
	Aliases []string
	// Description is the one-line usage-string description.
	Description string

	build func(cpu *cpufreq.CPU, cf []float64) (sched.Scheduler, error)
}

// schedulerRegistry is the single source of truth for which per-machine
// schedulers exist and how each is built: NewScheduler is the only
// constructor of a named scheduler, and every CLI usage string derives
// its accepted values from the registry.
var schedulerRegistry = []SchedulerSpec{
	{
		Name:        "pas",
		Description: "DVFS with cap-based credit compensation (the paper's scheduler)",
		build: func(cpu *cpufreq.CPU, cf []float64) (sched.Scheduler, error) {
			return NewPAS(PASConfig{CPU: cpu, CF: cf})
		},
	},
	{
		Name:        "credit",
		Aliases:     []string{"fix-credit"},
		Description: "fix-credit baseline pinned at the maximum frequency",
		build: func(*cpufreq.CPU, []float64) (sched.Scheduler, error) {
			return sched.NewCredit(sched.CreditConfig{}), nil
		},
	},
	{
		Name:        "credit2",
		Description: "weight-proportional work-conserving, pinned at the maximum frequency",
		build: func(*cpufreq.CPU, []float64) (sched.Scheduler, error) {
			return sched.NewCredit2(), nil
		},
	},
	{
		Name:        "sedf",
		Description: "earliest-deadline-first reservations (slices derived from credits), pinned at the maximum frequency",
		build: func(*cpufreq.CPU, []float64) (sched.Scheduler, error) {
			return sched.NewSEDF(sched.SEDFConfig{DefaultExtratime: true}), nil
		},
	},
	{
		Name:        "pas-credit2",
		Description: "the PAS DVFS policy enforcing shares through Credit2 weights instead of caps",
		build: func(cpu *cpufreq.CPU, cf []float64) (sched.Scheduler, error) {
			return NewPASCredit2(PASCredit2Config{CPU: cpu, CF: cf})
		},
	},
}

// NewScheduler builds the scheduler registered under name (or an alias)
// for cpu. cf is the per-P-state calibration table the PAS family
// compensates with; nil assumes cf = 1. The PAS family is bound to its
// load signal by host.New.
func NewScheduler(name string, cpu *cpufreq.CPU, cf []float64) (sched.Scheduler, error) {
	s := lookupScheduler(name)
	if s == nil {
		return nil, fmt.Errorf("core: unknown scheduler %q (%s)", name, SchedulerNames())
	}
	return s.build(cpu, cf)
}

// Schedulers returns the registry entries (constructors omitted) in
// registration order, for building richer CLI help.
func Schedulers() []SchedulerSpec {
	out := make([]SchedulerSpec, len(schedulerRegistry))
	for i, s := range schedulerRegistry {
		out[i] = SchedulerSpec{Name: s.Name, Aliases: append([]string(nil), s.Aliases...), Description: s.Description}
	}
	return out
}

// SchedulerNames renders the accepted scheduler names for usage strings
// and error messages, aliases in parentheses: "pas, credit
// (fix-credit), credit2, sedf, pas-credit2".
func SchedulerNames() string {
	var b strings.Builder
	for i, s := range schedulerRegistry {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(s.Name)
		if len(s.Aliases) > 0 {
			b.WriteString(" (" + strings.Join(s.Aliases, ", ") + ")")
		}
	}
	return b.String()
}

// CanonicalScheduler resolves a scheduler name or alias to its
// canonical registry name. ok is false for unknown names.
func CanonicalScheduler(name string) (canonical string, ok bool) {
	if s := lookupScheduler(name); s != nil {
		return s.Name, true
	}
	return "", false
}

// ValidScheduler reports whether name is a registered scheduler name or
// alias.
func ValidScheduler(name string) bool { return lookupScheduler(name) != nil }

// lookupScheduler finds the registry entry for a name or alias, or nil.
func lookupScheduler(name string) *SchedulerSpec {
	for i, s := range schedulerRegistry {
		if s.Name == name || slices.Contains(s.Aliases, name) {
			return &schedulerRegistry[i]
		}
	}
	return nil
}
