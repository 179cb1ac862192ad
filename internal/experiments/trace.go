package experiments

import (
	"fmt"

	"pasched/internal/core"
	"pasched/internal/metrics"
)

// TraceSchedulers lists the scheduler names Trace accepts — the shared
// scheduler registry (core.SchedulerNames) — for CLI usage strings and
// up-front flag validation.
var TraceSchedulers = core.SchedulerNames()

// Trace runs one Section 5.3 scenario with the named configuration and
// returns the full recorder, for CSV export by cmd/pastrace. Valid
// schedulers: TraceSchedulers. Valid governors: "performance",
// "ondemand" (stock), "paper", "none". Valid loads: "exact",
// "thrashing".
func Trace(scheduler, gov, load string, seed uint64) (*metrics.Recorder, error) {
	var gk govKind
	switch gov {
	case "performance":
		gk = govPerformance
	case "ondemand":
		gk = govLinuxOndemand
	case "paper":
		gk = govPaperOndemand
	case "none":
		gk = govNone
	default:
		return nil, fmt.Errorf("experiments: unknown governor %q (performance, ondemand, paper, none)", gov)
	}
	var lk loadKind
	switch load {
	case "exact":
		lk = loadExact
	case "thrashing":
		lk = loadThrashing
	default:
		return nil, fmt.Errorf("experiments: unknown load %q (exact, thrashing)", load)
	}
	sc, err := newScenario(scheduler, gk, lk, seed)
	if err != nil {
		return nil, err
	}
	if err := sc.run(); err != nil {
		return nil, err
	}
	return sc.host.Recorder(), nil
}
