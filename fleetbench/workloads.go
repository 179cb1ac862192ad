package main

import (
	"fmt"
	"runtime"

	"pasched/internal/autoscale"
	"pasched/internal/fleet"
	"pasched/internal/sim"
	"pasched/internal/workload"
)

// spec is one benchmark workload: a fleet configuration and the trace
// that drives it. One operation builds the fleet from the spec and runs
// it to the horizon.
type spec struct {
	name string
	// machines sizes fleet.DefaultEstate.
	machines int
	gen      fleet.GenConfig
	// materialize builds the trace with fleet.Generate + fleet.New
	// instead of streaming it with fleet.GenerateStream + fleet.NewStream.
	materialize bool
	reportEvery sim.Time
	// jsonl streams the whole report (intervals, per-VM outcomes, the
	// summary) through a JSONLSink instead of interval rows through a
	// CSVSink.
	jsonl bool
	// elastic switches on serving, the flight recorder with a Perfetto
	// export, and the ditto autoscaler.
	elastic bool
	// sharded runs with one worker per CPU; otherwise the fleet runs
	// inline (Shards = Workers = 1).
	sharded bool
	// newPolicy returns the built-in placement policy value. The fleet
	// only uses its incremental placement index for the built-in policy
	// types, so a wrapper here would benchmark the linear oracle.
	newPolicy func() fleet.Policy
}

var specs = []spec{
	{
		name: "churn",
		// ~2k arrivals/s with 4 s mean lifetimes keep ~8k VMs live on
		// a few thousand powered-on machines, so every arrival's
		// placement query scans a large ON set.
		machines:    8000,
		gen:         fleet.GenConfig{Arrivals: 18000, Horizon: 3 * sim.Second, MeanLifetime: 2 * sim.Second},
		reportEvery: sim.Second / 4,
		jsonl:       true,
		sharded:     true,
		newPolicy:   func() fleet.Policy { return fleet.NewDVFSAware() },
	},
	{
		name:        "steady",
		machines:    4000,
		gen:         fleet.GenConfig{Arrivals: 8000, Horizon: 60 * sim.Second, MeanLifetime: 15 * sim.Second},
		reportEvery: 2 * sim.Second,
		sharded:     true,
		newPolicy:   func() fleet.Policy { return fleet.NewDVFSAware() },
	},
	{
		name: "elastic",
		// The examples/autoscaling setup: ~95% activity, full-cost
		// requests, 2 s reporting barriers.
		machines:    240,
		gen:         fleet.GenConfig{Arrivals: 960, Horizon: 24 * sim.Second, MeanLifetime: 12 * sim.Second, BaseActivity: 0.95, DiurnalAmplitude: 0.2, SegmentLen: 6 * sim.Second},
		materialize: true,
		reportEvery: 2 * sim.Second,
		elastic:     true,
		newPolicy:   func() fleet.Policy { return fleet.NewBestFit() },
	},
}

func specByName(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return nil, fmt.Errorf("unknown workload %q (accepted: %v)", name, names)
}

// genConfig returns the trace generator configuration for seed.
func (s *spec) genConfig(seed uint64) fleet.GenConfig {
	g := s.gen
	g.Seed = seed
	return g
}

// config returns the fleet configuration for one operation, without
// sinks. inline forces Shards = Workers = 1, the reference mode the
// committed digests are recorded in.
func (s *spec) config(seed uint64, inline bool) fleet.Config {
	cfg := fleet.Config{
		Machines:      fleet.DefaultEstate(s.machines),
		Scheduler:     "pas",
		Policy:        s.newPolicy(),
		ReportEvery:   s.reportEvery,
		Seed:          seed,
		DiscardReport: true,
		Shards:        1,
		Workers:       1,
	}
	if s.sharded && !inline {
		cfg.Shards = 0 // one shard per worker
		cfg.Workers = runtime.NumCPU()
	}
	if s.elastic {
		cfg.Serving = fleet.ServingConfig{Enabled: true, RequestCost: workload.DefaultRequestCost}
		cfg.Obs = fleet.ObsConfig{Enabled: true}
		cfg.Autoscale = fleet.AutoscaleConfig{
			Enabled: true,
			Policy:  "ditto",
			Params: autoscale.Params{
				MaxCapPct:          60,
				MaxReplicas:        2,
				QueueHigh:          4,
				CappedHighPermille: 100,
			},
		}
	}
	return cfg
}
