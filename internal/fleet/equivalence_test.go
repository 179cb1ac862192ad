package fleet

import (
	"fmt"
	"reflect"
	"testing"

	"pasched/internal/autoscale"
	"pasched/internal/obs"
	"pasched/internal/sim"
	"pasched/internal/workload"
)

// features selects the layers a shard-equivalence run switches on. The
// fuzzer draws it as one byte, so every bit pattern must build a valid
// configuration.
type features uint8

const (
	// featServe enables the request-level serving layer.
	featServe features = 1 << iota
	// featObs enables the flight recorder and collects its event stream.
	featObs
	// featAutoscale runs the ditto autoscaler on full-cost requests;
	// it implies featServe and featObs.
	featAutoscale
	// featClosedLoop serves closed-loop clients with abandonment and
	// retries, scaled by the queue autoscaler; it implies featServe.
	featClosedLoop
	// featStream makes the fuzzed cell pull its trace from
	// GenerateStream while the baseline uses the materialized trace.
	featStream
)

// The placement policy takes the two bits above featStream; zero
// selects best-fit.
const (
	placeFirstFit  features = 1 << 5
	placeDVFSAware features = 2 << 5
	placeMask      features = 3 << 5
)

// policy returns the placement policy the feature bits select; zero
// and the unused fourth value select best-fit.
func (f features) policy() Policy {
	switch f & placeMask {
	case placeFirstFit:
		return NewFirstFit()
	case placeDVFSAware:
		return NewDVFSAware()
	}
	return NewBestFit()
}

// scenario is the trace and estate a shard-equivalence check runs on;
// every run lasts the trace's horizon.
type scenario struct {
	gen              GenConfig
	opti, xeon       int // testMachines estate
	reportEvery      sim.Time
	consolidateEvery sim.Time
}

// config builds the fleet configuration of one (shards, workers) cell.
// Each feature bit has exactly one builder below, shared by the table
// test and the fuzzer.
func (sc scenario) config(feats features, shards, workers int) Config {
	cfg := Config{
		Machines:         testMachines(sc.opti, sc.xeon),
		Scheduler:        "pas",
		Policy:           feats.policy(),
		ReportEvery:      sc.reportEvery,
		ConsolidateEvery: sc.consolidateEvery,
		Shards:           shards,
		Workers:          workers,
		Seed:             sc.gen.Seed,
	}
	if feats&featServe != 0 {
		cfg.Serving.Enabled = true
	}
	if feats&featObs != 0 {
		cfg.Obs.Enabled = true
	}
	if feats&featAutoscale != 0 {
		// Full-cost requests: the default serving page costs a fifth of
		// a demand request, which gives every VM five-fold capacity
		// headroom — capped VMs would still drain their queues instantly
		// and the policy would never see pressure. At full cost, service
		// capacity equals attained CPU, so credit throttling shows up as
		// queueing.
		cfg.Serving.Enabled = true
		cfg.Serving.RequestCost = workload.DefaultRequestCost
		cfg.Obs.Enabled = true
		cfg.Autoscale = AutoscaleConfig{
			Enabled: true,
			Policy:  "ditto",
			Params: autoscale.Params{
				StepPct:            10,
				MaxCapPct:          30, // large-class VMs saturate immediately: scale-out path
				QueueHigh:          2,
				QueueLow:           1,
				MaxReplicas:        3,
				CappedHighPermille: 10, // 1% of the interval capped triggers growth
			},
		}
	}
	if feats&featClosedLoop != 0 {
		// Closed-loop clients cannot be split across replicas, so the
		// queue policy here replaces any ditto policy set above.
		cfg.Serving.Enabled = true
		cfg.Serving.ClosedLoop = true
		cfg.Serving.Clients = 24
		cfg.Serving.ThinkTime = 50 * sim.Millisecond
		cfg.Serving.AbandonAfter = 400 * sim.Millisecond
		cfg.Serving.RetryMax = 1
		cfg.Autoscale = AutoscaleConfig{
			Enabled: true,
			Policy:  "queue",
			Params:  autoscale.Params{QueueHigh: 2, StepPct: 10},
		}
	}
	return cfg
}

// cell is one sharded run of a scenario.
type cell struct {
	shards, workers int
	streamed        bool // pull from GenerateStream, not the materialized trace
}

// run executes one cell and returns its report and, with featObs, the
// collected event stream.
func (sc scenario) run(t *testing.T, feats features, c cell, tr *Trace) (*Report, []obs.Event) {
	t.Helper()
	cfg := sc.config(feats, c.shards, c.workers)
	col := &obs.Collector{}
	if cfg.Obs.Enabled {
		cfg.Obs.Sink = col
	}
	var fl *Fleet
	var err error
	if c.streamed {
		var src TraceSource
		if src, err = GenerateStream(sc.gen); err != nil {
			t.Fatal(err)
		}
		fl, err = NewStream(cfg, src)
	} else {
		fl, err = New(cfg, tr)
	}
	if err != nil {
		t.Fatal(err)
	}
	rep, err := fl.Run(sc.gen.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	return rep, col.Stream
}

// checkShardEquivalence is the sharding contract: every cell's report
// and event stream are DeepEqual-bit-exact to those of the 1x1 run on
// the materialized trace. It returns that baseline so callers can check
// the scenario exercised what it is meant to.
func checkShardEquivalence(t *testing.T, sc scenario, feats features, cells []cell) (*Report, []obs.Event) {
	t.Helper()
	tr := genTrace(t, sc.gen)
	want, wantEv := sc.run(t, feats, cell{shards: 1, workers: 1}, tr)
	for _, c := range cells {
		got, gotEv := sc.run(t, feats, c, tr)
		if reflect.DeepEqual(got, want) && reflect.DeepEqual(gotEv, wantEv) {
			continue
		}
		t.Errorf("%+v differs from the materialized 1x1 run:%s%s%s%s", c,
			firstDivergence("interval", got.Intervals, want.Intervals),
			firstDivergence("outcome", got.PerVM, want.PerVM),
			firstDivergence("event", gotEv, wantEv),
			firstDivergence("summary", []Summary{got.Summary}, []Summary{want.Summary}))
	}
	return want, wantEv
}

// firstDivergence describes the first element at which got and want
// differ, or returns "" when they are equal.
func firstDivergence[T any](what string, got, want []T) string {
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i == len(got):
			return fmt.Sprintf("\n%s %d of %d missing: want %+v", what, i, len(want), want[i])
		case i == len(want):
			return fmt.Sprintf("\n%s %d unexpected (want %d): got %+v", what, i, len(want), got[i])
		case !reflect.DeepEqual(got[i], want[i]):
			return fmt.Sprintf("\nfirst diverging %s %d:\n got %+v\nwant %+v", what, i, got[i], want[i])
		}
	}
	return ""
}

// requireExercised fails a table row whose baseline did not exercise
// what its features promise: churn always; with the recorder, events
// and ledger time; with serving, request conservation; with the
// autoscalers, resizing, scale-out and scale-in, abandonment and
// retries.
func requireExercised(t *testing.T, feats features, rep *Report, events []obs.Event) {
	t.Helper()
	s := rep.Summary
	check := func(feat features, ok bool, format string, args ...any) {
		if feats&feat == feat && !ok {
			t.Errorf("comparison is vacuous or broken: "+format, args...)
		}
	}
	check(0, s.Migrated > 0 && s.Departed > 0, "migrated=%d departed=%d", s.Migrated, s.Departed)
	check(featObs, len(events) > 0 && s.LedgerSpanUs > 0 && s.LedgerMigratingUs > 0,
		"events=%d ledger span=%d migrating=%d", len(events), s.LedgerSpanUs, s.LedgerMigratingUs)
	check(featServe, s.RequestsOffered == s.RequestsCompleted+s.RequestsAbandoned+s.RequestsRetried+s.RequestsInFlight,
		"requests not conserved: %+v", s)
	check(featAutoscale, s.AutoscaleResizes > 0 && s.AutoscaleScaleOuts > 0 && s.AutoscaleScaleIns > 0,
		"resizes=%d outs=%d ins=%d", s.AutoscaleResizes, s.AutoscaleScaleOuts, s.AutoscaleScaleIns)
	check(featClosedLoop, s.RequestsAbandoned > 0 && s.RequestsRetried > 0 && s.AutoscaleResizes > 0,
		"abandoned=%d retried=%d resizes=%d", s.RequestsAbandoned, s.RequestsRetried, s.AutoscaleResizes)
}

// churnScenario has heavy lifecycle churn: short lifetimes against the
// horizon keep departures emptying machines, and consolidation at every
// barrier keeps VMs migrating across shard boundaries.
func churnScenario(seed uint64) scenario {
	return scenario{
		gen: GenConfig{
			Seed:         seed,
			Arrivals:     140,
			Horizon:      300 * sim.Second,
			MeanLifetime: 45 * sim.Second,
			BaseActivity: 0.5,
			SegmentLen:   30 * sim.Second,
		},
		opti: 6, xeon: 4,
		reportEvery:      20 * sim.Second,
		consolidateEvery: 20 * sim.Second,
	}
}

// saturatedScenario is churnScenario at near-saturation activity, so
// credit enforcement throttles VMs into queueing and the ledger
// accumulates capped time — what the autoscalers react to.
func saturatedScenario(seed uint64) scenario {
	sc := churnScenario(seed)
	sc.gen.BaseActivity = 0.95
	sc.gen.DiurnalAmplitude = 0.2
	return sc
}

// TestFleetShardEquivalence runs the sharding contract over a fixed
// matrix: each row is a scenario and feature set, checked at every
// listed (shards, workers) cell against its 1x1 baseline, which must
// exercise what the row is for. Cells with one shard and several
// workers are left out: a single shard always steps inline, on the 1x1
// code path.
func TestFleetShardEquivalence(t *testing.T) {
	sharded := []cell{{2, 1, false}, {4, 1, false}, {7, 1, false}, {2, 4, false}, {4, 4, false}, {7, 4, false}}
	streamed := []cell{{1, 1, true}, {2, 1, true}, {4, 1, true}, {7, 1, true}, {2, 4, true}, {4, 4, true}, {7, 4, true}}
	dvfs := scenario{
		gen:  GenConfig{Seed: 42, Arrivals: 120, Horizon: 240 * sim.Second, MeanLifetime: 60 * sim.Second},
		opti: 10, xeon: 6,
		reportEvery:      20 * sim.Second,
		consolidateEvery: 40 * sim.Second,
	}
	rows := []struct {
		name  string
		sc    scenario
		feats features
		cells []cell
	}{
		{"churn-seed7", churnScenario(7), featServe | featObs, append(sharded, streamed...)},
		{"churn-seed99", churnScenario(99), featServe | featObs, sharded},
		{"autoscale-seed7", saturatedScenario(7), featServe | featObs | featAutoscale, sharded},
		{"autoscale-seed99", saturatedScenario(99), featServe | featObs | featAutoscale, sharded},
		{"closed-loop", saturatedScenario(21), featServe | featObs | featClosedLoop, []cell{{3, 2, false}}},
		{"dvfs-aware", dvfs, placeDVFSAware, []cell{{2, 2, false}, {8, 8, false}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			rep, events := checkShardEquivalence(t, row.sc, row.feats, row.cells)
			requireExercised(t, row.feats, rep, events)
		})
	}
}

// fuzzShardCase checks the sharding contract on one fuzz input: the
// cell's report and event stream must be DeepEqual-bit-exact to the
// materialized 1x1 run. Consolidation fires at every barrier, so VMs
// keep crossing shard boundaries mid-run.
func fuzzShardCase(t *testing.T, seed uint64, arrivals, life, shards, workers uint8, feats features) {
	t.Helper()
	activity := 0.6
	if feats&featAutoscale != 0 {
		activity = 0.9
	}
	sc := scenario{
		gen: GenConfig{
			Seed:         seed,
			Arrivals:     5 + int(arrivals%56),
			Horizon:      120 * sim.Second,
			MeanLifetime: sim.Time(10+int(life)%80) * sim.Second,
			BaseActivity: activity,
			SegmentLen:   30 * sim.Second,
		},
		opti: 4, xeon: 2,
		reportEvery:      15 * sim.Second,
		consolidateEvery: 15 * sim.Second,
	}
	checkShardEquivalence(t, sc, feats,
		[]cell{{1 + int(shards)%7, 1 + int(workers)%4, feats&featStream != 0}})
}

// fuzzSeed is one corpus entry: trace seed, arrival and lifetime knobs,
// and the shard and worker counts of the checked cell.
type fuzzSeed struct {
	seed                            uint64
	arrivals, life, shards, workers uint8
}

// fuzzLayer fuzzes the sharding contract with the feature mask fixed to
// feats, starting from corpus.
func fuzzLayer(f *testing.F, feats features, corpus []fuzzSeed) {
	for _, e := range corpus {
		f.Add(e.seed, e.arrivals, e.life, e.shards, e.workers)
	}
	f.Fuzz(func(t *testing.T, seed uint64, arrivals, life, shards, workers uint8) {
		fuzzShardCase(t, seed, arrivals, life, shards, workers, feats)
	})
}

// FuzzShardMigration fuzzes cross-shard migration with best-fit
// placement and no layers on top of the VMs.
func FuzzShardMigration(f *testing.F) {
	fuzzLayer(f, 0, []fuzzSeed{{1, 40, 30, 3, 2}, {7, 60, 15, 7, 4}, {42, 25, 60, 2, 1}, {99, 50, 20, 5, 3}})
}

// FuzzShardMigrationStreamed is FuzzShardMigration with the cell
// pulling its trace from GenerateStream.
func FuzzShardMigrationStreamed(f *testing.F) {
	fuzzLayer(f, featStream, []fuzzSeed{{1, 40, 30, 3, 2}, {7, 60, 15, 7, 4}, {42, 25, 60, 2, 1}})
}

// FuzzServeShardEquivalence fuzzes the sharding contract with the
// request-level serving layer on.
func FuzzServeShardEquivalence(f *testing.F) {
	fuzzLayer(f, featServe, []fuzzSeed{{2, 40, 30, 3, 2}, {11, 60, 15, 7, 4}, {31, 25, 60, 2, 1}, {77, 50, 20, 5, 3}})
}

// FuzzObsShardEquivalence fuzzes the sharding contract with serving and
// the flight recorder on, comparing event streams too.
func FuzzObsShardEquivalence(f *testing.F) {
	fuzzLayer(f, featServe|featObs, []fuzzSeed{{3, 40, 30, 3, 2}, {13, 60, 15, 7, 4}, {37, 25, 60, 2, 1}, {71, 50, 20, 5, 3}})
}

// FuzzAutoscaleShardEquivalence fuzzes the sharding contract with the
// ditto autoscaler resizing and replicating VMs.
func FuzzAutoscaleShardEquivalence(f *testing.F) {
	fuzzLayer(f, featServe|featObs|featAutoscale, []fuzzSeed{{5, 40, 30, 3, 2}, {17, 60, 15, 7, 4}, {41, 25, 60, 2, 1}, {73, 50, 20, 5, 3}})
}

// FuzzShardEquivalence fuzzes the feature mask as well, so one fuzz run
// reaches every layer combination and placement policy. The per-layer
// targets above hold the layer corpora; this corpus adds what they
// never sharded.
func FuzzShardEquivalence(f *testing.F) {
	for _, e := range []struct {
		fuzzSeed
		mask features
	}{
		{fuzzSeed{1, 40, 30, 3, 2}, placeFirstFit},
		{fuzzSeed{7, 60, 15, 7, 4}, placeDVFSAware | featServe | featObs},
		{fuzzSeed{42, 25, 60, 2, 1}, placeDVFSAware | featStream},
		{fuzzSeed{21, 50, 20, 5, 3}, featServe | featObs | featClosedLoop},
	} {
		f.Add(e.seed, e.arrivals, e.life, e.shards, e.workers, uint8(e.mask))
	}
	f.Fuzz(func(t *testing.T, seed uint64, arrivals, life, shards, workers, mask uint8) {
		fuzzShardCase(t, seed, arrivals, life, shards, workers, features(mask))
	})
}
