package fleet

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"pasched/internal/autoscale"
	"pasched/internal/obs"
	"pasched/internal/sim"
	"pasched/internal/workload"
)

// FuzzParseTrace hammers the fleet trace parser with hostile input: the
// parser must never panic, every accepted trace must pass Validate, and
// writing it back out must reparse to the same trace (the CSV round
// trip the CLI relies on).
func FuzzParseTrace(f *testing.F) {
	f.Add(sampleTrace)
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a,0.5\n")
	f.Add("horizon,10\r\nclass,a,10,1024\r\nvm,x,0,5,a,0.5\r\n") // CRLF
	f.Add("vm,x,0,5,a,0.5\nhorizon,10\nclass,a,10,1024\n")       // out of order records
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,5,1,a,0.5\nvm,y,1,1,a,0.5\n")
	f.Add("horizon,10\nvm,x,0,5,ghost,0.5\n")                 // unknown class
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a,NaN\n")    // NaN activity
	f.Add("horizon,NaN\nclass,a,10,1024\nvm,x,0,5,a,0.5\n")   // NaN horizon
	f.Add("horizon,1e300\nclass,a,10,1024\nvm,x,0,5,a,0.5\n") // horizon overflow
	f.Add("horizon,10\nclass,a,1e308,1024\nvm,x,0,5,a,0.5\n") // huge credit
	f.Add("horizon,10\nclass,a,10,1024\nvm,x,0,5,a\n")        // missing field
	f.Add("wat,1,2\n")                                        // unknown record
	f.Add("# empty\n\n")
	f.Add("horizon,10\nhorizon,10\nclass,a,10,1024\nvm,x,0,5,a,0.5\n") // dup horizon

	f.Fuzz(func(t *testing.T, input string) {
		tr, err := ParseTrace(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("accepted trace fails WriteCSV: %v", err)
		}
		back, err := ParseTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v\n%s", err, buf.String())
		}
		if back.Horizon != tr.Horizon || len(back.Events) != len(tr.Events) ||
			len(back.Classes) != len(tr.Classes) {
			t.Fatalf("round trip changed shape: %+v vs %+v", back, tr)
		}
		for i := range tr.Events {
			a, b := tr.Events[i], back.Events[i]
			if a.Name != b.Name || a.Class != b.Class || a.Arrive != b.Arrive ||
				a.Lifetime != b.Lifetime || a.Activity != b.Activity {
				t.Fatalf("round trip changed event %d: %+v vs %+v", i, a, b)
			}
		}
	})
}

// FuzzShardMigration fuzzes the cross-shard migration ordering: for
// arbitrary shard/worker counts and churn parameters, the sharded run's
// report must be DeepEqual-bit-exact to the single-shard, single-worker
// run on the same generated trace. Consolidation fires every barrier,
// so VMs keep crossing shard boundaries mid-run.
func FuzzShardMigration(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(30), uint8(3), uint8(2))
	f.Add(uint64(7), uint8(60), uint8(15), uint8(7), uint8(4))
	f.Add(uint64(42), uint8(25), uint8(60), uint8(2), uint8(1))
	f.Add(uint64(99), uint8(50), uint8(20), uint8(5), uint8(3))

	f.Fuzz(func(t *testing.T, seed uint64, arrivals, life, shards, workers uint8) {
		horizon := 120 * sim.Second
		tr, err := Generate(GenConfig{
			Seed:         seed,
			Arrivals:     5 + int(arrivals%56),
			Horizon:      horizon,
			MeanLifetime: sim.Time(10+int(life)%80) * sim.Second,
			BaseActivity: 0.6,
			SegmentLen:   30 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := func(s, w int) Config {
			return Config{
				Machines:         testMachines(4, 2),
				Scheduler:        "pas",
				Policy:           NewBestFit(),
				ReportEvery:      15 * sim.Second,
				ConsolidateEvery: 15 * sim.Second,
				Shards:           s,
				Workers:          w,
				Seed:             seed,
			}
		}
		run := func(s, w int) *Report {
			fl, err := New(cfg(s, w), tr)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fl.Run(horizon)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		want := run(1, 1)
		got := run(1+int(shards)%7, 1+int(workers)%4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d workers=%d: report differs from 1x1:\n%+v\nvs\n%+v",
				1+int(shards)%7, 1+int(workers)%4, got.Summary, want.Summary)
		}
	})
}

// FuzzServeShardEquivalence is FuzzShardMigration with the serving
// layer enabled: latency histograms fold on shard workers and merge on
// the coordinator, and the resulting percentiles must be bit-exact for
// arbitrary shard/worker splits — including requests whose service
// spans a live migration.
func FuzzServeShardEquivalence(f *testing.F) {
	f.Add(uint64(2), uint8(40), uint8(30), uint8(3), uint8(2))
	f.Add(uint64(11), uint8(60), uint8(15), uint8(7), uint8(4))
	f.Add(uint64(31), uint8(25), uint8(60), uint8(2), uint8(1))
	f.Add(uint64(77), uint8(50), uint8(20), uint8(5), uint8(3))

	f.Fuzz(func(t *testing.T, seed uint64, arrivals, life, shards, workers uint8) {
		horizon := 120 * sim.Second
		tr, err := Generate(GenConfig{
			Seed:         seed,
			Arrivals:     5 + int(arrivals%56),
			Horizon:      horizon,
			MeanLifetime: sim.Time(10+int(life)%80) * sim.Second,
			BaseActivity: 0.6,
			SegmentLen:   30 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := func(s, w int) Config {
			return Config{
				Machines:         testMachines(4, 2),
				Scheduler:        "pas",
				Policy:           NewBestFit(),
				ReportEvery:      15 * sim.Second,
				ConsolidateEvery: 15 * sim.Second,
				Shards:           s,
				Workers:          w,
				Seed:             seed,
				Serving:          ServingConfig{Enabled: true},
			}
		}
		run := func(s, w int) *Report {
			fl, err := New(cfg(s, w), tr)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fl.Run(horizon)
			if err != nil {
				t.Fatal(err)
			}
			return rep
		}
		want := run(1, 1)
		got := run(1+int(shards)%7, 1+int(workers)%4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d workers=%d: serving report differs from 1x1:\n%+v\nvs\n%+v",
				1+int(shards)%7, 1+int(workers)%4, got.Summary, want.Summary)
		}
	})
}

// FuzzObsShardEquivalence is the flight-recorder differential fuzz: with
// the recorder buffering and serving enabled, both the report — now
// carrying the per-VM attribution ledgers — and the merged event stream
// must be DeepEqual-bit-exact between the single-shard, single-worker
// run and an arbitrary shard/worker split, on traces with migration
// churn crossing shard boundaries.
func FuzzObsShardEquivalence(f *testing.F) {
	f.Add(uint64(3), uint8(40), uint8(30), uint8(3), uint8(2))
	f.Add(uint64(13), uint8(60), uint8(15), uint8(7), uint8(4))
	f.Add(uint64(37), uint8(25), uint8(60), uint8(2), uint8(1))
	f.Add(uint64(71), uint8(50), uint8(20), uint8(5), uint8(3))

	f.Fuzz(func(t *testing.T, seed uint64, arrivals, life, shards, workers uint8) {
		horizon := 120 * sim.Second
		tr, err := Generate(GenConfig{
			Seed:         seed,
			Arrivals:     5 + int(arrivals%56),
			Horizon:      horizon,
			MeanLifetime: sim.Time(10+int(life)%80) * sim.Second,
			BaseActivity: 0.6,
			SegmentLen:   30 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := func(s, w int) Config {
			return Config{
				Machines:         testMachines(4, 2),
				Scheduler:        "pas",
				Policy:           NewBestFit(),
				ReportEvery:      15 * sim.Second,
				ConsolidateEvery: 15 * sim.Second,
				Shards:           s,
				Workers:          w,
				Seed:             seed,
				Serving:          ServingConfig{Enabled: true},
				Obs:              ObsConfig{Enabled: true, Buffer: true},
			}
		}
		run := func(s, w int) (*Report, []obs.Event) {
			fl, err := New(cfg(s, w), tr)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fl.Run(horizon)
			if err != nil {
				t.Fatal(err)
			}
			return rep, fl.ObsEvents()
		}
		want, wantEv := run(1, 1)
		got, gotEv := run(1+int(shards)%7, 1+int(workers)%4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d workers=%d: obs report differs from 1x1:\n%+v\nvs\n%+v",
				1+int(shards)%7, 1+int(workers)%4, got.Summary, want.Summary)
		}
		if !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("shards=%d workers=%d: event stream differs from 1x1 (%d vs %d events)",
				1+int(shards)%7, 1+int(workers)%4, len(gotEv), len(wantEv))
		}
	})
}

// FuzzAutoscaleShardEquivalence closes the differential-fuzz family
// over the elastic loop: with the ditto autoscaler resizing caps,
// spawning and retiring replicas, and repartitioning arrival streams
// mid-run, an arbitrary shard/worker split must still produce a report
// and event stream DeepEqual-bit-exact to the single-shard,
// single-worker run.
func FuzzAutoscaleShardEquivalence(f *testing.F) {
	f.Add(uint64(5), uint8(40), uint8(30), uint8(3), uint8(2))
	f.Add(uint64(17), uint8(60), uint8(15), uint8(7), uint8(4))
	f.Add(uint64(41), uint8(25), uint8(60), uint8(2), uint8(1))
	f.Add(uint64(73), uint8(50), uint8(20), uint8(5), uint8(3))

	f.Fuzz(func(t *testing.T, seed uint64, arrivals, life, shards, workers uint8) {
		horizon := 120 * sim.Second
		tr, err := Generate(GenConfig{
			Seed:         seed,
			Arrivals:     5 + int(arrivals%56),
			Horizon:      horizon,
			MeanLifetime: sim.Time(10+int(life)%80) * sim.Second,
			BaseActivity: 0.9,
			SegmentLen:   30 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg := func(s, w int) Config {
			return Config{
				Machines:         testMachines(4, 2),
				Scheduler:        "pas",
				Policy:           NewBestFit(),
				ReportEvery:      15 * sim.Second,
				ConsolidateEvery: 15 * sim.Second,
				Shards:           s,
				Workers:          w,
				Seed:             seed,
				// Full-cost requests so credit throttling turns into
				// queueing the policies can see (see autoscale_test.go).
				Serving: ServingConfig{Enabled: true, RequestCost: workload.DefaultRequestCost},
				Obs:     ObsConfig{Enabled: true, Buffer: true},
				Autoscale: AutoscaleConfig{
					Enabled: true,
					Policy:  "ditto",
					Params: autoscale.Params{
						MaxCapPct:          30,
						MaxReplicas:        3,
						CappedHighPermille: 10,
					},
				},
			}
		}
		run := func(s, w int) (*Report, []obs.Event) {
			fl, err := New(cfg(s, w), tr)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fl.Run(horizon)
			if err != nil {
				t.Fatal(err)
			}
			return rep, fl.ObsEvents()
		}
		want, wantEv := run(1, 1)
		got, gotEv := run(1+int(shards)%7, 1+int(workers)%4)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d workers=%d: autoscaled report differs from 1x1:\n%+v\nvs\n%+v",
				1+int(shards)%7, 1+int(workers)%4, got.Summary, want.Summary)
		}
		if !reflect.DeepEqual(gotEv, wantEv) {
			t.Fatalf("shards=%d workers=%d: autoscaled event stream differs from 1x1 (%d vs %d events)",
				1+int(shards)%7, 1+int(workers)%4, len(gotEv), len(wantEv))
		}
	})
}
