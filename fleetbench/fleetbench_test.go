package main

import (
	"bytes"
	"runtime/pprof"
	"strconv"
	"testing"
	"time"

	"pasched/internal/fleet"
)

// small shrinks a workload to a few hundred milliseconds while keeping
// its shape: same policy, sink, serving and recorder settings.
func small(s spec) spec {
	s.machines = max(s.machines/20, 12)
	s.gen.Arrivals = max(s.gen.Arrivals/20, 48)
	s.gen.Horizon /= 2
	s.gen.MeanLifetime /= 2
	return s
}

// The timing wrappers must not change what the fleet computes: a run
// with them digests exactly like a run without, and both match the
// inline run (the shard-invariance contract every sharded operation
// re-proves).
func TestTimingWrappersPassThrough(t *testing.T) {
	for i := range specs {
		s := small(specs[i])
		t.Run(s.name, func(t *testing.T) {
			inline, err := runOp(&s, 7, opMode{inline: true})
			if err != nil {
				t.Fatal(err)
			}
			plain, err := runOp(&s, 7, opMode{})
			if err != nil {
				t.Fatal(err)
			}
			timed, err := runOp(&s, 7, opMode{traced: true})
			if err != nil {
				t.Fatal(err)
			}
			if plain.digest != inline.digest || timed.digest != inline.digest {
				t.Fatalf("digests differ: inline %s, plain %s, timed %s", inline.digest, plain.digest, timed.digest)
			}
			tp := timed.taps
			if tp.records == 0 || len(tp.windows) == 0 || len(timed.profile) == 0 {
				t.Errorf("wrappers not in the call path: %+v", tp)
			}
			if !s.materialize && tp.pulls != int64(s.gen.Arrivals)+1 {
				t.Errorf("timed source saw %d pulls, want %d", tp.pulls, s.gen.Arrivals+1)
			}
			if s.elastic && (tp.export == 0 || timed.traceBytes == 0) {
				t.Errorf("timed event sink took %v for %d bytes", tp.export, timed.traceBytes)
			}
		})
	}
}

// The fleet answers placement from its incremental index only for the
// built-in policy values; any wrapper type silently falls back to the
// linear oracle, so the workloads must pass the values themselves.
func TestWorkloadsUseBuiltinPolicyValues(t *testing.T) {
	want := map[string]string{"churn": "dvfs-aware", "steady": "dvfs-aware", "elastic": "best-fit"}
	for i := range specs {
		s := &specs[i]
		for _, inline := range []bool{false, true} {
			p := s.config(1, inline).Policy
			switch p.(type) {
			case fleet.DVFSAware, fleet.BestFit:
			default:
				t.Errorf("%s: policy is %T, not a built-in policy value", s.name, p)
			}
			if p.Name() != want[s.name] {
				t.Errorf("%s: policy %s, want %s", s.name, p.Name(), want[s.name])
			}
		}
	}
}

// Every workload reproduces its committed inline digests, for the
// default and the held-out seed.
func TestCommittedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload at full size")
	}
	refs, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		s := &specs[i]
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			want, ok := refs[s.name][strconv.FormatUint(seed, 10)]
			if !ok {
				t.Errorf("%s: no committed digest for seed %d", s.name, seed)
				continue
			}
			r, err := runOp(s, seed, opMode{inline: true})
			if err != nil {
				t.Fatal(err)
			}
			if r.digest != want {
				t.Errorf("%s seed %d: digest %s, committed %s", s.name, seed, r.digest, want)
			}
		}
	}
}

// The Perfetto writer's Finish records are digested as a set; every
// byte before them is digested in order.
func TestDigestWriterUnorderedTail(t *testing.T) {
	sum := func(head string, tail ...string) []byte {
		d := newDigestWriter()
		d.Write([]byte(head))
		d.tail = new(bytes.Buffer)
		for _, s := range tail {
			d.Write([]byte(s))
		}
		return d.sum()
	}
	if !bytes.Equal(sum("a\nb\n", "x,\n", "y\n]}\n"), sum("a\nb\n", "y,\n", "x\n]}\n")) {
		t.Error("tail order changed the digest")
	}
	if bytes.Equal(sum("a\nb\n", "x\n"), sum("b\na\n", "x\n")) {
		t.Error("head order did not change the digest")
	}
}

func TestAttribute(t *testing.T) {
	fl := func(fn, file string) frame { return frame{fn: fn, file: "pasched/internal/" + file} }
	cases := []struct {
		name   string
		frames []frame
		want   string
	}{
		{"placement is cumulative", []frame{
			fl("pasched/internal/cpufreq.(*Profile).Power", "cpufreq/profile.go"),
			fl("pasched/internal/fleet.DVFSAware.estimate", "fleet/policy.go"),
			fl("pasched/internal/fleet.(*dvfsIndex).place", "fleet/placeindex.go"),
			fl("pasched/internal/fleet.(*Fleet).place", "fleet/fleet.go"),
			fl("pasched/internal/fleet.(*Fleet).arrive", "fleet/fleet.go"),
		}, "fleet.place"},
		{"sort leaf belongs to Drain", []frame{
			{fn: "sort.insertionSort_func", file: "sort/zsortfunc.go"},
			fl("pasched/internal/obs.(*Recorder).Drain.func1", "obs/obs.go"),
			{fn: "sort.Slice", file: "sort/slice.go"},
			fl("pasched/internal/obs.(*Recorder).Drain", "obs/obs.go"),
		}, "obs.drain"},
		{"fmt leaf belongs to the Perfetto writer", []frame{
			{fn: "fmt.(*pp).doPrintf", file: "fmt/print.go"},
			fl("pasched/internal/obs.(*PerfettoWriter).emitf", "obs/perfetto.go"),
			fl("pasched/internal/obs.(*PerfettoWriter).Events", "obs/perfetto.go"),
			fl("pasched/internal/obs.(*Recorder).Drain", "obs/obs.go"),
		}, "obs.export"},
		{"emission inlined into the host", []frame{
			fl("pasched/internal/obs.(*MachineObs).Emit", "obs/obs.go"),
			fl("pasched/internal/host.(*Host).step", "host/host.go"),
		}, "obs.record"},
		{"sim helpers pass up", []frame{
			fl("pasched/internal/sim.(*RNG).Float64", "sim/rng.go"),
			fl("pasched/internal/sched.(*PAS).Pick", "sched/pas.go"),
		}, "sched"},
		{"shard worker", []frame{
			{fn: "runtime.mapaccess1", file: "runtime/map.go"},
			fl("pasched/internal/fleet.(*shard).exec", "fleet/shard.go"),
		}, "fleet.shard"},
		{"sink encoding", []frame{
			{fn: "encoding/json.(*encodeState).marshal", file: "encoding/json/encode.go"},
			fl("pasched/internal/fleet.(*JSONLSink).Outcome", "fleet/report.go"),
		}, "fleet.sink"},
		{"harness hashing", []frame{
			{fn: "crypto/sha256.block", file: "crypto/sha256/sha256block.go"},
			{fn: "main.(*digestWriter).Write", file: "fleetbench/measure.go"},
			fl("pasched/internal/fleet.(*JSONLSink).Outcome", "fleet/report.go"),
		}, "harness"},
		{"runtime only", []frame{
			{fn: "runtime.scanobject", file: "runtime/mgcmark.go"},
			{fn: "runtime.gcBgMarkWorker", file: "runtime/mgc.go"},
		}, "runtime"},
	}
	for _, c := range cases {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); {
		n++
	}
	return n
}

// The profile decoder recovers symbolized stacks and CPU time from a
// real runtime/pprof profile.
func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var spun, total int64
	for _, s := range samples {
		total += s.nanos
		for _, f := range s.frames {
			if f.fn == "pasched/fleetbench.spin" {
				spun += s.nanos
				if attribute(s.frames) != "harness" {
					t.Errorf("spin sample attributed to %s", attribute(s.frames))
				}
				break
			}
		}
	}
	if spun < int64(100*time.Millisecond) || spun > total {
		t.Errorf("spin got %v of %v profiled CPU", time.Duration(spun), time.Duration(total))
	}
}
