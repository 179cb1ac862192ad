package fleet

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"pasched/internal/sim"
)

// churnTrace is churnScenario's trace.
func churnTrace(t *testing.T, seed uint64) *Trace {
	t.Helper()
	return genTrace(t, churnScenario(seed).gen)
}

// churnConfig is churnScenario's configuration with serving and the
// flight recorder on.
func churnConfig(shards, workers int, seed uint64) Config {
	return churnScenario(seed).config(featServe|featObs, shards, workers)
}

// TestFleetShardDefaultsAndClamp covers the shard-count configuration
// surface: negative rejected, zero defaulting to the worker count, and
// clamping to the machine count.
func TestFleetShardDefaultsAndClamp(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 1, Arrivals: 3, Horizon: 10 * sim.Second})
	if _, err := New(Config{Machines: testMachines(2, 0), Shards: -1}, tr); err == nil ||
		!strings.Contains(err.Error(), "shard count") {
		t.Errorf("negative shard count accepted: %v", err)
	}
	f, err := New(Config{Machines: testMachines(2, 0), Shards: 64}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if f.Shards() != 2 {
		t.Errorf("64 shards on 2 machines: got %d, want clamp to 2", f.Shards())
	}
	f, err = New(Config{Machines: testMachines(3, 0), Workers: 2}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if f.Shards() != 2 {
		t.Errorf("shards=0 workers=2: got %d shards, want 2", f.Shards())
	}
}

// TestFleetStreamedCSVMatchesBuffered checks the streaming contract:
// the CSV a CSVSink emits during the run is byte-identical to
// Report.WriteCSV on the buffered report of an identical run.
func TestFleetStreamedCSVMatchesBuffered(t *testing.T) {
	seed := uint64(13)
	tr := churnTrace(t, seed)
	want := runFleet(t, churnConfig(2, 2, seed), tr, 300*sim.Second)
	var buffered bytes.Buffer
	if err := want.WriteCSV(&buffered); err != nil {
		t.Fatal(err)
	}

	var streamed bytes.Buffer
	cfg := churnConfig(2, 2, seed)
	cfg.Sinks = []Sink{NewCSVSink(&streamed)}
	cfg.DiscardReport = true
	rep := runFleet(t, cfg, tr, 300*sim.Second)

	if !bytes.Equal(streamed.Bytes(), buffered.Bytes()) {
		t.Errorf("streamed CSV differs from buffered:\n--- streamed ---\n%s\n--- buffered ---\n%s",
			streamed.String(), buffered.String())
	}
	// DiscardReport keeps only the summary, and it must equal the
	// buffered run's bit for bit.
	if len(rep.Intervals) != 0 || len(rep.PerVM) != 0 {
		t.Errorf("DiscardReport buffered %d intervals, %d outcomes", len(rep.Intervals), len(rep.PerVM))
	}
	if !reflect.DeepEqual(rep.Summary, want.Summary) {
		t.Errorf("DiscardReport summary differs:\n%+v\nvs\n%+v", rep.Summary, want.Summary)
	}
}

// TestFleetJSONLSink checks the JSON Lines stream carries the complete
// report: every interval, every per-VM outcome, and the summary.
func TestFleetJSONLSink(t *testing.T) {
	seed := uint64(29)
	tr := churnTrace(t, seed)
	var stream bytes.Buffer
	cfg := churnConfig(2, 2, seed)
	cfg.Sinks = []Sink{NewJSONLSink(&stream)}
	rep := runFleet(t, cfg, tr, 300*sim.Second)

	var intervals []Interval
	var outcomes []VMOutcome
	var summaries []Summary
	sc := bufio.NewScanner(&stream)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec JSONLRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		switch {
		case rec.Interval != nil:
			intervals = append(intervals, *rec.Interval)
		case rec.VM != nil:
			outcomes = append(outcomes, *rec.VM)
		case rec.Summary != nil:
			summaries = append(summaries, *rec.Summary)
		default:
			t.Fatalf("empty JSONL record: %q", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(intervals, rep.Intervals) {
		t.Errorf("streamed intervals differ from buffered (%d vs %d)", len(intervals), len(rep.Intervals))
	}
	if !reflect.DeepEqual(outcomes, rep.PerVM) {
		t.Errorf("streamed outcomes differ from buffered (%d vs %d)", len(outcomes), len(rep.PerVM))
	}
	if len(summaries) != 1 || !reflect.DeepEqual(summaries[0], rep.Summary) {
		t.Errorf("streamed summary differs: %+v", summaries)
	}
}

// guardSink probes the fleet's accessors from inside the run (sinks are
// called on the coordinator while the shard workers own the hosts).
type guardSink struct {
	t       *testing.T
	f       *Fleet
	checked bool
}

func (g *guardSink) Interval(*Interval) error {
	if g.checked {
		return nil
	}
	g.checked = true
	if _, err := g.f.Host(0); err == nil || !strings.Contains(err.Error(), "while Run executes") {
		g.t.Errorf("Host(0) during Run: %v, want ownership error", err)
	}
	if n := g.f.BatchedQuanta(); n != 0 {
		g.t.Errorf("BatchedQuanta during Run = %d, want 0", n)
	}
	return nil
}

func (g *guardSink) Outcome(*VMOutcome) error { return nil }
func (g *guardSink) Finish(*Summary) error    { return nil }

// TestFleetAccessorGuards: Host and BatchedQuanta refuse to touch
// worker-owned hosts during Run and work normally after, including on
// machines that were never powered on (lazily constructed on demand).
func TestFleetAccessorGuards(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 3, Arrivals: 10, Horizon: 60 * sim.Second})
	cfg := Config{Machines: testMachines(4, 2), Workers: 2, Shards: 3, Seed: 3}
	g := &guardSink{t: t}
	cfg.Sinks = []Sink{g}
	f, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	g.f = f
	if _, err := f.Run(60 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if !g.checked {
		t.Fatal("guard sink never ran")
	}
	if f.BatchedQuanta() == 0 {
		t.Error("no batched quanta after the run")
	}
	for i := 0; i < f.Machines(); i++ {
		h, err := f.Host(i)
		if err != nil || h == nil {
			t.Fatalf("Host(%d) after Run: %v", i, err)
		}
	}
	if _, err := f.Host(f.Machines()); err == nil {
		t.Error("out-of-range Host accepted")
	}
	if _, err := f.Host(-1); err == nil {
		t.Error("negative Host index accepted")
	}
}

// failSink fails on the first interval, checking sink errors abort the
// run cleanly (workers torn down, error propagated).
type failSink struct{ err error }

func (s *failSink) Interval(*Interval) error { return s.err }
func (s *failSink) Outcome(*VMOutcome) error { return nil }
func (s *failSink) Finish(*Summary) error    { return nil }

func TestFleetSinkErrorAbortsRun(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 5, Arrivals: 20, Horizon: 60 * sim.Second})
	cfg := Config{Machines: testMachines(4, 0), Workers: 2, Shards: 2, Seed: 5}
	sinkErr := &failSink{err: errSentinel}
	cfg.Sinks = []Sink{sinkErr}
	f, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Run(60 * sim.Second); err != errSentinel {
		t.Fatalf("sink error not propagated: %v", err)
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel sink failure" }
