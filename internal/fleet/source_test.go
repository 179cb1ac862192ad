package fleet

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pasched/internal/sim"
)

// TestGenerateStreamMatchesGenerate proves the streaming generator and
// the materialized one are the same trace bit for bit: Generate is
// GenerateStream drained, and a second independent stream replays
// identically (the source is deterministic in the seed, not stateful
// across constructions).
func TestGenerateStreamMatchesGenerate(t *testing.T) {
	cfg := GenConfig{Seed: 1234, Arrivals: 500, Horizon: 600 * sim.Second,
		MeanLifetime: 90 * sim.Second, SegmentLen: 30 * sim.Second}
	tr := genTrace(t, cfg)
	src, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if src.Horizon() != tr.Horizon {
		t.Fatalf("horizon: stream %v, trace %v", src.Horizon(), tr.Horizon)
	}
	if !reflect.DeepEqual(src.Classes(), tr.Classes) {
		t.Fatalf("classes differ: %+v vs %+v", src.Classes(), tr.Classes)
	}
	for i := range tr.Events {
		ev, ok := src.Next()
		if !ok {
			t.Fatalf("stream ended at event %d of %d: %v", i, len(tr.Events), src.Err())
		}
		if !reflect.DeepEqual(ev, tr.Events[i]) {
			t.Fatalf("event %d differs:\nstream %+v\ntrace  %+v", i, ev, tr.Events[i])
		}
	}
	if ev, ok := src.Next(); ok {
		t.Fatalf("stream has extra event after %d: %+v", len(tr.Events), ev)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("clean stream reports error: %v", err)
	}
}

// TestGenerateStreamSortedAndValid drains a larger stream through the
// full Trace.Validate gauntlet: sorted (Arrive, Name) order, unique
// names, in-horizon arrivals — the TraceSource contract.
func TestGenerateStreamSortedAndValid(t *testing.T) {
	src, err := GenerateStream(GenConfig{Seed: 9, Arrivals: 3000, Horizon: 3600 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 3000 {
		t.Fatalf("drained %d events, want 3000", len(tr.Events))
	}
}

// TestTraceSourceRoundTrip: the materialized adapter drained back is
// the trace it wrapped.
func TestTraceSourceRoundTrip(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 3, Arrivals: 50, Horizon: 100 * sim.Second})
	back, err := Drain(tr.Source())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, tr) {
		t.Fatalf("Source->Drain changed the trace:\n%+v\nvs\n%+v", back, tr)
	}
}

// TestWriteCSVStreamByteIdentity is the satellite acceptance check:
// Generate -> materialize -> WriteCSV and GenerateStream ->
// WriteCSVStream produce byte-identical files.
func TestWriteCSVStreamByteIdentity(t *testing.T) {
	cfg := GenConfig{Seed: 77, Arrivals: 400, Horizon: 300 * sim.Second}
	tr := genTrace(t, cfg)
	var buffered bytes.Buffer
	if err := tr.WriteCSV(&buffered); err != nil {
		t.Fatal(err)
	}
	src, err := GenerateStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var streamed bytes.Buffer
	if err := WriteCSVStream(src, &streamed); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buffered.Bytes(), streamed.Bytes()) {
		t.Fatalf("materialized and streamed CSV differ (%d vs %d bytes)",
			buffered.Len(), streamed.Len())
	}
}

// TestParseTraceStream: the streaming CSV reader yields the same trace
// ParseTrace materializes from the same bytes.
func TestParseTraceStream(t *testing.T) {
	tr := genTrace(t, GenConfig{Seed: 5, Arrivals: 200, Horizon: 240 * sim.Second})
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want, err := ParseTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	src, err := ParseTraceStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Drain(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed parse differs from ParseTrace:\n%+v\nvs\n%+v", got, want)
	}
}

// TestParseTraceStreamErrors covers what the streaming reader must
// reject that ParseTrace can repair by buffering: prologue records
// after the first vm record, unsorted vm records, plus the shared
// validation (duplicates, malformed fields, empty traces).
func TestParseTraceStreamErrors(t *testing.T) {
	cases := []struct {
		name, input, want string
		late              bool // error surfaces from Next/Err, not construction
	}{
		{name: "empty", input: "# nothing\n", want: "without VM events"},
		{name: "vm before horizon", input: "class,a,10,1024\nvm,x,0,5,a,0.5\n",
			want: "before the horizon record"},
		{name: "class after vm",
			input: "horizon,10\nclass,a,10,1024\nvm,x,0,5,a,0.5\nclass,b,20,2048\n",
			want:  "after the first vm record", late: true},
		{name: "unsorted",
			input: "horizon,10\nclass,a,10,1024\nvm,x,5,1,a,0.5\nvm,y,1,1,a,0.5\n",
			want:  "not sorted", late: true},
		{name: "duplicate name",
			input: "horizon,10\nclass,a,10,1024\nvm,x,1,1,a,0.5\nvm,x,1,2,a,0.5\n",
			want:  "duplicate VM name", late: true},
		{name: "duplicate class",
			input: "horizon,10\nclass,a,10,1024\nclass,a,10,1024\nvm,x,0,5,a,0.5\n",
			want:  "duplicate class"},
		{name: "bad activity",
			input: "horizon,10\nclass,a,10,1024\nvm,x,0,5,a,wat\n",
			want:  "invalid syntax", late: true},
		{name: "unknown record", input: "wat,1\nhorizon,10\n", want: "unknown record"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, err := ParseTraceStream(strings.NewReader(tc.input))
			if !tc.late {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("construction error = %v, want %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatalf("construction failed early: %v", err)
			}
			for {
				if _, ok := src.Next(); !ok {
					break
				}
			}
			if err := src.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("stream error = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestNewStreamValidation: the streaming constructor and run surface
// the errors Trace.Validate would have raised up front.
func TestNewStreamValidation(t *testing.T) {
	cfg := Config{Machines: testMachines(2, 0)}
	if _, err := NewStream(cfg, nil); err == nil ||
		!strings.Contains(err.Error(), "nil trace source") {
		t.Errorf("nil source: %v", err)
	}
	empty := &Trace{Classes: map[string]VMClass{"a": {Name: "a", CreditPct: 10, MemoryMB: 512}},
		Horizon: 10 * sim.Second}
	fl, err := NewStream(cfg, empty.Source())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Run(10 * sim.Second); err == nil ||
		!strings.Contains(err.Error(), "without VM events") {
		t.Errorf("empty stream: %v", err)
	}
	bad := &Trace{
		Classes: map[string]VMClass{"a": {Name: "a", CreditPct: 10, MemoryMB: 512}},
		Events: []VMEvent{
			{Name: "x", Class: "a", Arrive: 5 * sim.Second, Lifetime: sim.Second, Activity: 0.5},
			{Name: "y", Class: "a", Arrive: 1 * sim.Second, Lifetime: sim.Second, Activity: 0.5},
		},
		Horizon: 10 * sim.Second,
	}
	fl, err = NewStream(cfg, bad.Source())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Run(10 * sim.Second); err == nil ||
		!strings.Contains(err.Error(), "not sorted") {
		t.Errorf("unsorted stream: %v", err)
	}
	ghost := &Trace{
		Classes: map[string]VMClass{"a": {Name: "a", CreditPct: 10, MemoryMB: 512}},
		Events: []VMEvent{
			{Name: "x", Class: "ghost", Arrive: sim.Second, Lifetime: sim.Second, Activity: 0.5},
		},
		Horizon: 10 * sim.Second,
	}
	fl, err = NewStream(cfg, ghost.Source())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fl.Run(10 * sim.Second); err == nil ||
		!strings.Contains(err.Error(), "unknown class") {
		t.Errorf("unknown class: %v", err)
	}
}

// peakSink tracks the live heap across a run: the Interval hook runs on
// the coordinator between barriers, so GC + ReadMemStats there samples
// the fleet's true working set.
type peakSink struct {
	peak uint64
}

func (p *peakSink) Interval(*Interval) error {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > p.peak {
		p.peak = ms.HeapAlloc
	}
	return nil
}
func (p *peakSink) Outcome(*VMOutcome) error { return nil }
func (p *peakSink) Finish(*Summary) error    { return nil }

// TestStreamedRunMemoryBounded is the satellite memory regression: a
// DiscardReport streaming run's peak heap must be machine-proportional,
// not arrival-proportional — growing arrivals 10x may not grow the peak
// past a fixed slack over the smaller run (the slack absorbs pool and
// GC noise; an O(arrivals) trace buffer would blow through it, as 10x
// events of this trace are tens of MB).
func TestStreamedRunMemoryBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("memory regression needs full GC cycles")
	}
	horizon := 1200 * sim.Second
	run := func(arrivals int) uint64 {
		src, err := GenerateStream(GenConfig{
			Seed:         11,
			Arrivals:     arrivals,
			Horizon:      horizon,
			MeanLifetime: 30 * sim.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		sink := &peakSink{}
		fl, err := NewStream(Config{
			Machines:      testMachines(40, 20),
			Policy:        NewFirstFit(),
			ReportEvery:   30 * sim.Second,
			DiscardReport: true,
			Sinks:         []Sink{sink},
		}, src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fl.Run(horizon); err != nil {
			t.Fatal(err)
		}
		return sink.peak
	}
	small := run(3000)
	large := run(30000)
	t.Logf("peak heap: 3k arrivals %.1f MB, 30k arrivals %.1f MB",
		float64(small)/(1<<20), float64(large)/(1<<20))
	const slack = 8 << 20
	if large > small+slack {
		t.Errorf("10x arrivals grew peak heap %.1f MB -> %.1f MB (> %.0f MB slack): trace residency is not streamed",
			float64(small)/(1<<20), float64(large)/(1<<20), float64(slack)/(1<<20))
	}
}
