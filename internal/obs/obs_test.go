package obs

import (
	"cmp"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pasched/internal/sim"
)

func TestKindAndStateNames(t *testing.T) {
	for k := KindVMState; k <= KindLatency; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Errorf("out-of-range kind: %q", Kind(200).String())
	}
	for s := StateNone; s <= StateIdle; s++ {
		if s.String() == "" || s.String() == "unknown" {
			t.Errorf("state %d has no name", s)
		}
	}
	if State(200).String() != "unknown" {
		t.Errorf("out-of-range state: %q", State(200).String())
	}
}

// windowCounter is a Collector that also records the size of every
// window it receives and the Finish time.
type windowCounter struct {
	Collector
	sizes []int
	end   sim.Time
}

func (c *windowCounter) Events(w []Event) error {
	c.sizes = append(c.sizes, len(w))
	return c.Collector.Events(w)
}

func (c *windowCounter) Finish(at sim.Time) error {
	c.end = at
	return nil
}

// TestRecorderMerge: events of lanes on different shards merge into one
// window sorted by (At, Lane, Seq), the lane buffers recycle between
// drains, and a Collector sink retains the concatenated stream.
func TestRecorderMerge(t *testing.T) {
	sink := &windowCounter{}
	r := NewRecorder(2, sink)

	m0 := NewMachineObs(r.Shard(0), 0)
	m1 := NewMachineObs(r.Shard(1), 1)
	co := NewMachineObs(r.CoordinatorShard(), LaneCoordinator)

	m1.Emit(5, KindRefill, "", 0, 0)
	m0.Emit(10, KindVMState, "a", int64(StateRun), 0)
	co.Emit(5, KindPlace, "a", 0, 0)
	m0.Emit(5, KindPState, "", 2667, 0)
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}

	want := []Event{
		{At: 5, Lane: LaneCoordinator, Seq: 1, Kind: KindPlace, VM: "a"},
		{At: 5, Lane: 0, Seq: 2, Kind: KindPState, A: 2667},
		{At: 5, Lane: 1, Seq: 1, Kind: KindRefill},
		{At: 10, Lane: 0, Seq: 1, Kind: KindVMState, VM: "a", A: int64(StateRun)},
	}
	if len(sink.sizes) != 1 || !reflect.DeepEqual(sink.Stream, want) {
		t.Fatalf("%d windows, merged stream:\n%+v\nwant\n%+v", len(sink.sizes), sink.Stream, want)
	}

	// Second window: lane buffers were recycled, sequence numbers
	// continue.
	m0.Emit(20, KindVMState, "a", int64(StateIdle), 0)
	if err := r.Finish(30); err != nil {
		t.Fatal(err)
	}
	if sink.end != 30 {
		t.Errorf("Finish time %v, want 30", sink.end)
	}
	if len(sink.sizes) != 2 {
		t.Fatalf("windows: %d, want 2", len(sink.sizes))
	}
	if r.Total() != 5 || len(sink.Stream) != 5 {
		t.Fatalf("Total() = %d, collected %d, want 5", r.Total(), len(sink.Stream))
	}
	if got := sink.Stream[4].Seq; got != 3 {
		t.Errorf("lane 0 sequence restarted: seq %d, want 3", got)
	}
	// The Collector copied the first window, so reusing the drain's
	// buffer for the second left it intact.
	want = append(want, Event{At: 20, Lane: 0, Seq: 3, Kind: KindVMState, VM: "a", A: int64(StateIdle)})
	if !reflect.DeepEqual(sink.Stream, want) {
		t.Errorf("collected stream:\n%+v\nwant\n%+v", sink.Stream, want)
	}

	// An empty drain is a no-op for the sink.
	if err := r.Drain(); err != nil {
		t.Fatal(err)
	}
	if len(sink.sizes) != 2 {
		t.Errorf("empty drain produced a window")
	}
}

// byKey orders events by the drain's (At, Lane, Seq) key: the oracle
// the lane merge must reproduce.
func byKey(a, b Event) int {
	return cmp.Or(cmp.Compare(a.At, b.At), cmp.Compare(a.Lane, b.Lane), cmp.Compare(a.Seq, b.Seq))
}

// FuzzRecorderDrain checks the lane-merge drain against a full sort of
// each window. The input picks the shard count, each lane's shard, and
// then a script of emits and drains: every emit byte picks a lane (the
// last one is the coordinator's) and moves that lane's clock by -3..+4,
// so lanes go back in time the way a host lane does when it emits a
// quantum's end-of-quantum exhaustion before the states stamped at the
// quantum's start. Windows may be empty or touch only some lanes.
func FuzzRecorderDrain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0xff, 0xff})
	f.Add([]byte{1, 2, 0, 1, 0x10, 0x21, 0x02, 0x13, 0xff, 0x04, 0x00, 0xff})
	f.Add([]byte("\x03\x05\x00\x01\x02\x03\x04lanes go back in time \xff and forward\xff\xff"))
	long := make([]byte, 4096)
	rng := sim.NewRNG(7)
	for i := range long {
		long[i] = byte(rng.Uint64())
	}
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		shards := 1 + int(next()%4)
		sink := &windowCounter{}
		r := NewRecorder(shards, sink)
		lanes := make([]*MachineObs, 1+next()%8)
		for i := range lanes {
			lanes[i] = NewMachineObs(r.Shard(int(next())%shards), int32(i))
		}
		lanes = append(lanes, NewMachineObs(r.CoordinatorShard(), LaneCoordinator))
		clock := make([]sim.Time, len(lanes))
		seq := make([]uint32, len(lanes))
		var pending, want []Event
		var sizes []int
		drain := func() {
			if err := r.Drain(); err != nil {
				t.Fatal(err)
			}
			if len(pending) > 0 {
				slices.SortFunc(pending, byKey)
				want = append(want, pending...)
				sizes = append(sizes, len(pending))
				pending = pending[:0]
			}
		}
		for len(data) > 0 {
			op := next()
			if op == 0xff {
				drain()
				continue
			}
			i := int(op) % len(lanes)
			clock[i] += sim.Time(op>>4%8) - 3
			seq[i]++
			lanes[i].Emit(clock[i], Kind(op%17), "vm", int64(op), int64(i))
			pending = append(pending, Event{At: clock[i], Lane: lanes[i].lane, Seq: seq[i], Kind: Kind(op % 17), VM: "vm", A: int64(op), B: int64(i)})
		}
		drain()
		if !slices.Equal(sink.sizes, sizes) || !reflect.DeepEqual(sink.Stream, want) {
			t.Fatalf("drained windows of sizes %v:\n%+v\nwant (sorted oracle) sizes %v:\n%+v", sink.sizes, sink.Stream, sizes, want)
		}
		if r.Total() != int64(len(want)) {
			t.Fatalf("Total() = %d, want %d", r.Total(), len(want))
		}
	})
}

// emitQuanta emits a host-like event mix into every lane: for each
// quantum, an exhaustion stamped at the quantum's end, then the VM
// states and the pattern stamped at its start — the host's emission
// order, which goes back in time once per quantum — and a refill every
// tenth quantum. It returns the number of events emitted.
func emitQuanta(lanes []*MachineObs, vms []string, t0 sim.Time, quanta int) int {
	const q = 1000
	n := 0
	for _, m := range lanes {
		for k := 0; k < quanta; k++ {
			at := t0 + sim.Time(k)*q
			m.Emit(at+q, KindExhausted, vms[k%len(vms)], 0, 0)
			for j, v := range vms {
				m.Emit(at, KindVMState, v, int64(StateRun+State((k+j)%5)), 0)
			}
			m.Emit(at, KindPattern, "", int64(k), int64(len(vms)))
			n += 2 + len(vms)
			if k%10 == 0 {
				m.Emit(at, KindRefill, "", 0, 0)
				n++
			}
		}
	}
	return n
}

// discard is a sink that drops every window.
type discard struct{}

func (discard) Events([]Event) error  { return nil }
func (discard) Finish(sim.Time) error { return nil }

// TestZeroAlloc: once warmed, draining a window and encoding one whose
// tracks already exist allocate nothing.
func TestZeroAlloc(t *testing.T) {
	t.Run("Recorder.Drain", func(t *testing.T) {
		r := NewRecorder(2, discard{})
		lanes := []*MachineObs{
			NewMachineObs(r.Shard(0), 0), NewMachineObs(r.Shard(1), 1),
			NewMachineObs(r.Shard(0), 2), NewMachineObs(r.CoordinatorShard(), LaneCoordinator),
		}
		vms := []string{"a", "b", "c"}
		round := func() {
			emitQuanta(lanes, vms, 0, 50)
			if err := r.Drain(); err != nil {
				t.Fatal(err)
			}
		}
		round()
		if n := testing.AllocsPerRun(20, round); n != 0 {
			t.Errorf("warmed Drain allocates %v times per window", n)
		}
	})
	t.Run("PerfettoWriter.Events", func(t *testing.T) {
		pw := NewPerfettoWriter(io.Discard)
		window := goldenWindows()[0]
		if err := pw.Events(window); err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(20, func() {
			if err := pw.Events(window); err != nil {
				t.Fatal(err)
			}
		})
		if n != 0 {
			t.Errorf("Events allocates %v times per window on existing tracks", n)
		}
	})
}

// BenchmarkRecorderDrain measures the lane merge on a host-like window
// (64 lanes over 2 shards, 3 VMs each, every lane going back in time
// once per quantum); emission is excluded from the timing.
func BenchmarkRecorderDrain(b *testing.B) {
	r := NewRecorder(2, discard{})
	lanes := make([]*MachineObs, 64)
	for i := range lanes {
		lanes[i] = NewMachineObs(r.Shard(i%2), int32(i))
	}
	vms := []string{"a", "b", "c"}
	emitQuanta(lanes, vms, 0, 100)
	if err := r.Drain(); err != nil {
		b.Fatal(err)
	}
	events := 0
	b.ResetTimer()
	for range b.N {
		b.StopTimer()
		events += emitQuanta(lanes, vms, 0, 100)
		b.StartTimer()
		if err := r.Drain(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkPerfettoEvents measures the Perfetto encoder on the merged
// window of BenchmarkRecorderDrain, with every track already created.
func BenchmarkPerfettoEvents(b *testing.B) {
	sink := &windowCounter{}
	r := NewRecorder(2, sink)
	lanes := make([]*MachineObs, 64)
	for i := range lanes {
		lanes[i] = NewMachineObs(r.Shard(i%2), int32(i))
	}
	emitQuanta(lanes, []string{"a", "b", "c"}, 0, 100)
	if err := r.Drain(); err != nil {
		b.Fatal(err)
	}
	window := sink.Stream
	pw := NewPerfettoWriter(io.Discard)
	if err := pw.Events(window); err != nil {
		b.Fatal(err)
	}
	events := 0
	for b.Loop() {
		if err := pw.Events(window); err != nil {
			b.Fatal(err)
		}
		events += len(window)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// TestLedgerConservation exercises the attribution buckets: every
// attributed microsecond lands in exactly one bucket, and the buckets
// sum to the Attach/Detach residency.
func TestLedgerConservation(t *testing.T) {
	var l VMLedger
	l.Attach(100)
	l.AddBusy(40, false)
	l.AddBusy(10, true)
	l.AddWait(20, l.WaitState(StateCapped))
	l.AddWait(15, l.WaitState(StateContended))
	l.AddWait(5, l.WaitState(StateIdle))
	l.Detach(190)
	if l.SpanUs != 90 {
		t.Errorf("SpanUs = %d, want 90", l.SpanUs)
	}
	if l.Sum() != l.SpanUs {
		t.Errorf("Sum() = %d != SpanUs %d", l.Sum(), l.SpanUs)
	}
	if l.RunUs != 40 || l.DownclockedUs != 10 || l.CappedUs != 20 || l.ContendedUs != 15 || l.IdleUs != 5 {
		t.Errorf("buckets: %+v", l)
	}

	// A second residency segment accumulates; the migrating flag diverts
	// every wait classification.
	l.Attach(200)
	l.Migrating = true
	l.AddWait(30, l.WaitState(StateContended))
	l.AddWait(20, l.WaitState(StateIdle))
	l.AddBusy(10, false)
	l.Detach(260)
	if l.MigratingUs != 50 {
		t.Errorf("MigratingUs = %d, want 50 (flag must override wait states)", l.MigratingUs)
	}
	if l.SpanUs != 150 || l.Sum() != l.SpanUs {
		t.Errorf("after second segment: Sum %d, SpanUs %d", l.Sum(), l.SpanUs)
	}
}

// TestPerfettoRoundTrip drives every event kind through the writer and
// checks the produced document passes the validator with the expected
// shape.
func TestPerfettoRoundTrip(t *testing.T) {
	var buf strings.Builder
	pw := NewPerfettoWriter(&buf)
	window := []Event{
		{At: 0, Lane: LaneCoordinator, Seq: 1, Kind: KindPowerOn, A: 0},
		{At: 0, Lane: LaneCoordinator, Seq: 2, Kind: KindPlace, VM: "vm-1", A: 0},
		{At: 0, Lane: LaneCoordinator, Seq: 3, Kind: KindReject, VM: "vm-2"},
		{At: 10, Lane: 0, Seq: 1, Kind: KindVMState, VM: "vm-1", A: int64(StateRun)},
		{At: 30, Lane: 0, Seq: 2, Kind: KindPState, A: 1600},
		{At: 30, Lane: 0, Seq: 3, Kind: KindVMState, VM: "vm-1", A: int64(StateDownclocked)},
		{At: 40, Lane: 0, Seq: 4, Kind: KindRefill},
		{At: 45, Lane: 0, Seq: 5, Kind: KindExhausted, VM: "vm-1"},
		{At: 45, Lane: 0, Seq: 6, Kind: KindVMState, VM: "vm-1", A: int64(StateCapped)},
		{At: 50, Lane: 0, Seq: 7, Kind: KindPattern, A: 12, B: 2},
		{At: 60, Lane: LaneCoordinator, Seq: 4, Kind: KindMigStart, VM: "vm-1", A: 0, B: 1},
		{At: 60, Lane: 0, Seq: 8, Kind: KindVMState, VM: "vm-1", A: int64(StateMigrating)},
		{At: 80, Lane: LaneCoordinator, Seq: 5, Kind: KindMigDone, VM: "vm-1", A: 1},
		{At: 90, Lane: 1, Seq: 1, Kind: KindVMState, VM: "vm-1", A: int64(StateContended)},
		{At: 100, Lane: 0, Seq: 9, Kind: KindBoundary, VM: "event", A: 7},
		{At: 100, Lane: 1, Seq: 2, Kind: KindQueueDepth, VM: "vm-1", A: 3, B: 17},
		{At: 100, Lane: LaneCoordinator, Seq: 6, Kind: KindLatency, A: 1500, B: 9000},
		{At: 100, Lane: LaneCoordinator, Seq: 7, Kind: KindPowerOff, A: 0},
		{At: 100, Lane: LaneCoordinator, Seq: 8, Kind: KindBarrier, A: 1},
	}
	if err := pw.Events(window); err != nil {
		t.Fatal(err)
	}
	if err := pw.Finish(120); err != nil {
		t.Fatal(err)
	}

	st, err := ValidatePerfetto(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("validator rejected the writer's output: %v\n%s", err, buf.String())
	}
	// vm-1 on machine 0: run[10,30) downclocked[30,45) capped[45,60)
	// migrating[60,...Finish closes at 120]; on machine 1:
	// contended[90,...closed at 120]. 5 slices total.
	if st.Slices != 5 {
		t.Errorf("slices = %d, want 5\n%s", st.Slices, buf.String())
	}
	// pstate, batch:event, queue:vm-1, p50, p99.
	if st.Counters != 5 {
		t.Errorf("counters = %d, want 5", st.Counters)
	}
	// power-on, place, reject, refill, exhausted, pattern, mig-start,
	// mig-done, power-off, barrier.
	if st.Instants != 10 {
		t.Errorf("instants = %d, want 10", st.Instants)
	}
	if st.EndUs != 120 {
		t.Errorf("EndUs = %d, want 120", st.EndUs)
	}
	// Two VM tracks (vm-1 on machine 0 and on machine 1).
	if st.Tracks != 2 {
		t.Errorf("slice tracks = %d, want 2", st.Tracks)
	}
}

func TestValidatePerfettoRejects(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"invalid json", `{"traceEvents":[`, "invalid JSON"},
		{"unknown phase", `{"traceEvents":[{"ph":"B","name":"x","ts":1,"pid":1,"tid":1}]}`, "unknown phase"},
		{"missing ts", `{"traceEvents":[{"ph":"i","name":"x","pid":1,"tid":1}]}`, "missing ts"},
		{"negative ts", `{"traceEvents":[{"ph":"i","name":"x","ts":-5,"pid":1,"tid":1}]}`, "negative ts"},
		{"missing dur", `{"traceEvents":[{"ph":"X","name":"x","ts":1,"pid":1,"tid":1}]}`, "negative dur"},
		{"overlapping slices", `{"traceEvents":[
			{"ph":"X","name":"a","ts":0,"dur":10,"pid":1,"tid":1},
			{"ph":"X","name":"b","ts":5,"dur":10,"pid":1,"tid":1}]}`, "overlaps"},
		{"counter regression", `{"traceEvents":[
			{"ph":"C","name":"c","ts":10,"pid":1,"tid":0},
			{"ph":"C","name":"c","ts":5,"pid":1,"tid":0}]}`, "before previous sample"},
	}
	for _, tc := range cases {
		if _, err := ValidatePerfetto(strings.NewReader(tc.doc)); err == nil ||
			!strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
	// Slices on different tracks may interleave freely.
	ok := `{"traceEvents":[
		{"ph":"X","name":"a","ts":0,"dur":10,"pid":1,"tid":1},
		{"ph":"X","name":"b","ts":5,"dur":10,"pid":1,"tid":2},
		{"ph":"X","name":"c","ts":10,"dur":0,"pid":1,"tid":1}]}`
	if _, err := ValidatePerfetto(strings.NewReader(ok)); err != nil {
		t.Errorf("disjoint tracks rejected: %v", err)
	}
}
