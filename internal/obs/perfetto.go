package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"pasched/internal/sim"
)

// PerfettoWriter streams the recorder's merged event windows as a
// Chrome trace-event JSON file (the legacy JSON format Perfetto and
// chrome://tracing both load). The layout:
//
//   - one process per lane: pid 0 is the coordinator, pid i+1 is
//     machine i (named by process_name metadata);
//   - tid 0 of each machine process is the machine track, carrying
//     refill/pattern instants and the pstate_mhz / batching counters;
//   - each VM seen on a machine gets its own thread (named by
//     thread_name metadata) whose complete ("X") slices tile the VM's
//     residency with its attribution states — run, downclocked,
//     capped, contended, migrating — with idle left as gaps;
//   - coordinator instants record placement, rejection, migration and
//     power decisions, and per-interval latency counters.
//
// Timestamps are the simulation's integer microseconds, which is
// exactly the trace-event "ts" unit, so no conversion happens.
//
// The writer consumes windows in barrier order. Within a lane, event
// times never decrease, so every track's slices and counter samples
// are emitted with monotonically non-decreasing timestamps
// (cmd/tracecheck validates exactly that).
type PerfettoWriter struct {
	w       *bufio.Writer
	err     error
	wrote   bool
	tracks  map[trackKey]*vmTrack
	order   []*vmTrack // tracks in creation order, for a deterministic Finish
	nextTid map[int32]int64
	procs   map[int32]bool
}

type trackKey struct {
	lane int32
	vm   string
}

// vmTrack is one VM's thread within a machine process.
type vmTrack struct {
	lane      int32
	tid       int64
	nameJSON  []byte // JSON-escaped VM name
	queueJSON []byte // JSON-escaped "queue:<vm>" counter name, lazily built
	openAt    sim.Time
	openState State
}

// NewPerfettoWriter returns a writer streaming trace-event JSON to w.
// Call Finish (via the recorder) to close open slices and the JSON
// document; the caller owns closing the underlying writer.
func NewPerfettoWriter(w io.Writer) *PerfettoWriter {
	pw := &PerfettoWriter{
		w:       bufio.NewWriterSize(w, 1<<16),
		tracks:  make(map[trackKey]*vmTrack),
		nextTid: make(map[int32]int64),
		procs:   make(map[int32]bool),
	}
	pw.raw(`{"displayTimeUnit":"ms","traceEvents":[`)
	return pw
}

func (p *PerfettoWriter) raw(s string) {
	if p.err == nil {
		_, p.err = p.w.WriteString(s)
	}
}

func (p *PerfettoWriter) emitf(format string, args ...any) {
	if p.err != nil {
		return
	}
	if p.wrote {
		p.raw(",\n")
	}
	p.wrote = true
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// pid maps a lane to its trace process id (the coordinator's lane -1
// becomes pid 0).
func pid(lane int32) int64 { return int64(lane) + 1 }

// process emits the process_name metadata for a lane once.
func (p *PerfettoWriter) process(lane int32) {
	if p.procs[lane] {
		return
	}
	p.procs[lane] = true
	name := "coordinator"
	if lane >= 0 {
		name = fmt.Sprintf("machine-%d", lane)
	}
	p.emitf(`{"ph":"M","name":"process_name","pid":%d,"tid":0,"args":{"name":%q}}`, pid(lane), name)
}

// track returns the VM's thread on lane, creating it (and its metadata
// events) on first sight.
func (p *PerfettoWriter) track(lane int32, vmName string) *vmTrack {
	k := trackKey{lane: lane, vm: vmName}
	if t, ok := p.tracks[k]; ok {
		return t
	}
	p.process(lane)
	p.nextTid[lane]++
	t := &vmTrack{lane: lane, tid: p.nextTid[lane]}
	t.nameJSON, _ = json.Marshal(vmName)
	p.tracks[k] = t
	p.order = append(p.order, t)
	p.emitf(`{"ph":"M","name":"thread_name","pid":%d,"tid":%d,"args":{"name":%s}}`,
		pid(lane), t.tid, t.nameJSON)
	return t
}

// closeSlice emits the open state slice of t (if any) as a complete
// event ending at time at. Idle spans are gaps: no slice is emitted.
func (p *PerfettoWriter) closeSlice(t *vmTrack, at sim.Time) {
	st := t.openState
	t.openState = StateNone
	if st == StateNone || st == StateIdle {
		return
	}
	p.emitf(`{"ph":"X","name":%q,"cat":"vm","pid":%d,"tid":%d,"ts":%d,"dur":%d}`,
		st.String(), pid(t.lane), t.tid, int64(t.openAt), int64(at-t.openAt))
}

// counter emits one counter sample; name must be pre-escaped JSON.
func (p *PerfettoWriter) counter(lane int32, nameJSON []byte, at sim.Time, v int64) {
	p.process(lane)
	p.emitf(`{"ph":"C","name":%s,"pid":%d,"tid":0,"ts":%d,"args":{"value":%d}}`,
		nameJSON, pid(lane), int64(at), v)
}

// instant emits one instant event on (lane, tid).
func (p *PerfettoWriter) instant(lane int32, tid int64, name string, at sim.Time, args string) {
	p.process(lane)
	if args == "" {
		p.emitf(`{"ph":"i","s":"t","name":%q,"pid":%d,"tid":%d,"ts":%d}`,
			name, pid(lane), tid, int64(at))
		return
	}
	p.emitf(`{"ph":"i","s":"t","name":%q,"pid":%d,"tid":%d,"ts":%d,"args":{%s}}`,
		name, pid(lane), tid, int64(at), args)
}

// boundaryNames are the pre-escaped counter names for KindBoundary
// sources, keyed by the shared source-name strings.
var boundaryNames = func() map[string][]byte {
	m := make(map[string][]byte, len(BoundarySourceNames))
	for _, s := range BoundarySourceNames {
		b, _ := json.Marshal("batch:" + s)
		m[s] = b
	}
	return m
}()

var (
	pstateName = []byte(`"pstate_mhz"`)
	p50Name    = []byte(`"req_p50_us"`)
	p99Name    = []byte(`"req_p99_us"`)
)

// Events implements EventSink.
func (p *PerfettoWriter) Events(window []Event) error {
	for i := range window {
		e := &window[i]
		switch e.Kind {
		case KindVMState:
			t := p.track(e.Lane, e.VM)
			p.closeSlice(t, e.At)
			t.openAt = e.At
			t.openState = State(e.A)
		case KindPState:
			p.counter(e.Lane, pstateName, e.At, e.A)
		case KindRefill:
			p.instant(e.Lane, 0, "refill", e.At, "")
		case KindExhausted:
			t := p.track(e.Lane, e.VM)
			p.instant(e.Lane, t.tid, "exhausted", e.At, "")
		case KindPattern:
			p.instant(e.Lane, 0, "pattern", e.At, fmt.Sprintf(`"quanta":%d,"vms":%d`, e.A, e.B))
		case KindBoundary:
			if name, ok := boundaryNames[e.VM]; ok {
				p.counter(e.Lane, name, e.At, e.A)
			}
		case KindQueueDepth:
			t := p.track(e.Lane, e.VM)
			if t.queueJSON == nil {
				t.queueJSON, _ = json.Marshal("queue:" + e.VM)
			}
			p.counter(e.Lane, t.queueJSON, e.At, e.A)
		case KindPlace:
			p.instant(e.Lane, 0, "place", e.At, fmt.Sprintf(`"vm":%s,"machine":%d`, mustJSON(e.VM), e.A))
		case KindReject:
			p.instant(e.Lane, 0, "reject", e.At, fmt.Sprintf(`"vm":%s`, mustJSON(e.VM)))
		case KindMigStart:
			p.instant(e.Lane, 0, "mig-start", e.At, fmt.Sprintf(`"vm":%s,"from":%d,"to":%d`, mustJSON(e.VM), e.A, e.B))
		case KindMigDone:
			p.instant(e.Lane, 0, "mig-done", e.At, fmt.Sprintf(`"vm":%s,"to":%d`, mustJSON(e.VM), e.A))
		case KindPowerOn:
			p.instant(e.Lane, 0, "power-on", e.At, fmt.Sprintf(`"machine":%d`, e.A))
		case KindPowerOff:
			p.instant(e.Lane, 0, "power-off", e.At, fmt.Sprintf(`"machine":%d`, e.A))
		case KindBarrier:
			p.instant(e.Lane, 0, "barrier", e.At, fmt.Sprintf(`"live_vms":%d`, e.A))
		case KindLatency:
			p.counter(e.Lane, p50Name, e.At, e.A)
			p.counter(e.Lane, p99Name, e.At, e.B)
		case KindRecompensate:
			p.instant(e.Lane, 0, "recompensate", e.At, fmt.Sprintf(`"mhz":%d,"vms":%d`, e.A, e.B))
		case KindAutoscale:
			p.instant(e.Lane, 0, "autoscale", e.At, fmt.Sprintf(`"vm":%s,"action":%d,"value":%d`, mustJSON(e.VM), e.A, e.B))
		}
	}
	return p.err
}

// Finish implements EventSink: it closes every open slice at the run's
// end time, in track-creation order so identical runs export identical
// bytes, and terminates the JSON document.
func (p *PerfettoWriter) Finish(at sim.Time) error {
	for _, t := range p.order {
		if t.openState != StateNone && at > t.openAt {
			p.closeSlice(t, at)
		}
	}
	p.raw("\n]}\n")
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

// mustJSON escapes s as a JSON string.
func mustJSON(s string) []byte {
	b, _ := json.Marshal(s)
	return b
}

// TraceStats summarizes a validated trace file.
type TraceStats struct {
	Events   int
	Slices   int
	Counters int
	Instants int
	Tracks   int
	EndUs    int64
}

// ValidatePerfetto parses a trace-event JSON document and checks
// well-formedness: known phases, non-negative timestamps and durations,
// monotonically non-decreasing and non-overlapping slices per
// (pid, tid) track, and non-decreasing counter samples per (pid, name)
// series. cmd/tracecheck and the CLI tests share it.
func ValidatePerfetto(r io.Reader) (TraceStats, error) {
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			Ts   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  int64    `json:"pid"`
			Tid  int64    `json:"tid"`
		} `json:"traceEvents"`
	}
	var st TraceStats
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return st, fmt.Errorf("trace: invalid JSON: %w", err)
	}
	type track struct{ pid, tid int64 }
	type series struct {
		pid  int64
		name string
	}
	sliceEnd := make(map[track]float64)
	lastCount := make(map[series]float64)
	tracks := make(map[track]bool)
	for i, e := range doc.TraceEvents {
		st.Events++
		switch e.Ph {
		case "M":
			continue
		case "X", "C", "i":
		default:
			return st, fmt.Errorf("trace: event %d: unknown phase %q", i, e.Ph)
		}
		if e.Ts == nil {
			return st, fmt.Errorf("trace: event %d (%s %q): missing ts", i, e.Ph, e.Name)
		}
		if *e.Ts < 0 {
			return st, fmt.Errorf("trace: event %d (%s %q): negative ts %v", i, e.Ph, e.Name, *e.Ts)
		}
		if end := int64(*e.Ts); end > st.EndUs {
			st.EndUs = end
		}
		switch e.Ph {
		case "X":
			st.Slices++
			if e.Dur == nil || *e.Dur < 0 {
				return st, fmt.Errorf("trace: event %d (X %q): missing or negative dur", i, e.Name)
			}
			tk := track{e.Pid, e.Tid}
			tracks[tk] = true
			if prev, ok := sliceEnd[tk]; ok && *e.Ts < prev {
				return st, fmt.Errorf("trace: event %d (X %q): ts %v overlaps previous slice ending %v on pid %d tid %d",
					i, e.Name, *e.Ts, prev, e.Pid, e.Tid)
			}
			sliceEnd[tk] = *e.Ts + *e.Dur
			if end := int64(*e.Ts + *e.Dur); end > st.EndUs {
				st.EndUs = end
			}
		case "C":
			st.Counters++
			sr := series{e.Pid, e.Name}
			if prev, ok := lastCount[sr]; ok && *e.Ts < prev {
				return st, fmt.Errorf("trace: event %d (C %q): ts %v before previous sample %v on pid %d",
					i, e.Name, *e.Ts, prev, e.Pid)
			}
			lastCount[sr] = *e.Ts
		case "i":
			st.Instants++
		}
	}
	st.Tracks = len(tracks)
	return st, nil
}
