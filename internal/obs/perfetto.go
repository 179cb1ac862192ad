package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"unicode/utf8"

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
	w     *bufio.Writer
	rec   []byte // the record being encoded; its backing array is reused
	err   error
	wrote bool
	procs []proc     // indexed by pid
	order []*vmTrack // tracks in creation order, for a deterministic Finish
}

// vmTrack is one VM's thread within a machine process.
type vmTrack struct {
	lane      int32
	tid       int64
	nameJSON  []byte // JSON-escaped VM name
	openAt    sim.Time
	openState State
}

// proc is one lane's trace process.
type proc struct {
	named  bool                // process_name metadata written
	tracks map[string]*vmTrack // the lane's VM threads, by VM name
}

// NewPerfettoWriter returns a writer streaming trace-event JSON to w.
// Call Finish (via the recorder) to close open slices and the JSON
// document; the caller owns closing the underlying writer.
func NewPerfettoWriter(w io.Writer) *PerfettoWriter {
	pw := &PerfettoWriter{w: bufio.NewWriterSize(w, 1<<16)}
	_, pw.err = pw.w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return pw
}

// record returns the emptied record buffer with the next record's
// separator appended. The caller appends the record with the
// strconv/append encoders and hands the buffer to put, so encoding
// allocates nothing once the buffer has grown to the longest record.
func (p *PerfettoWriter) record() []byte {
	b := p.rec[:0]
	if p.wrote {
		b = append(b, ",\n"...)
	}
	p.wrote = true
	return b
}

// put writes the record built from record and keeps its buffer for the
// next one.
func (p *PerfettoWriter) put(b []byte) {
	p.rec = b
	if p.err == nil {
		_, p.err = p.w.Write(b)
	}
}

// pid maps a lane to its trace process id (the coordinator's lane -1
// becomes pid 0).
func pid(lane int32) int64 { return int64(lane) + 1 }

// appendWhere appends the `"pid":…,"tid":…,"ts":…` fields every timed
// record carries.
func appendWhere(b []byte, lane int32, tid int64, at sim.Time) []byte {
	b = append(b, `"pid":`...)
	b = strconv.AppendInt(b, pid(lane), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, tid, 10)
	b = append(b, `,"ts":`...)
	return strconv.AppendInt(b, int64(at), 10)
}

// process returns lane's process, emitting its process_name metadata on
// first sight.
func (p *PerfettoWriter) process(lane int32) *proc {
	id := pid(lane)
	if n := int(id) + 1 - len(p.procs); n > 0 {
		p.procs = append(p.procs, make([]proc, n)...)
	}
	pr := &p.procs[id]
	if pr.named {
		return pr
	}
	pr.named = true
	b := p.record()
	b = append(b, `{"ph":"M","name":"process_name","pid":`...)
	b = strconv.AppendInt(b, id, 10)
	if lane < 0 {
		b = append(b, `,"tid":0,"args":{"name":"coordinator"}}`...)
	} else {
		b = append(b, `,"tid":0,"args":{"name":"machine-`...)
		b = strconv.AppendInt(b, int64(lane), 10)
		b = append(b, `"}}`...)
	}
	p.put(b)
	return pr
}

// track returns the VM's thread on lane, creating it (and its metadata
// events) on first sight.
func (p *PerfettoWriter) track(lane int32, vmName string) *vmTrack {
	pr := p.process(lane)
	if t, ok := pr.tracks[vmName]; ok {
		return t
	}
	if pr.tracks == nil {
		pr.tracks = make(map[string]*vmTrack)
	}
	t := &vmTrack{lane: lane, tid: int64(len(pr.tracks)) + 1, nameJSON: appendJSONString(nil, vmName)}
	pr.tracks[vmName] = t
	p.order = append(p.order, t)
	b := p.record()
	b = append(b, `{"ph":"M","name":"thread_name","pid":`...)
	b = strconv.AppendInt(b, pid(lane), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, t.tid, 10)
	b = append(b, `,"args":{"name":`...)
	b = append(b, t.nameJSON...)
	p.put(append(b, "}}"...))
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
	b := p.record()
	b = append(b, `{"ph":"X","name":"`...)
	b = append(b, st.String()...)
	b = append(b, `","cat":"vm",`...)
	b = appendWhere(b, t.lane, t.tid, t.openAt)
	b = append(b, `,"dur":`...)
	b = strconv.AppendInt(b, int64(at-t.openAt), 10)
	p.put(append(b, '}'))
}

// counter emits one counter sample named by the JSON string whose
// escaped form is prefix followed by rest.
func (p *PerfettoWriter) counter(lane int32, prefix string, rest []byte, at sim.Time, v int64) {
	p.process(lane)
	b := p.record()
	b = append(b, `{"ph":"C","name":`...)
	b = append(b, prefix...)
	b = append(b, rest...)
	b = append(b, ',')
	b = appendWhere(b, lane, 0, at)
	b = append(b, `,"args":{"value":`...)
	b = strconv.AppendInt(b, v, 10)
	p.put(append(b, "}}"...))
}

// instantKind describes how one instant Kind exports: its pre-encoded
// record head, whether its args open with the escaped VM name, and the
// pre-encoded keys of A and B ("" when the field is not exported).
type instantKind struct {
	head       string
	vm         bool
	keyA, keyB string
}

func instantHead(name string) string { return `{"ph":"i","s":"t","name":"` + name + `",` }

// instants maps every instant Kind to its export layout; the other
// kinds have a zero entry.
var instants = [...]instantKind{
	KindRefill:       {head: instantHead("refill")},
	KindExhausted:    {head: instantHead("exhausted")},
	KindPattern:      {head: instantHead("pattern"), keyA: `"quanta":`, keyB: `,"vms":`},
	KindPlace:        {head: instantHead("place"), vm: true, keyA: `,"machine":`},
	KindReject:       {head: instantHead("reject"), vm: true},
	KindMigStart:     {head: instantHead("mig-start"), vm: true, keyA: `,"from":`, keyB: `,"to":`},
	KindMigDone:      {head: instantHead("mig-done"), vm: true, keyA: `,"to":`},
	KindPowerOn:      {head: instantHead("power-on"), keyA: `"machine":`},
	KindPowerOff:     {head: instantHead("power-off"), keyA: `"machine":`},
	KindBarrier:      {head: instantHead("barrier"), keyA: `"live_vms":`},
	KindRecompensate: {head: instantHead("recompensate"), keyA: `"mhz":`, keyB: `,"vms":`},
	KindAutoscale:    {head: instantHead("autoscale"), vm: true, keyA: `,"action":`, keyB: `,"value":`},
}

// instant emits e as an instant event on e's lane, thread tid.
func (p *PerfettoWriter) instant(e *Event, tid int64, ik *instantKind) {
	p.process(e.Lane)
	b := p.record()
	b = append(b, ik.head...)
	b = appendWhere(b, e.Lane, tid, e.At)
	if !ik.vm && ik.keyA == "" {
		p.put(append(b, '}'))
		return
	}
	b = append(b, `,"args":{`...)
	if ik.vm {
		b = append(b, `"vm":`...)
		b = appendJSONString(b, e.VM)
	}
	if ik.keyA != "" {
		b = append(b, ik.keyA...)
		b = strconv.AppendInt(b, e.A, 10)
	}
	if ik.keyB != "" {
		b = append(b, ik.keyB...)
		b = strconv.AppendInt(b, e.B, 10)
	}
	p.put(append(b, "}}"...))
}

// boundaryNames are the pre-escaped counter names of the KindBoundary
// sources, parallel to BoundarySourceNames.
var boundaryNames = func() (names [len(BoundarySourceNames)][]byte) {
	for i, s := range BoundarySourceNames {
		names[i] = appendJSONString(nil, "batch:"+s)
	}
	return names
}()

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
			p.counter(e.Lane, `"pstate_mhz"`, nil, e.At, e.A)
		case KindExhausted:
			p.instant(e, p.track(e.Lane, e.VM).tid, &instants[KindExhausted])
		case KindBoundary:
			for j, s := range BoundarySourceNames {
				if e.VM == s {
					p.counter(e.Lane, "", boundaryNames[j], e.At, e.A)
					break
				}
			}
		case KindQueueDepth:
			t := p.track(e.Lane, e.VM)
			p.counter(e.Lane, `"queue:`, t.nameJSON[1:], e.At, e.A)
		case KindLatency:
			p.counter(e.Lane, `"req_p50_us"`, nil, e.At, e.A)
			p.counter(e.Lane, `"req_p99_us"`, nil, e.At, e.B)
		default:
			if int(e.Kind) < len(instants) && instants[e.Kind].head != "" {
				p.instant(e, 0, &instants[e.Kind])
			}
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
	if p.err == nil {
		_, p.err = p.w.WriteString("\n]}\n")
	}
	if p.err != nil {
		return p.err
	}
	return p.w.Flush()
}

// appendJSONString appends s as a JSON string exactly as encoding/json
// marshals it: HTML-safe (<, > and & escaped), control bytes escaped,
// invalid UTF-8 replaced by U+FFFD, and U+2028/U+2029 escaped.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
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
