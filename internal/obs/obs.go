// Package obs is the fleet's flight recorder: a low-overhead, opt-in
// event stream capturing simulated-time spans and decision events across
// every layer — scheduler credit refills and exhaustions, host pattern
// commits and P-state transitions, batching boundary sources, fleet
// placement/migration/power events, and serving queue-depth/latency
// samples — plus an exact integer-microsecond throttle-attribution
// ledger per VM.
//
// Determinism contract: every event is keyed by (At, Lane, Seq), where
// Lane identifies the emitting track — the fleet-global machine index,
// or LaneCoordinator for the control plane — and Seq is a per-lane
// sequence number. A machine's command stream (and therefore its host's
// stepping) is identical for any shard × worker count, so each lane's
// event sequence is sharding-invariant; ordering a drained window by
// (At, Lane, Seq) yields a merged stream that is DeepEqual-bit-exact
// across shardings.
//
// Lane buffers and the merge: each lane (MachineObs) appends to its own
// buffer, and on its first emit of a window registers with its shard's
// dirty-lane list (one writer at a time, like every other per-shard
// accumulator). At a reporting barrier the coordinator drains only the
// dirty lanes: it puts each lane in time order and heap-merges the
// lanes by (At, Lane), so a barrier costs O(n log active lanes), not
// O(machines). Buffers are reused across windows.
//
// A lane's emission order is its Seq order, but not always its time
// order: a host emits a VM's budget exhaustion from inside the
// scheduler's charge at the end of a quantum, before the state and
// pattern events of that same quantum, which carry the quantum's start
// time. Those few inversions per lane are why the drain re-orders each
// lane by time (an insertion pass costing O(events + inversions))
// before merging. The emission order itself is kept, so Seq still
// numbers a lane's events in the order the host emitted them.
//
// When disabled, nothing in this package runs: the host and fleet guard
// every emission behind a single nil pointer check, so the disabled hot
// path costs zero allocations and no measurable time (benchmark-gated).
package obs

import (
	"slices"

	"pasched/internal/sim"
)

// LaneCoordinator is the Lane value of control-plane events (placement,
// migration planning, power management, barriers). Machine events use
// the fleet-global machine index as their lane.
const LaneCoordinator int32 = -1

// Kind classifies one event.
type Kind uint8

const (
	// KindVMState marks a VM's attribution state change; A is the new
	// State. The Perfetto exporter turns consecutive state events into
	// per-VM slices.
	KindVMState Kind = iota
	// KindPState marks a completed processor P-state transition; A is
	// the new frequency in MHz.
	KindPState
	// KindRefill marks a scheduler accounting boundary (credit refill).
	KindRefill
	// KindExhausted marks a VM's budget crossing zero under a hard cap;
	// VM names the VM.
	KindExhausted
	// KindPattern marks a committed certified pattern step; A is the
	// total quanta folded, B the number of distinct VMs picked.
	KindPattern
	// KindBoundary reports one engine boundary-source counter delta at a
	// reporting barrier; VM holds the source name ("target", "event",
	// "action", "machine-shortened", "machine-declined"), A the delta.
	KindBoundary
	// KindQueueDepth samples a serving VM's request queue at a reporting
	// barrier; VM names the VM, A is the queue depth, B the cumulative
	// completed requests.
	KindQueueDepth
	// KindPlace records a placement decision; VM names the VM, A the
	// chosen machine.
	KindPlace
	// KindReject records a rejected arrival (no machine fit); VM names
	// the VM.
	KindReject
	// KindMigStart records a planned migration; VM names the VM, A the
	// source machine, B the destination.
	KindMigStart
	// KindMigDone records a completed migration; VM names the VM, A the
	// destination machine.
	KindMigDone
	// KindPowerOn records a machine power-on; A is the machine index.
	KindPowerOn
	// KindPowerOff records a machine power-off; A is the machine index.
	KindPowerOff
	// KindBarrier records a reporting barrier; A is the live VM count.
	KindBarrier
	// KindLatency samples the fleet-wide interval reply latency at a
	// reporting barrier; A is p50 in microseconds, B is p99.
	KindLatency
	// KindRecompensate records a frequency-change credit recompensation
	// (Listing 1.2): A is the new frequency in MHz, B is the number of
	// VMs whose caps were rewritten.
	KindRecompensate
	// KindAutoscale records an autoscaler resize decision on the
	// coordinator lane; A encodes the action kind, B its argument
	// (new cap percentage, overhead permille, or replica ordinal).
	KindAutoscale
)

// kindNames maps Kind to a stable display name.
var kindNames = [...]string{
	KindVMState:      "vmstate",
	KindPState:       "pstate",
	KindRefill:       "refill",
	KindExhausted:    "exhausted",
	KindPattern:      "pattern",
	KindBoundary:     "boundary",
	KindQueueDepth:   "queue",
	KindPlace:        "place",
	KindReject:       "reject",
	KindMigStart:     "mig-start",
	KindMigDone:      "mig-done",
	KindPowerOn:      "power-on",
	KindPowerOff:     "power-off",
	KindBarrier:      "barrier",
	KindLatency:      "latency",
	KindRecompensate: "recompensate",
	KindAutoscale:    "autoscale",
}

// String returns the kind's stable display name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// State is a VM's momentary attribution state, mirroring the ledger
// buckets (see VMLedger).
type State uint8

const (
	// StateNone is the zero value: no state recorded yet.
	StateNone State = iota
	// StateRun: executing at the processor's maximum frequency.
	StateRun
	// StateDownclocked: executing at a reduced frequency.
	StateDownclocked
	// StateCapped: runnable but barred by its own exhausted allocation
	// (credit cap, expired SEDF slice) — the throttled state.
	StateCapped
	// StateContended: runnable, entitled to run, but another VM holds
	// the processor.
	StateContended
	// StateMigrating: waiting while a live migration of the VM is in
	// flight.
	StateMigrating
	// StateIdle: not runnable (no pending work).
	StateIdle
)

// stateNames maps State to a stable display name.
var stateNames = [...]string{
	StateNone:        "none",
	StateRun:         "run",
	StateDownclocked: "downclocked",
	StateCapped:      "capped",
	StateContended:   "contended",
	StateMigrating:   "migrating",
	StateIdle:        "idle",
}

// String returns the state's stable display name.
func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return "unknown"
}

// Event is one recorded decision or state change. (At, Lane, Seq) is a
// sharding-invariant sort key; Kind determines how VM, A and B are
// interpreted (see the Kind constants).
type Event struct {
	At   sim.Time
	Lane int32
	Seq  uint32
	Kind Kind
	VM   string
	A, B int64
}

// Shard is one shard's dirty-lane list: the lanes that emitted since
// the last drain, in first-emit order. Exactly one worker emits into a
// shard's lanes at a time (the same single-writer discipline as the
// shard's interval accumulators), so the list needs no lock; the
// coordinator drains it at barriers.
type Shard struct {
	dirty []*MachineObs
}

// MachineObs is one lane's emitting handle: it owns the lane's sequence
// counter and its event buffer, and registers with its shard's dirty
// list on the first emit of a window. A machine keeps its MachineObs
// across power cycles so sequence numbers never restart within a run,
// and the buffer's backing array is reused across windows.
type MachineObs struct {
	shard *Shard
	lane  int32
	seq   uint32
	ev    []Event // this window's events, in emission (Seq) order
}

// NewMachineObs returns an emitting handle for the given lane that
// registers with shard.
func NewMachineObs(shard *Shard, lane int32) *MachineObs {
	return &MachineObs{shard: shard, lane: lane}
}

// Emit appends one event at simulated time at. The VM string must be a
// stable name (shared, not built per call) so emission does not
// allocate beyond buffer growth.
func (m *MachineObs) Emit(at sim.Time, k Kind, vmName string, a, b int64) {
	m.seq++
	if len(m.ev) == 0 {
		m.shard.dirty = append(m.shard.dirty, m)
	}
	m.ev = append(m.ev, Event{At: at, Lane: m.lane, Seq: m.seq, Kind: k, VM: vmName, A: a, B: b})
}

// EventSink consumes merged event windows. Events is called once per
// reporting barrier with the window sorted by (At, Lane, Seq); the
// slice is only valid during the call (the recorder reuses the backing
// array). Finish is called once after the final window, with the run's
// end time.
type EventSink interface {
	Events(window []Event) error
	Finish(at sim.Time) error
}

// Collector is an EventSink that retains a copy of every merged window:
// the run's whole event stream in memory, for tests and small runs.
type Collector struct {
	// Stream holds every event received, in merged (At, Lane, Seq)
	// order across windows.
	Stream []Event
}

// Events implements EventSink.
func (c *Collector) Events(window []Event) error {
	c.Stream = append(c.Stream, window...)
	return nil
}

// Finish implements EventSink.
func (c *Collector) Finish(sim.Time) error { return nil }

// Recorder owns the per-shard dirty-lane lists and the coordinator's,
// merges the dirty lanes into deterministic windows at barriers, and
// feeds the optional sink.
type Recorder struct {
	shards  []*Shard // per shard, then the coordinator's last
	sink    EventSink
	heap    []laneHead
	scratch []Event
	total   int64
}

// laneHead is one dirty lane in the drain's merge heap: the lane's
// next undrained event and its time.
type laneHead struct {
	at   sim.Time
	lane int32
	pos  int
	m    *MachineObs
}

// NewRecorder builds a recorder for the given shard count. sink, when
// non-nil, receives every merged window.
func NewRecorder(shards int, sink EventSink) *Recorder {
	ss := make([]*Shard, shards+1)
	for i := range ss {
		ss[i] = &Shard{}
	}
	return &Recorder{shards: ss, sink: sink}
}

// Shard returns shard i's dirty-lane list.
func (r *Recorder) Shard(i int) *Shard { return r.shards[i] }

// CoordinatorShard returns the control plane's dirty-lane list.
func (r *Recorder) CoordinatorShard() *Shard { return r.shards[len(r.shards)-1] }

// Drain merges every dirty lane's pending events into one window sorted
// by (At, Lane, Seq), dispatches it to the sink and recycles the lane
// buffers. It must run with every shard parked at a barrier.
//
// A lane's buffer is in Seq order but only nearly in At order (see the
// package doc), so an insertion pass first puts each lane in (At, Seq)
// order in O(events + inversions); a binary heap of the dirty lanes
// keyed by (At, Lane) then merges them in O(n log dirty lanes). Lanes
// that did not emit this window cost nothing.
func (r *Recorder) Drain() error {
	h := r.heap[:0]
	n := 0
	for _, s := range r.shards {
		for _, m := range s.dirty {
			ev := m.ev
			for i := 1; i < len(ev); i++ {
				if ev[i].At >= ev[i-1].At {
					continue
				}
				e, j := ev[i], i
				for ; j > 0 && ev[j-1].At > e.At; j-- {
					ev[j] = ev[j-1]
				}
				ev[j] = e
			}
			n += len(ev)
			h = append(h, laneHead{at: ev[0].At, lane: m.lane, m: m})
		}
		s.dirty = s.dirty[:0]
	}
	if n == 0 {
		return nil
	}
	// before orders a key against a lane head by (At, Lane). It and down
	// are function literals so that profiles attribute the merge to
	// Drain.
	before := func(at sim.Time, lane int32, h *laneHead) bool {
		return at < h.at || at == h.at && lane < h.lane
	}
	down := func(h []laneHead, i int) {
		x := h[i]
		for {
			c := 2*i + 1
			if c >= len(h) {
				break
			}
			if d := c + 1; d < len(h) && before(h[d].at, h[d].lane, &h[c]) {
				c = d
			}
			if before(x.at, x.lane, &h[c]) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = x
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(h, i)
	}
	w := slices.Grow(r.scratch[:0], n)
	for len(h) > 0 {
		// Copy the top lane's whole run of events that precede every
		// other lane's head, then re-sift the lane.
		top := &h[0]
		ev, end := top.m.ev, len(top.m.ev)
		if len(h) > 1 {
			next := &h[1]
			if len(h) > 2 && before(h[2].at, h[2].lane, next) {
				next = &h[2]
			}
			end = top.pos + 1
			for end < len(ev) && before(ev[end].At, top.lane, next) {
				end++
			}
		}
		w = append(w, ev[top.pos:end]...)
		if end < len(ev) {
			top.pos, top.at = end, ev[end].At
		} else {
			top.m.ev = ev[:0]
			h[0] = h[len(h)-1]
			if h = h[:len(h)-1]; len(h) == 0 {
				break
			}
		}
		down(h, 0)
	}
	r.heap = h
	r.scratch = w
	r.total += int64(n)
	if r.sink != nil {
		return r.sink.Events(w)
	}
	return nil
}

// Finish drains the final window and closes the sink.
func (r *Recorder) Finish(at sim.Time) error {
	if err := r.Drain(); err != nil {
		return err
	}
	if r.sink != nil {
		return r.sink.Finish(at)
	}
	return nil
}

// Total returns how many events have been drained so far.
func (r *Recorder) Total() int64 { return r.total }

// BoundarySourceNames lists the engine boundary-source counters emitted
// as KindBoundary deltas, in emission order.
var BoundarySourceNames = [5]string{"target", "event", "action", "machine-shortened", "machine-declined"}
