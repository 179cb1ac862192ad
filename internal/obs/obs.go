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
// event sequence is sharding-invariant; sorting a drained window by
// (At, Lane, Seq) yields a merged stream that is DeepEqual-bit-exact
// across shardings. Events are appended to per-shard rings (one writer
// at a time, like every other per-shard accumulator) and drained by the
// coordinator at reporting barriers; ring buffers are pooled per shard
// and reused across windows.
//
// When disabled, nothing in this package runs: the host and fleet guard
// every emission behind a single nil pointer check, so the disabled hot
// path costs zero allocations and no measurable time (benchmark-gated).
package obs

import (
	"sort"

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

// Ring is one shard's pooled event buffer. Exactly one worker appends
// to a shard's ring at a time (the same single-writer discipline as the
// shard's interval accumulators); the coordinator drains it at barriers
// and hands the backing array back for reuse.
type Ring struct {
	ev []Event
}

// MachineObs is one lane's emitting handle: it owns the lane's sequence
// counter and appends to the owning shard's ring. A machine keeps its
// MachineObs across power cycles so sequence numbers never restart
// within a run.
type MachineObs struct {
	ring *Ring
	lane int32
	seq  uint32
}

// NewMachineObs returns an emitting handle for the given lane appending
// into ring.
func NewMachineObs(ring *Ring, lane int32) *MachineObs {
	return &MachineObs{ring: ring, lane: lane}
}

// Emit appends one event at simulated time at. The VM string must be a
// stable name (shared, not built per call) so emission does not
// allocate beyond ring growth.
func (m *MachineObs) Emit(at sim.Time, k Kind, vmName string, a, b int64) {
	m.seq++
	m.ring.ev = append(m.ring.ev, Event{At: at, Lane: m.lane, Seq: m.seq, Kind: k, VM: vmName, A: a, B: b})
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

// Recorder owns the per-shard rings and the coordinator ring, merges
// them into deterministic windows at barriers, and feeds the optional
// sink.
type Recorder struct {
	rings   []*Ring // per shard, then the coordinator ring last
	sink    EventSink
	scratch []Event
	total   int64
}

// NewRecorder builds a recorder for the given shard count. sink, when
// non-nil, receives every merged window.
func NewRecorder(shards int, sink EventSink) *Recorder {
	rings := make([]*Ring, shards+1)
	for i := range rings {
		rings[i] = &Ring{}
	}
	return &Recorder{rings: rings, sink: sink}
}

// Ring returns shard's ring.
func (r *Recorder) Ring(shard int) *Ring { return r.rings[shard] }

// CoordinatorRing returns the control plane's ring.
func (r *Recorder) CoordinatorRing() *Ring { return r.rings[len(r.rings)-1] }

// Drain merges every ring's pending events into one window sorted by
// (At, Lane, Seq), dispatches it to the sink and recycles the ring
// buffers. It must run with every shard parked at a barrier.
func (r *Recorder) Drain() error {
	n := 0
	for _, rg := range r.rings {
		n += len(rg.ev)
	}
	if n == 0 {
		return nil
	}
	w := r.scratch[:0]
	for _, rg := range r.rings {
		w = append(w, rg.ev...)
		rg.ev = rg.ev[:0]
	}
	sort.Slice(w, func(i, j int) bool {
		if w[i].At != w[j].At {
			return w[i].At < w[j].At
		}
		if w[i].Lane != w[j].Lane {
			return w[i].Lane < w[j].Lane
		}
		return w[i].Seq < w[j].Seq
	})
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
