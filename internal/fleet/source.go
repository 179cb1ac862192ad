package fleet

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"

	"pasched/internal/sim"
)

// TraceSource is a pull-based VM lifecycle trace: the class catalogue
// and horizon are known up front, the events stream one at a time in
// the canonical (Arrive, Name) order. It is how the fleet consumes
// traces too large to materialize — a 10M-arrival run holds one event,
// not ten million.
//
// Three implementations exist: Trace.Source (the materialized trace as
// the trivial adapter), GenerateStream (the synthetic generator
// emitting lazily), and ParseTraceStream (streaming CSV ingestion).
//
// Contract: Next returns events strictly increasing in (Arrive, Name)
// and ok=false at end of stream; after ok=false the caller must check
// Err for a truncated or malformed stream. The fleet validates each
// event as it is pulled (known class, arrival inside the horizon,
// positive lifetime, activity in [0,1], order) — what it cannot check
// in O(1) memory is global name uniqueness, so streamed sources only
// guarantee that no two *concurrently live* VMs share a name (the
// fleet rejects the collision); materialize and Validate when the full
// guarantee matters.
type TraceSource interface {
	// Classes returns the class catalogue. Callers must treat the map
	// as read-only.
	Classes() map[string]VMClass
	// Horizon returns the nominal end of the trace: events arrive
	// strictly before it.
	Horizon() sim.Time
	// Next returns the next event in (Arrive, Name) order; ok=false
	// at end of stream.
	Next() (ev VMEvent, ok bool)
	// Err returns the error that ended the stream early, nil after a
	// clean end. Valid once Next has returned ok=false.
	Err() error
}

// traceSource adapts a materialized Trace to the streaming interface.
type traceSource struct {
	t *Trace
	i int
}

// Source returns the trace as a TraceSource, the trivial adapter: the
// events are already materialized and sorted, so the source just walks
// them.
func (t *Trace) Source() TraceSource { return &traceSource{t: t} }

func (s *traceSource) Classes() map[string]VMClass { return s.t.Classes }
func (s *traceSource) Horizon() sim.Time           { return s.t.Horizon }
func (s *traceSource) Err() error                  { return nil }

func (s *traceSource) Next() (VMEvent, bool) {
	if s.i >= len(s.t.Events) {
		return VMEvent{}, false
	}
	ev := s.t.Events[s.i]
	s.i++
	return ev, true
}

// Drain materializes a source into a Trace, the inverse of
// Trace.Source. The result is validated in full — this is the
// convenience path for small traces and tests; at streaming scale,
// feed the source to NewStream instead.
func Drain(src TraceSource) (*Trace, error) {
	t := &Trace{Classes: make(map[string]VMClass, len(src.Classes())), Horizon: src.Horizon()}
	for name, c := range src.Classes() {
		t.Classes[name] = c
	}
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		t.Events = append(t.Events, ev)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// csvSource streams the ParseTrace CSV format. The prologue — the
// horizon record and every class record — must precede the first vm
// record (WriteCSV and WriteCSVStream emit that layout), because the
// stream cannot be buffered to resolve forward references; vm records
// must already be sorted by (arrive, name), since a streaming reader
// cannot sort. ParseTrace's reader is shared.
type csvSource struct {
	rd   *traceReader
	err  error
	done bool
	// pending holds the first vm record's fields, already scanned by
	// the prologue loop in ParseTraceStream.
	pending []string

	prevArrive sim.Time
	prevName   string
	first      bool
}

// ParseTraceStream opens a streaming reader over the CSV trace format
// ParseTrace reads. It consumes the prologue (horizon and class
// records) immediately and returns a TraceSource streaming the vm
// records one at a time, so a multi-gigabyte trace never materializes.
//
// Unlike ParseTrace, the streaming reader requires the horizon and
// every class record before the first vm record, and requires the vm
// records sorted by (arrive, name); global name uniqueness is only
// checked for adjacent records (the fleet additionally rejects any two
// concurrently live VMs sharing a name).
func ParseTraceStream(r io.Reader) (TraceSource, error) {
	s := &csvSource{rd: newTraceReader(r), first: true}
	// Consume the prologue: everything up to (not including) the first
	// vm record.
	for {
		parts, ok := s.rd.scan()
		if !ok {
			if s.rd.err != nil {
				return nil, s.rd.err
			}
			return nil, fmt.Errorf("fleet: trace without VM events")
		}
		if parts[0] == "vm" {
			if s.rd.horizon <= 0 {
				return nil, fmt.Errorf("fleet: trace line %d: vm record before the horizon record (streaming traces need the prologue first)", s.rd.line)
			}
			s.pending = parts
			break
		}
		if err := s.rd.prologueRecord(parts); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *csvSource) Classes() map[string]VMClass { return s.rd.classes }
func (s *csvSource) Horizon() sim.Time           { return s.rd.horizon }
func (s *csvSource) Err() error                  { return s.err }

func (s *csvSource) Next() (VMEvent, bool) {
	if s.done || s.err != nil {
		return VMEvent{}, false
	}
	parts := s.pending
	s.pending = nil
	if parts == nil {
		var ok bool
		parts, ok = s.rd.scan()
		if !ok {
			s.err = s.rd.err
			s.done = true
			return VMEvent{}, false
		}
	}
	ev, err := s.vmRecord(parts)
	if err != nil {
		s.err = err
		s.done = true
		return VMEvent{}, false
	}
	return ev, true
}

func (s *csvSource) vmRecord(parts []string) (VMEvent, error) {
	if parts[0] != "vm" {
		return VMEvent{}, fmt.Errorf("fleet: trace line %d: %s record after the first vm record (streaming traces need the prologue first)", s.rd.line, parts[0])
	}
	ev, err := s.rd.vmRecord(parts)
	if err != nil {
		return VMEvent{}, err
	}
	if !s.first {
		if ev.Arrive < s.prevArrive || (ev.Arrive == s.prevArrive && ev.Name < s.prevName) {
			return VMEvent{}, fmt.Errorf("fleet: trace line %d: vm records not sorted by (arrive, name)", s.rd.line)
		}
		if ev.Arrive == s.prevArrive && ev.Name == s.prevName {
			return VMEvent{}, fmt.Errorf("fleet: trace line %d: duplicate VM name %q", s.rd.line, ev.Name)
		}
	}
	s.first = false
	s.prevArrive, s.prevName = ev.Arrive, ev.Name
	return ev, nil
}

// WriteCSVStream writes a source's trace in the format ParseTrace and
// ParseTraceStream read, pulling events one at a time — the streaming
// counterpart of Trace.WriteCSV, which delegates here. The output is
// byte-identical whether the trace was materialized first or streamed
// straight through.
func WriteCSVStream(src TraceSource, w io.Writer) error {
	bw := bufio.NewWriter(w)
	classes := src.Classes()
	fmt.Fprintf(bw, "# fleet VM lifecycle trace: %d classes\n", len(classes))
	fmt.Fprintf(bw, "horizon,%s\n", formatSeconds(src.Horizon()))
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := classes[name]
		fmt.Fprintf(bw, "class,%s,%s,%d\n", c.Name,
			strconv.FormatFloat(c.CreditPct, 'g', -1, 64), c.MemoryMB)
	}
	for {
		ev, ok := src.Next()
		if !ok {
			break
		}
		fmt.Fprintf(bw, "vm,%s,%s,%s,%s,%s\n", ev.Name,
			formatSeconds(ev.Arrive), formatSeconds(ev.Lifetime), ev.Class,
			strconv.FormatFloat(ev.Activity, 'g', -1, 64))
	}
	if err := src.Err(); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("fleet: write trace: %w", err)
	}
	return nil
}
