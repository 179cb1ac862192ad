package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"pasched/internal/sim"
)

// TracePoint is one segment of a replayed load trace: from Start onwards
// (until the next point) the workload demands Rate work units per second.
type TracePoint struct {
	Start sim.Time
	Rate  float64
}

// TraceWorkload replays a piecewise-constant demand trace, accumulating
// work continuously at the rate in force. It models production load
// recordings (the consolidation literature's input) without per-request
// granularity.
type TraceWorkload struct {
	points   []TracePoint
	lastTick sim.Time
	queue    sim.Work
	carry    float64 // sub-milli-unit integration residue, in [0, 1)
	maxQueue sim.Work
	served   sim.Work
}

// NewTraceWorkload builds a replayed workload from points sorted by start
// time. maxBacklog bounds the queue in work units (<= 0 means unbounded).
func NewTraceWorkload(points []TracePoint, maxBacklog float64) (*TraceWorkload, error) {
	if len(points) == 0 {
		return nil, fmt.Errorf("workload: empty trace")
	}
	if !sort.SliceIsSorted(points, func(i, j int) bool { return points[i].Start < points[j].Start }) {
		return nil, fmt.Errorf("workload: trace points not sorted by start time")
	}
	for i, p := range points {
		if p.Rate < 0 {
			return nil, fmt.Errorf("workload: trace point %d has negative rate", i)
		}
		if i > 0 && p.Start == points[i-1].Start {
			return nil, fmt.Errorf("workload: duplicate trace start %v", p.Start)
		}
	}
	cp := make([]TracePoint, len(points))
	copy(cp, points)
	return &TraceWorkload{points: cp, maxQueue: sim.WorkFromUnits(maxBacklog)}, nil
}

// maxTraceSeconds bounds the seconds field of a parsed trace line,
// keeping sim.FromSeconds far away from integer overflow on hostile
// input (the parser is an external input surface; see the fuzz tests).
const maxTraceSeconds = 1e9

// ParseTrace reads a trace from r in "seconds,rate" CSV lines (comments
// with '#', blank lines ignored). Rates are in work units per second.
// Seconds must be finite, non-negative and at most 1e9; rates must be
// finite and non-negative.
func ParseTrace(r io.Reader, maxBacklog float64) (*TraceWorkload, error) {
	var points []TracePoint
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		parts := strings.Split(text, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("workload: trace line %d: want 'seconds,rate', got %q", line, text)
		}
		secs, err := strconv.ParseFloat(strings.TrimSpace(parts[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		if math.IsNaN(secs) || secs < 0 || secs > maxTraceSeconds {
			return nil, fmt.Errorf("workload: trace line %d: seconds %v outside [0, %g]",
				line, secs, float64(maxTraceSeconds))
		}
		rate, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: %w", line, err)
		}
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
			return nil, fmt.Errorf("workload: trace line %d: rate %v not finite and non-negative",
				line, rate)
		}
		points = append(points, TracePoint{Start: sim.FromSeconds(secs), Rate: rate})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: read trace: %w", err)
	}
	return NewTraceWorkload(points, maxBacklog)
}

// rateAt returns the demand rate in force at time t.
func (w *TraceWorkload) rateAt(t sim.Time) float64 {
	// Find the last point with Start <= t.
	i := sort.Search(len(w.points), func(i int) bool { return w.points[i].Start > t })
	if i == 0 {
		return 0
	}
	return w.points[i-1].Rate
}

// Tick implements Workload: accumulate demand over (lastTick, now].
func (w *TraceWorkload) Tick(now sim.Time) {
	if now <= w.lastTick {
		return
	}
	t := w.lastTick
	for t < now {
		// Advance segment by segment so rate changes mid-interval are
		// integrated exactly.
		end := now
		i := sort.Search(len(w.points), func(i int) bool { return w.points[i].Start > t })
		if i < len(w.points) && w.points[i].Start < end {
			end = w.points[i].Start
		}
		// Materialize the integer milli-units and carry the sub-unit
		// residue, so accrual never drifts from the integrated demand by
		// more than one milli-unit regardless of tick granularity.
		w.carry += float64(w.rateAt(t) * (end - t).Seconds() * float64(sim.WorkUnit))
		whole := sim.Work(w.carry)
		w.carry -= float64(whole)
		w.queue += whole
		t = end
	}
	if w.maxQueue > 0 && w.queue > w.maxQueue {
		w.queue = w.maxQueue
	}
	w.lastTick = now
}

// Pending implements Workload.
func (w *TraceWorkload) Pending() sim.Work { return w.queue }

// Consume implements Workload.
func (w *TraceWorkload) Consume(max sim.Work, _ sim.Time) sim.Work {
	if max <= 0 || w.queue <= 0 {
		return 0
	}
	used := max
	if used > w.queue {
		used = w.queue
	}
	w.queue -= used
	w.served += used
	return used
}

// Served returns the total work executed.
func (w *TraceWorkload) Served() sim.Work { return w.served }

// NextChange implements Forecaster. The trace accrues work continuously
// while a segment's rate is positive, so only zero-rate stretches are
// forecastable: the next positive-rate segment start. Un-integrated
// positive-rate demand in (lastTick, now] makes the state stale and
// forecloses any promise.
func (w *TraceWorkload) NextChange(now sim.Time) sim.Time {
	t := w.lastTick
	for t < now {
		if w.rateAt(t) > 0 {
			return now
		}
		end := now
		i := sort.Search(len(w.points), func(i int) bool { return w.points[i].Start > t })
		if i < len(w.points) && w.points[i].Start < end {
			end = w.points[i].Start
		}
		t = end
	}
	if w.rateAt(now) > 0 {
		return now
	}
	best := sim.Never
	for _, p := range w.points {
		if p.Start > now && p.Rate > 0 && p.Start < best {
			best = p.Start
		}
	}
	return best
}

// Burst wraps a workload and multiplies its consumption opportunities with
// on/off bursts: during a burst the inner workload is exposed as-is;
// outside bursts the workload appears idle (arrivals still accumulate in
// the inner workload). It injects the kind of on/off load flapping that
// stresses governors.
type Burst struct {
	Inner  Workload
	Period sim.Time
	On     sim.Time
	now    sim.Time
}

// NewBurst wraps inner with an on/off gate: on for `on` out of every
// `period`.
func NewBurst(inner Workload, period, on sim.Time) (*Burst, error) {
	if inner == nil {
		return nil, fmt.Errorf("workload: burst around nil workload")
	}
	if period <= 0 || on <= 0 || on > period {
		return nil, fmt.Errorf("workload: burst needs 0 < on <= period, got on=%v period=%v", on, period)
	}
	return &Burst{Inner: inner, Period: period, On: on}, nil
}

// active reports whether the gate is open at the workload's current time.
func (b *Burst) active() bool {
	return b.now%b.Period < b.On
}

// Tick implements Workload.
func (b *Burst) Tick(now sim.Time) {
	b.now = now
	b.Inner.Tick(now)
}

// Pending implements Workload.
func (b *Burst) Pending() sim.Work {
	if !b.active() {
		return 0
	}
	return b.Inner.Pending()
}

// Consume implements Workload.
func (b *Burst) Consume(max sim.Work, now sim.Time) sim.Work {
	if !b.active() {
		return 0
	}
	return b.Inner.Consume(max, now)
}

// nextFlip returns the first gate transition strictly after t.
func (b *Burst) nextFlip(t sim.Time) sim.Time {
	phase := t % b.Period
	if phase < b.On {
		return t - phase + b.On
	}
	return t - phase + b.Period
}

// NextChange implements Forecaster: the earlier of the inner workload's
// change and the next gate flip. A flip inside the un-ticked span
// (b.now, now] makes the gate state stale and forecloses any promise.
func (b *Burst) NextChange(now sim.Time) sim.Time {
	fc, ok := b.Inner.(Forecaster)
	if !ok {
		return now
	}
	if b.now < now && b.nextFlip(b.now) <= now {
		return now
	}
	next := fc.NextChange(now)
	if flip := b.nextFlip(now); flip < next {
		next = flip
	}
	return next
}
