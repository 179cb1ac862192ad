package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pasched/internal/fleet"
	"pasched/internal/obs"
	"pasched/internal/sim"
)

// opMode selects how one operation runs.
type opMode struct {
	// inline forces Shards = Workers = 1.
	inline bool
	// traced wraps the source, sink and event sink in timing wrappers
	// and records a CPU profile over Fleet.Run.
	traced bool
}

// opResult is everything measured on one operation.
type opResult struct {
	digest  string
	summary fleet.Summary

	setup, wall, cpu time.Duration
	peakRSSMB        float64
	allocMB          float64
	gcCycles         uint32
	gcPause          time.Duration

	sinkBytes, traceBytes int64
	taps                  taps
	profile               []byte
}

// taps are the timing wrappers' tallies over one traced operation.
type taps struct {
	pull    time.Duration
	pulls   int64
	write   time.Duration
	records int64
	windows []time.Duration
	export  time.Duration
}

// digestWriter hashes and counts everything written through it. Once
// tail is set, bytes collect there instead and sum hashes them as a
// sorted set of lines (see unorderedFinish).
type digestWriter struct {
	h    hash.Hash
	n    int64
	tail *bytes.Buffer
}

func newDigestWriter() *digestWriter { return &digestWriter{h: sha256.New()} }

func (d *digestWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	if d.tail != nil {
		return d.tail.Write(p)
	}
	return d.h.Write(p) // hash.Hash.Write never fails
}

func (d *digestWriter) sum() []byte {
	if d.tail != nil {
		lines := strings.Split(d.tail.String(), "\n")
		for i, l := range lines {
			lines[i] = strings.TrimSuffix(l, ",")
		}
		slices.Sort(lines)
		for _, l := range lines {
			fmt.Fprintf(d.h, "%s\n", l)
		}
	}
	return d.h.Sum(nil)
}

// unorderedFinish digests everything the Perfetto writer emits from
// Finish on as an unordered set of lines. obs.PerfettoWriter.Finish
// closes the open VM slices in map iteration order, so those records
// (and the JSON commas between them) come out in a different order on
// every run; everything before Finish is digested byte for byte.
type unorderedFinish struct {
	obs.EventSink
	out *digestWriter
}

func (u unorderedFinish) Finish(at sim.Time) error {
	u.out.tail = new(bytes.Buffer)
	return u.EventSink.Finish(at)
}

// timedSource times every Next call of a streamed trace source.
type timedSource struct {
	fleet.TraceSource
	t *taps
}

func (s timedSource) Next() (fleet.VMEvent, bool) {
	t0 := time.Now()
	ev, ok := s.TraceSource.Next()
	s.t.pull += time.Since(t0)
	s.t.pulls++
	return ev, ok
}

// timedSink times every Sink call and records the wall time between
// successive Interval calls (the first window starts at Run).
type timedSink struct {
	fleet.Sink
	t    *taps
	last time.Time
}

func (s *timedSink) Interval(iv *fleet.Interval) error {
	t0 := time.Now()
	s.t.windows = append(s.t.windows, t0.Sub(s.last))
	s.last = t0
	err := s.Sink.Interval(iv)
	s.t.write += time.Since(t0)
	s.t.records++
	return err
}

func (s *timedSink) Outcome(o *fleet.VMOutcome) error {
	t0 := time.Now()
	err := s.Sink.Outcome(o)
	s.t.write += time.Since(t0)
	s.t.records++
	return err
}

func (s *timedSink) Finish(sum *fleet.Summary) error {
	t0 := time.Now()
	err := s.Sink.Finish(sum)
	s.t.write += time.Since(t0)
	s.t.records++
	return err
}

// timedEventSink times every obs.EventSink call.
type timedEventSink struct {
	obs.EventSink
	t *taps
}

func (s timedEventSink) Events(window []obs.Event) error {
	t0 := time.Now()
	err := s.EventSink.Events(window)
	s.t.export += time.Since(t0)
	return err
}

func (s timedEventSink) Finish(at sim.Time) error {
	t0 := time.Now()
	err := s.EventSink.Finish(at)
	s.t.export += time.Since(t0)
	return err
}

// runOp builds the workload's fleet for seed and runs it to the horizon.
// Setup (trace generation when materialized, plus fleet construction)
// and Run are timed separately; the peak-RSS reading is taken right
// after Run, before anything inspects the fleet.
func runOp(s *spec, seed uint64, mode opMode) (opResult, error) {
	var r opResult
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return r, err
	}

	t0 := time.Now()
	cfg := s.config(seed, mode.inline)
	sinkOut, traceOut := newDigestWriter(), newDigestWriter()
	var sink fleet.Sink = fleet.NewCSVSink(sinkOut)
	if s.jsonl {
		sink = fleet.NewJSONLSink(sinkOut)
	}
	var tsink *timedSink
	if mode.traced {
		tsink = &timedSink{Sink: sink, t: &r.taps}
		sink = tsink
	}
	cfg.Sinks = []fleet.Sink{sink}
	if cfg.Obs.Enabled {
		var es obs.EventSink = unorderedFinish{obs.NewPerfettoWriter(traceOut), traceOut}
		if mode.traced {
			es = timedEventSink{EventSink: es, t: &r.taps}
		}
		cfg.Obs.Sink = es
	}
	var fl *fleet.Fleet
	var err error
	if s.materialize {
		var tr *fleet.Trace
		if tr, err = fleet.Generate(s.genConfig(seed)); err != nil {
			return r, fmt.Errorf("generate trace: %w", err)
		}
		fl, err = fleet.New(cfg, tr)
	} else {
		var src fleet.TraceSource
		if src, err = fleet.GenerateStream(s.genConfig(seed)); err != nil {
			return r, fmt.Errorf("generate trace: %w", err)
		}
		if mode.traced {
			src = timedSource{TraceSource: src, t: &r.taps}
		}
		fl, err = fleet.NewStream(cfg, src)
	}
	if err != nil {
		return r, fmt.Errorf("build fleet: %w", err)
	}
	r.setup = time.Since(t0)

	var prof bytes.Buffer
	if mode.traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return r, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	start := time.Now()
	if tsink != nil {
		tsink.last = start
	}
	rep, runErr := fl.Run(s.gen.Horizon)
	r.wall = time.Since(start)
	r.peakRSSMB = peakRSSMB()
	r.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	if mode.traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	if runErr != nil {
		return r, fmt.Errorf("run: %w", runErr)
	}
	r.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	r.gcCycles = m1.NumGC - m0.NumGC
	r.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	r.summary = rep.Summary
	sum, err := json.Marshal(rep.Summary)
	if err != nil {
		return r, fmt.Errorf("encode summary: %w", err)
	}
	r.sinkBytes, r.traceBytes = sinkOut.n, traceOut.n
	r.digest = outputDigest(sinkOut.sum(), sum, traceOut.sum())
	return r, nil
}

// outputDigest combines a run's complete output — the sink stream, the
// summary and the Perfetto stream — into one hex SHA-256.
func outputDigest(sink, summary, trace []byte) string {
	h := sha256.New()
	for _, part := range [][]byte{sink, summary, trace} {
		fmt.Fprintf(h, "%d:", len(part))
		h.Write(part)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// processCPU returns the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS resets the process's VmHWM to its current RSS, so the
// next reading covers one operation only.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads the process's VmHWM in MiB, or 0 when unavailable.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
