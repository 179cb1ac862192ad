// Command fleetbench is the fleet simulator's benchmark. It runs one
// named fleet workload repeatedly through the public internal/fleet API
// for a fixed wall-clock budget, checks every run's complete output
// against an inline (Shards = Workers = 1) reference digest, and prints
// the metrics as one JSON object on the last line of standard output.
//
//	fleetbench --workload churn --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics (wall_s, cpu_s, peak_rss_mb,
// setup_s) as medians over the untraced runs. --trace 1 reports the
// per-layer metrics instead: timed calls across the fleet's outbound
// interfaces, the run's counters, and CPU seconds per layer from a CPU
// profile of the traced runs. --record prints the reference digests of
// every workload for the default and the held-out seed, to refresh
// digests.json after a deliberate change of the simulated output.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"time"

	"pasched/internal/fleet"
)

const (
	// defaultSeed is the seed used while writing a change; heldOutSeed
	// is kept for re-checking a claim on inputs it was not tuned on.
	defaultSeed = 1
	heldOutSeed = 2
)

//go:embed digests.json
var digestsJSON []byte

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: churn, steady or elastic")
	seed := fs.Uint64("seed", defaultSeed, "trace and fleet seed")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	record := fs.Bool("record", false, "print the inline reference digests for the default and held-out seeds and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *record {
		if err := recordDigests(stdout); err != nil {
			fmt.Fprintln(stderr, "fleetbench:", err)
			return 1
		}
		return 0
	}
	s, err := specByName(*name)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "fleetbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	refs, err := loadDigests()
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	want, committed := refs[s.name][strconv.FormatUint(*seed, 10)]
	b := bench{spec: s, seed: *seed, want: want, committed: committed, log: stderr}
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res, err = b.traced(budget)
	} else {
		res = b.untraced(budget)
	}
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	ref := "inline run"
	if committed {
		ref = "committed digest"
	}
	fmt.Fprintf(stdout, "# workload=%s seed=%d trace=%d gomaxprocs=%d nproc=%d go=%s reference=%s\n",
		s.name, *seed, *trace, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version(), ref)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "fleetbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// loadDigests parses the committed reference digests:
// workload -> seed -> hex SHA-256 of an inline run's output.
func loadDigests() (map[string]map[string]string, error) {
	var d map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &d); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return d, nil
}

func recordDigests(w io.Writer) error {
	d := map[string]map[string]string{}
	for i := range specs {
		s := &specs[i]
		d[s.name] = map[string]string{}
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			r, err := runOp(s, seed, opMode{inline: true})
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", s.name, seed, err)
			}
			d[s.name][strconv.FormatUint(seed, 10)] = r.digest
		}
	}
	out, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// bench runs one workload's operations and checks each against the
// reference digest.
type bench struct {
	spec      *spec
	seed      uint64
	want      string
	committed bool
	log       io.Writer

	attempted, failed int
}

// reference runs the workload inline once, untimed. It checks the
// committed digest when the seed has one and otherwise supplies the
// reference the measured runs must match; either way it warms the heap
// and caches before timing starts.
func (b *bench) reference() {
	r, err := runOp(b.spec, b.seed, opMode{inline: true})
	b.attempted++
	switch {
	case err != nil:
		b.failed++
		fmt.Fprintf(b.log, "fleetbench: inline reference run: %v\n", err)
	case !b.committed:
		b.want = r.digest
	case r.digest != b.want:
		b.failed++
		fmt.Fprintf(b.log, "fleetbench: inline run digest %s, committed %s\n", r.digest, b.want)
	}
}

// measure runs operations in mode until the deadline has passed and at
// least minRuns have run. Only runs whose output matches the reference
// are returned.
func (b *bench) measure(mode opMode, deadline time.Time, minRuns int) []opResult {
	var ok []opResult
	for tries := 0; tries < minRuns || time.Now().Before(deadline); tries++ {
		r, err := runOp(b.spec, b.seed, mode)
		b.attempted++
		switch {
		case err != nil:
			b.failed++
			fmt.Fprintf(b.log, "fleetbench: %v\n", err)
		case r.digest != b.want:
			b.failed++
			fmt.Fprintf(b.log, "fleetbench: output digest %s, reference %s\n", r.digest, b.want)
		default:
			ok = append(ok, r)
		}
		fmt.Fprintf(b.log, "fleetbench: %s run %d: wall %.3fs cpu %.3fs setup %.4fs peak %.1fMB\n",
			b.spec.name, tries+1, r.wall.Seconds(), r.cpu.Seconds(), r.setup.Seconds(), r.peakRSSMB)
	}
	return ok
}

func (b *bench) result(m map[string]metric) result {
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}
}

// untraced measures the end-to-end metrics.
func (b *bench) untraced(budget time.Duration) result {
	b.reference()
	ops := b.measure(opMode{}, time.Now().Add(budget), 3)
	return b.result(map[string]metric{
		"wall_s":      {median(ops, func(r opResult) float64 { return r.wall.Seconds() }), "s"},
		"cpu_s":       {median(ops, func(r opResult) float64 { return r.cpu.Seconds() }), "s"},
		"peak_rss_mb": {median(ops, func(r opResult) float64 { return r.peakRSSMB }), "MB"},
		"setup_s":     {median(ops, func(r opResult) float64 { return r.setup.Seconds() }), "s"},
	})
}

// traced measures the per-layer metrics: a third of the budget runs
// untraced (the base for the tracing overhead and the runtime counters),
// the rest runs with the timing wrappers and a CPU profile.
func (b *bench) traced(budget time.Duration) (result, error) {
	b.reference()
	start := time.Now()
	plain := b.measure(opMode{}, start.Add(budget/3), 2)
	tr := b.measure(opMode{traced: true}, start.Add(budget), 2)

	m := map[string]metric{
		"env.gomaxprocs": {float64(runtime.GOMAXPROCS(0)), "count"},
		"env.nproc":      {float64(runtime.NumCPU()), "count"},
	}
	wall := func(r opResult) float64 { return r.wall.Seconds() }
	plainWall, trWall := median(plain, wall), median(tr, wall)
	m["trace.wall_s"] = metric{trWall, "s"}
	m["trace.overhead_s"] = metric{trWall - plainWall, "s"}
	m["fleet.parallelism"] = metric{median(plain, func(r opResult) float64 { return r.cpu.Seconds() / r.wall.Seconds() }), "ratio"}
	m["runtime.alloc_mb"] = metric{median(plain, func(r opResult) float64 { return r.allocMB }), "MB"}
	m["runtime.gc_cycles"] = metric{median(plain, func(r opResult) float64 { return float64(r.gcCycles) }), "count"}
	m["runtime.gc_pause_ms"] = metric{median(plain, func(r opResult) float64 { return float64(r.gcPause) / 1e6 }), "ms"}

	m["fleet.source.pull_s"] = metric{median(tr, func(r opResult) float64 { return r.taps.pull.Seconds() }), "s"}
	m["fleet.source.events"] = metric{median(tr, func(r opResult) float64 { return float64(r.taps.pulls) }), "count"}
	m["fleet.sink.write_s"] = metric{median(tr, func(r opResult) float64 { return r.taps.write.Seconds() }), "s"}
	m["fleet.sink.records"] = metric{median(tr, func(r opResult) float64 { return float64(r.taps.records) }), "count"}
	m["fleet.sink.bytes"] = metric{median(tr, func(r opResult) float64 { return float64(r.sinkBytes) }), "bytes"}
	m["obs.export_s"] = metric{median(tr, func(r opResult) float64 { return r.taps.export.Seconds() }), "s"}
	m["obs.export_bytes"] = metric{median(tr, func(r opResult) float64 { return float64(r.traceBytes) }), "bytes"}

	var windows []float64
	for _, r := range tr {
		for _, w := range r.taps.windows {
			windows = append(windows, float64(w)/1e6)
		}
	}
	slices.Sort(windows)
	tail, pct := tailPercentile(windows)
	m["fleet.windows"] = metric{float64(len(windows)), "count"}
	m["fleet.window_p50_ms"] = metric{quantile(windows, 0.5), "ms"}
	m["fleet.window_tail_ms"] = metric{tail, "ms"}
	m["fleet.window_tail_pct"] = metric{pct, "%"}

	var sum fleet.Summary
	if len(plain) > 0 {
		sum = plain[0].summary
	}
	maps.Copy(m, summarize(sum))

	cpu := map[string]float64{}
	samples := 0
	for _, r := range tr {
		ss, err := parseCPUProfile(r.profile)
		if err != nil {
			return result{}, err
		}
		samples += len(ss)
		for l, v := range layerCPU(ss) {
			cpu[l] += v
		}
	}
	total := 0.0
	for _, l := range profileLayers {
		v := 0.0
		if len(tr) > 0 {
			v = cpu[l] / float64(len(tr))
		}
		m[l+".cpu_s"] = metric{v, "s"}
		total += v
	}
	unattributed := 0.0
	if total > 0 {
		unattributed = (m["runtime.cpu_s"].Value + m["other.cpu_s"].Value) / total
	}
	m["profile.cpu_s"] = metric{total, "s"}
	m["profile.samples"] = metric{float64(samples), "count"}
	m["profile.unattributed_share"] = metric{unattributed, "ratio"}
	return b.result(m), nil
}

// summarize returns the fleet counters that fix how much work a run did.
func summarize(s fleet.Summary) map[string]metric {
	count := func(v int64) metric { return metric{float64(v), "count"} }
	share := 0.0
	if q := s.BatchedQuanta + s.SteppedQuanta; q > 0 {
		share = float64(s.BatchedQuanta) / float64(q)
	}
	return map[string]metric{
		"fleet.arrived":            count(int64(s.Arrived)),
		"fleet.rejected":           count(int64(s.Rejected)),
		"fleet.migrated":           count(int64(s.Migrated)),
		"fleet.power_ons":          count(int64(s.PowerOns)),
		"host.batched_quanta":      count(s.BatchedQuanta),
		"host.stepped_quanta":      count(s.SteppedQuanta),
		"host.batched_share":       {share, "ratio"},
		"serve.requests_offered":   count(s.RequestsOffered),
		"serve.requests_completed": count(s.RequestsCompleted),
		"obs.events":               count(s.ObsEvents),
		"autoscale.actions":        count(s.AutoscaleResizes + s.AutoscaleScaleOuts + s.AutoscaleScaleIns),
		"autoscale.rejected":       count(s.AutoscaleRejected),
	}
}

// median returns the median of f over ops, 0 for none.
func median(ops []opResult, f func(opResult) float64) float64 {
	v := make([]float64, len(ops))
	for i, r := range ops {
		v[i] = f(r)
	}
	slices.Sort(v)
	return quantile(v, 0.5)
}

// quantile interpolates the q-quantile of sorted values, 0 for none.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(sorted)-1)
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tailPercentile returns the highest of a fixed ladder of percentiles
// that has at least ten samples beyond it, with that percentile; the
// median when the sample is too small for any of them.
func tailPercentile(sorted []float64) (value, pct float64) {
	for _, p := range []float64{99.9, 99, 95, 90, 80, 75} {
		beyond := len(sorted) - int(math.Ceil(p/100*float64(len(sorted))))
		if beyond >= 10 {
			return quantile(sorted, p/100), p
		}
	}
	return quantile(sorted, 0.5), 50
}
