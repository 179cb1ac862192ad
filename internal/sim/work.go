package sim

// Work is an exact quantity of compute work, counted in integer
// milli-work-units (one work unit is one processor cycle at nominal
// efficiency, so one milli-unit is a thousandth of a cycle). Work is the
// currency of the repository's exact accounting spine: processor
// throughput is an integer number of milli-units per microsecond
// (cpufreq.Profile.WorkRate), a scheduling quantum's capacity is that
// rate times the quantum's microseconds, and every workload queue, VM
// tally and host counter adds and subtracts these integers. Integer
// arithmetic is associative, so a batched stretch charged in one bulk
// addition lands on bit-identical state as the same stretch charged
// quantum by quantum — the property the batched==reference equivalence
// tests assert with exact equality.
//
// Range: int64 milli-units hold about 3.4e6 machine-seconds (~40
// machine-days) of work at the fastest in-tree processor (2667 MHz) —
// far beyond any per-host horizon, and enough for fleet-wide work
// reductions up to roughly a thousand saturated machines for an hour
// (the in-tree fleet scenarios stay orders of magnitude below that).
// Energy, whose picojoule fixed point is much finer relative to its
// magnitudes, uses a carried two-word accumulator instead
// (energy.Energy).
//
// Float conversion happens only at the report/render edge (Units,
// metrics recorders, JSON reports); simulation state never round-trips
// through float64.
type Work int64

// WorkUnit is one work unit (one cycle at nominal efficiency) in Work's
// milli-unit fixed point.
const WorkUnit Work = 1000

// MaxWork is a practically-infinite backlog sentinel (used by hog
// workloads), far above any reachable tally while leaving headroom
// against overflow in capacity comparisons.
const MaxWork Work = 1 << 62

// WorkFromUnits converts a floating-point number of work units into Work,
// rounding to the nearest milli-unit. It is the construction-time
// conversion for float-specified workload sizes (request costs, job
// lengths); once converted, all arithmetic stays integer.
func WorkFromUnits(u float64) Work {
	if u <= 0 {
		return 0
	}
	return Work(float64(u*float64(WorkUnit)) + 0.5)
}

// Units returns w expressed in floating-point work units — the
// report/render-edge conversion.
func (w Work) Units() float64 {
	return float64(w) / float64(WorkUnit)
}
