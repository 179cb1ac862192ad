package sim

import "math"

// RNG is a small deterministic random source (xorshift64*), sufficient for
// workload arrival processes. It is not safe for concurrent use; the
// simulation kernel is single-threaded by design.
//
// The zero value is not usable; construct with NewRNG.
type RNG struct {
	state uint64
}

// NewRNG returns a deterministic generator seeded with seed. A zero seed is
// replaced with a fixed non-zero constant because the xorshift state must
// never be zero.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Float64 returns a pseudo-random value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / float64(1<<53)) // a rounding barrier against FMA fusion at call sites
}

// ExpFloat64 returns an exponentially distributed value with mean 1.
func (r *RNG) ExpFloat64() float64 {
	u := r.Float64()
	// Guard against log(0).
	if u <= 0 {
		u = math.SmallestNonzeroFloat64
	}
	return -math.Log(1 - u)
}

// Intn returns a pseudo-random value in [0, n). It returns 0 when n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a normally distributed value with mean 0 and standard
// deviation 1, using the Box-Muller transform.
func (r *RNG) NormFloat64() float64 {
	u1 := r.Float64()
	u2 := r.Float64()
	if u1 <= 0 {
		u1 = math.SmallestNonzeroFloat64
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}
