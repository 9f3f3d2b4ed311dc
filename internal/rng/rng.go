// Package rng provides the simulator's serializable pseudo-random stream.
//
// Simulation state must survive a checkpoint/restore round trip
// (docs/checkpoint.md), and math/rand generators cannot export their
// internal state. Rand is a splitmix64 counter generator: the entire
// stream position is a single uint64, captured and restored exactly, and
// statistically strong enough for the simulator's uses (branch-mispredict
// sampling, drift referee picks). It is NOT cryptographically secure.
package rng

// Rand is a deterministic splitmix64 generator. The zero value is a valid
// generator seeded with 0.
type Rand struct {
	state uint64
}

// New returns a generator seeded with seed. Equal seeds produce equal
// streams on every platform.
func New(seed uint64) *Rand { return &Rand{state: seed} }

// golden is the splitmix64 increment (2^64 / phi), chosen so that even
// sequential seeds decorrelate after one mixing step.
const golden = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	r.state += golden
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 returns a non-negative pseudo-random int64.
func (r *Rand) Int63() int64 { return int64(r.Uint64() >> 1) }

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// State returns the generator's complete internal state.
func (r *Rand) State() uint64 { return r.state }
