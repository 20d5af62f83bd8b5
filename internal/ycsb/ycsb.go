// Package ycsb is the key chooser of the Yahoo! Cloud Serving Benchmark
// (Cooper et al., SoCC 2010): the zipfian rank generator YCSB ships and
// the hash that scatters its ranks over a key space. The workload that
// draws from it lives with its caller, the repository benchmark's kv
// loader (benchmark/kvload.go).
package ycsb

import (
	"math"
	"math/rand"
)

// Zipfian draws ranks 0..n-1 with P(rank) proportional to 1/(rank+1)^theta,
// using the rejection-free inversion of Gray et al. (SIGMOD 1994), the
// same generator YCSB ships. The stdlib's rand.Zipf cannot express
// theta < 1, which is exactly the regime YCSB's default (0.99) lives in.
// A Zipfian is immutable after construction and safe to share across
// clients, each drawing with its own rand.Rand.
type Zipfian struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

// NewZipfian builds a generator over ranks 0..n-1 with skew theta.
func NewZipfian(n uint64, theta float64) *Zipfian {
	if n < 1 {
		n = 1
	}
	z := &Zipfian{n: n, theta: theta}
	z.zetan = zeta(n, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2, theta)/z.zetan)
	return z
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
// O(n) once per run; n in the millions costs milliseconds.
func zeta(n uint64, theta float64) float64 {
	sum := 0.0
	for i := uint64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws one rank using r.
func (z *Zipfian) Next(r *rand.Rand) uint64 {
	u := r.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	rank := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if rank >= z.n {
		rank = z.n - 1
	}
	return rank
}

// Scramble spreads zipfian ranks over a key space so the hot keys are
// not clustered at its start (YCSB's ScrambledZipfian), using the
// splitmix64 finalizer as the hash.
func Scramble(rank uint64) uint64 {
	rank ^= rank >> 33
	rank *= 0xff51afd7ed558ccd
	rank ^= rank >> 33
	rank *= 0xc4ceb9fe1a85ec53
	rank ^= rank >> 33
	return rank
}
