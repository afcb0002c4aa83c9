package workload

import (
	"math"
	"math/rand"
)

// Zipf draws ranks in [0, n) with the YCSB Zipfian distribution
// (Gray et al., "Quickly generating billion-record synthetic
// databases"): rank 0 is the hottest key, and with the YCSB default
// theta = 0.99 roughly half the draws land on the hottest ~1% of the
// keyspace. The standard-library rand.Zipf cannot express this regime —
// it requires an exponent s > 1 — so the serve experiment carries its
// own generator.
type Zipf struct {
	rng   *rand.Rand
	n     uint64
	alpha float64 // 1 / (1 - theta)
	zetan float64 // zeta(n, theta)
	eta   float64
	half  float64 // 0.5^theta
}

// zeta computes the generalized harmonic number sum_{i=1..n} 1/i^theta.
func zeta(n uint64, theta float64) float64 {
	var z float64
	for i := uint64(1); i <= n; i++ {
		z += 1 / math.Pow(float64(i), theta)
	}
	return z
}

// NewZipf builds a generator over n items with skew theta in (0, 1).
// The one-time zeta(n) sum is O(n); share one generator per keyspace.
func NewZipf(rng *rand.Rand, n uint64, theta float64) *Zipf {
	z := &Zipf{
		rng:   rng,
		n:     n,
		alpha: 1 / (1 - theta),
		zetan: zeta(n, theta),
		half:  math.Pow(0.5, theta),
	}
	zeta2 := zeta(2, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

// Next draws one rank (0 = hottest).
func (z *Zipf) Next() uint64 {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
