package main

import "slices"

// median returns the middle value of xs (mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads -selfcheck prints are the ones the acceptance driver computes.
// With fewer than two values both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	if len(xs) < 2 {
		return median(xs), median(xs)
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s)
	at := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// sortedCopy returns xs in ascending order, leaving xs alone.
func sortedCopy(xs []int64) []int64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// percentile returns the exact q-quantile (nearest rank) of sorted.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// perOp divides, returning 0 when nothing ran.
func perOp(n float64, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return n / float64(ops)
}
