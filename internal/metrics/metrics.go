// Package metrics provides the measurement primitives used by the benchmark
// harness: latency histograms with quantile estimation, measurement windows
// with derived rates, field-wise arithmetic over counter structs, and
// CPU-utilization snapshots derived from sim.Resource busy-time integrals.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"

	"repro/internal/sim"
)

// Histogram records latency samples in logarithmic buckets (HDR-style):
// 64 major powers of two, each split into 16 linear sub-buckets, giving a
// worst-case quantile error of ~6%. The zero value is ready to use.
type Histogram struct {
	buckets [64 * 16]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < 16 {
		return int(v)
	}
	major := 63 - int(leadingZeros(uint64(v)))
	minor := int((v >> (uint(major) - 4)) & 0xf)
	return major*16 + minor
}

// bucketLow returns the smallest value mapping to bucket i, used as the
// representative value when reporting quantiles.
func bucketLow(i int) int64 {
	major := i / 16
	minor := i % 16
	if major < 4 {
		return int64(i)
	}
	return (int64(16+minor) << (uint(major) - 4))
}

// leadingZeros is bits.LeadingZeros64: a single LZCNT on the bucketing
// hot path (every latency sample funnels through bucketOf), replacing
// the bit-at-a-time shift loop the seed shipped.
func leadingZeros(x uint64) int { return bits.LeadingZeros64(x) }

// Record adds one sample.
func (h *Histogram) Record(v sim.Time) {
	x := int64(v)
	h.buckets[bucketOf(x)]++
	h.count++
	h.sum += x
	if h.count == 1 || x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count }

// Mean returns the arithmetic mean of samples, or 0 if empty.
func (h *Histogram) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return sim.Time(h.sum / h.count)
}

// Min and Max return the extreme recorded samples.
func (h *Histogram) Min() sim.Time { return sim.Time(h.min) }
func (h *Histogram) Max() sim.Time { return sim.Time(h.max) }

// Quantile returns an estimate of the q-quantile (0 <= q <= 1).
func (h *Histogram) Quantile(q float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i, c := range h.buckets {
		seen += c
		if seen >= target {
			v := bucketLow(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return sim.Time(v)
		}
	}
	return sim.Time(h.max)
}

// P50, P99 and P999 are the quantiles the paper reports.
func (h *Histogram) P50() sim.Time  { return h.Quantile(0.50) }
func (h *Histogram) P99() sim.Time  { return h.Quantile(0.99) }
func (h *Histogram) P999() sim.Time { return h.Quantile(0.999) }

// Reset clears all samples (used at the end of benchmark warmup).
func (h *Histogram) Reset() { *h = Histogram{} }

// Merge adds all samples of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o.count == 0 {
		return
	}
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Delta returns a - b and Sum returns a + b, field by field, for a counter
// struct: every field must be of int64 kind (sim.Time included) or a
// struct of such fields, anything else panics — a counter struct that
// grows a field gets its window and aggregation arithmetic for free, and
// one that grows a non-counter field fails its first snapshot instead of
// silently dropping it. Reflection makes them snapshot-time tools (a
// handful of calls per run), not something to call per simulated op.
func Delta[T any](a, b T) T { return combine(a, b, -1) }

// Sum is Delta's counterpart for aggregation across owners.
func Sum[T any](a, b T) T { return combine(a, b, 1) }

func combine[T any](a, b T, sign int64) T {
	var out T
	combineFields(reflect.ValueOf(&out).Elem(), reflect.ValueOf(a), reflect.ValueOf(b), sign)
	return out
}

func combineFields(out, a, b reflect.Value, sign int64) {
	switch out.Kind() {
	case reflect.Int64:
		out.SetInt(a.Int() + sign*b.Int())
	case reflect.Struct:
		for i := 0; i < out.NumField(); i++ {
			combineFields(out.Field(i), a.Field(i), b.Field(i), sign)
		}
	default:
		panic(fmt.Sprintf("metrics: counter arithmetic on a %s field", out.Type()))
	}
}

// Window is a measurement interval with derived rates.
type Window struct {
	Elapsed sim.Time
	Ops     int64
	Bytes   int64
}

// IOPS returns operations per second over the window.
func (w Window) IOPS() float64 {
	if w.Elapsed <= 0 {
		return 0
	}
	return float64(w.Ops) / w.Elapsed.Seconds()
}

// KIOPS returns thousands of operations per second.
func (w Window) KIOPS() float64 { return w.IOPS() / 1e3 }

// GBps returns gigabytes per second over the window.
func (w Window) GBps() float64 {
	if w.Elapsed <= 0 {
		return 0
	}
	return float64(w.Bytes) / 1e9 / w.Elapsed.Seconds()
}

// PoolStats counts free-list traffic on a hot path: Hits are objects
// served from a pool (or from storage embedded in a longer-lived object),
// Misses are fresh heap allocations. Misses is therefore the hot path's
// allocation count.
type PoolStats struct {
	Hits   int64
	Misses int64
}

// Hit records one pooled reuse.
func (p *PoolStats) Hit() { p.Hits++ }

// Miss records one fresh allocation.
func (p *PoolStats) Miss() { p.Misses++ }

// Gets returns the total number of object acquisitions.
func (p PoolStats) Gets() int64 { return p.Hits + p.Misses }

// HitRate returns the fraction of acquisitions served without allocating,
// in [0,1].
func (p PoolStats) HitRate() float64 {
	if g := p.Gets(); g > 0 {
		return float64(p.Hits) / float64(g)
	}
	return 0
}

// Sub returns the delta p - old.
func (p PoolStats) Sub(old PoolStats) PoolStats { return Delta(p, old) }

// Add returns the sum p + o (aggregation across initiators).
func (p PoolStats) Add(o PoolStats) PoolStats { return Sum(p, o) }

// BatchStats tracks doorbell batching: Rings counts doorbell rings
// (capsules sent), Items the commands they carried.
type BatchStats struct {
	Rings int64
	Items int64
}

// Ring records one doorbell ring carrying n commands.
func (b *BatchStats) Ring(n int) {
	b.Rings++
	b.Items += int64(n)
}

// Occupancy returns the mean commands per doorbell ring.
func (b BatchStats) Occupancy() float64 {
	if b.Rings > 0 {
		return float64(b.Items) / float64(b.Rings)
	}
	return 0
}

// Sub returns the delta b - old.
func (b BatchStats) Sub(old BatchStats) BatchStats { return Delta(b, old) }

// Add returns the sum b + o (aggregation across initiators).
func (b BatchStats) Add(o BatchStats) BatchStats { return Sum(b, o) }

// MsgsPerOp returns wire messages per operation — below 1 on a direction
// of the wire whose messages are coalesced (vectored submission batches,
// coalesced completion capsules); 0 when no operations ran.
func MsgsPerOp(msgs, ops int64) float64 {
	if ops <= 0 {
		return 0
	}
	return float64(msgs) / float64(ops)
}

// UtilSnapshot captures a resource busy-time integral at a point in time.
type UtilSnapshot struct {
	Busy     sim.Time
	At       sim.Time
	Capacity int
}

// Utilization returns the fraction of capacity busy between two snapshots,
// in [0,1].
func Utilization(a, b UtilSnapshot) float64 {
	dt := b.At - a.At
	if dt <= 0 || a.Capacity == 0 {
		return 0
	}
	return float64(b.Busy-a.Busy) / (float64(a.Capacity) * float64(dt))
}

// Efficiency is the paper's CPU-efficiency metric: throughput divided by
// CPU utilization (requests served per unit of CPU). Returns 0 when the
// CPU was idle.
func Efficiency(iops, util float64) float64 {
	if util <= 0 {
		return 0
	}
	return iops / util
}

// Series is a labelled sequence of (x, y) points, used by the harness to
// print figure data.
type Series struct {
	Label string
	X     []float64
	Y     []float64
}

// Add appends a point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table formats one or more series that share X values as an aligned text
// table with the given column headers. A column is as wide as its label
// needs, and at least 16.
func Table(title, xName string, series ...Series) string {
	out := fmt.Sprintf("# %s\n", title)
	out += fmt.Sprintf("%-12s", xName)
	width := make([]int, len(series))
	for k, s := range series {
		width[k] = max(16, len(s.Label)+2)
		out += fmt.Sprintf("%*s", width[k], s.Label)
	}
	out += "\n"
	if len(series) == 0 {
		return out
	}
	n := len(series[0].X)
	for i := 0; i < n; i++ {
		out += fmt.Sprintf("%-12g", series[0].X[i])
		for k, s := range series {
			if i < len(s.Y) {
				out += fmt.Sprintf("%*.2f", width[k], s.Y[i])
			} else {
				out += fmt.Sprintf("%*s", width[k], "-")
			}
		}
		out += "\n"
	}
	return out
}

// GeoMeanRatio returns the geometric mean of pointwise ratios a[i]/b[i],
// used when summarizing "A outperforms B by X× on average" claims.
func GeoMeanRatio(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	logSum := 0.0
	n := 0
	for i := range a {
		if a[i] <= 0 || b[i] <= 0 {
			continue
		}
		logSum += math.Log(a[i] / b[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}
