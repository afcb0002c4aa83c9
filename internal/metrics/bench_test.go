package metrics

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkHistogramRecord is one latency sample recorded, over a spread of
// values up to 200 µs.
func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		h.Record(sim.Time(i * 37 % 200000))
	}
	if h.Count() == 0 {
		b.Fatal("nothing recorded")
	}
}
