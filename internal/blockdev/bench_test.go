package blockdev

import "testing"

// BenchmarkAppendExtents maps one 16-block request over a 4-device,
// 4-block-chunk volume into caller scratch (`make bench-layers`).
func BenchmarkAppendExtents(b *testing.B) {
	vol := NewVolume([]DevRef{{Server: 0, SSD: 0, Blocks: 1 << 22}, {Server: 0, SSD: 1, Blocks: 1 << 22},
		{Server: 1, SSD: 0, Blocks: 1 << 22}, {Server: 1, SSD: 1, Blocks: 1 << 22}}, 4)
	var scratch []Extent
	n := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		scratch = vol.AppendExtents(scratch[:0], uint64(i)*16, 16)
		n += len(scratch)
	}
	if n != 4*b.N {
		b.Fatalf("%d extents over %d requests, want 4 each", n, b.N)
	}
}
