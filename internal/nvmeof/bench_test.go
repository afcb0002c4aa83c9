package nvmeof

import (
	"testing"

	"repro/internal/core"
)

// BenchmarkVector8EncodeCheck is one 8-SQE Rio vector's encode plus the
// target's check of it: the per-capsule ordering-attribute cost.
func BenchmarkVector8EncodeCheck(b *testing.B) {
	attr := core.Attr{Stream: 3, ReqID: 9, SeqStart: 7, SeqEnd: 7, Num: 1, ServerIdx: 5,
		LBA: 4096, Blocks: 1, Boundary: true}
	sqes := make([]*SQE, 8)
	for i := range sqes {
		s := RioWriteCommand(1, attr)
		sqes[i] = &s
	}
	b.ReportAllocs()
	for b.Loop() {
		EncodeVector(sqes)
		if CheckVector(sqes) != nil {
			b.Fatal("vector failed its check")
		}
	}
}

// BenchmarkCQEVector8EncodeCheck is the same for one 8-CQE completion
// vector.
func BenchmarkCQEVector8EncodeCheck(b *testing.B) {
	cqes := make([]CQE, 8)
	for i := range cqes {
		cqes[i] = NewCQE(uint64(i))
	}
	b.ReportAllocs()
	for b.Loop() {
		EncodeCQEVector(cqes)
		if CheckCQEVector(cqes) != nil {
			b.Fatal("vector failed its check")
		}
	}
}
