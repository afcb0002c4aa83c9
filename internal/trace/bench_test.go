package trace

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkSpanCycle is one sampled span's life: start, every milestone
// marked, one wait added, finish (which retires it and recycles its
// record).
func BenchmarkSpanCycle(b *testing.B) {
	tr := New(Config{SampleEvery: 1}, 1)
	slab := tr.NewSlab()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		at := sim.Time(i * 100)
		s := tr.Start(slab, 0, 0, uint64(i), 1, at)
		seq := s.Seq()
		for m := MStaged; m < NumMilestones; m++ {
			s.Mark(seq, m, at+sim.Time(m))
		}
		s.AddWait(seq, WaitPMR, 5)
		tr.Finish(s, seq)
	}
	if tr.Stats().Finished == 0 {
		b.Fatal("no span finished")
	}
}
