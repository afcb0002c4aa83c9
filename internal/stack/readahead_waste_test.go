package stack

import (
	"testing"

	"repro/internal/sim"
)

// TestRandomReadsIssueNoPrefetch is the read-ahead waste regression: a
// purely random-read tenant must not trigger the sequential detector.
// The detector only extends an exact ascending-LBA run, so random
// offsets across a space much larger than the cache should issue
// (essentially) zero prefetches — wasted read-ahead is device bandwidth
// stolen from demand reads.
func TestRandomReadsIssueNoPrefetch(t *testing.T) {
	eng := sim.New(1)
	cfg := cachedConfig(ModeRio, optane1()...)
	cfg.CacheBlocks = 64
	cfg.ReadAhead = 8
	c := New(eng, cfg)
	const space = 4096
	const reads = 500
	eng.Go("app", func(p *sim.Proc) {
		for i := uint64(0); i < space; i++ {
			r := c.Init(0).OrderedWrite(p, 0, i, 1, i+1, nil, true, i == space-1, false)
			if i == space-1 {
				c.Init(0).Wait(p, r)
			}
		}
		rng := eng.Rand()
		for i := 0; i < reads; i++ {
			lba := uint64(rng.Int63n(space))
			// Ordered-write media stamps are attribute-derived, so assert
			// presence, not a specific value.
			if recs := c.Init(0).ReadStreamAhead(p, 0, lba, 1, 0); recs[0].Stamp == 0 {
				t.Fatalf("read of written block %d returned no record", lba)
			}
		}
	})
	eng.Run()
	st := c.ReadCacheStatsAll()
	if st.ReadAheadIssued > reads/100 {
		t.Fatalf("random reads issued %d prefetches (> %d allowed of %d reads): ascending-LBA detector is too loose; stats %+v",
			st.ReadAheadIssued, reads/100, reads, st)
	}
	eng.Shutdown()
}
