package stack

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// --- rcache unit tests: CLOCK replacement, invalidation scopes, the
// sequential detector, and read-ahead accounting. ---

func TestRCachePutGetStats(t *testing.T) {
	rc := newRCache(8, 2)
	if _, ok := rc.get(0, 100); ok {
		t.Fatal("empty cache hit")
	}
	rc.put(0, 100, 0, ssd.Rec{Stamp: 7}, false)
	rec, ok := rc.get(0, 100)
	if !ok || rec.Stamp != 7 {
		t.Fatalf("get = %+v ok=%v, want stamp 7", rec, ok)
	}
	// Same device LBA on another device is a distinct key.
	if _, ok := rc.get(1, 100); ok {
		t.Fatal("dev 1 should miss")
	}
	s := rc.stats
	if s.Hits != 1 || s.Misses != 2 || s.Inserts != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 2 misses / 1 insert", s)
	}
	if got := s.HitRate(); got != 1.0/3 {
		t.Fatalf("hit rate = %v", got)
	}
}

func TestRCacheOverwriteKeepsOneSlot(t *testing.T) {
	rc := newRCache(4, 1)
	rc.put(0, 5, 0, ssd.Rec{Stamp: 1}, false)
	rc.put(0, 5, 0, ssd.Rec{Stamp: 2}, false)
	if rc.stats.Inserts != 1 {
		t.Fatalf("overwrite allocated a second slot: inserts = %d", rc.stats.Inserts)
	}
	rec, _ := rc.get(0, 5)
	if rec.Stamp != 2 {
		t.Fatalf("stamp = %d, want the overwritten 2", rec.Stamp)
	}
}

func TestRCacheClockEvictsUnreferenced(t *testing.T) {
	rc := newRCache(4, 1)
	for i := uint64(0); i < 4; i++ {
		rc.put(0, i, 0, ssd.Rec{Stamp: i + 1}, false)
	}
	// Touch block 2: its reference bit survives one CLOCK sweep.
	rc.get(0, 2)
	// Inserting a 5th block must evict one of the untouched ones.
	rc.put(0, 99, 0, ssd.Rec{Stamp: 99}, false)
	if rc.stats.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", rc.stats.Evictions)
	}
	if !rc.contains(0, 2) {
		t.Fatal("referenced block 2 was evicted before unreferenced peers")
	}
	if !rc.contains(0, 99) {
		t.Fatal("new block not inserted")
	}
	n := 0
	for i := uint64(0); i < 4; i++ {
		if rc.contains(0, i) {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("%d of the original 4 remain, want 3", n)
	}
}

func TestRCacheInvalidateSetScoped(t *testing.T) {
	rc := newRCache(8, 1)
	rc.put(0, 1, 0, ssd.Rec{Stamp: 1}, false)
	rc.put(1, 1, 1, ssd.Rec{Stamp: 2}, false)
	rc.put(2, 1, 0, ssd.Rec{Stamp: 3}, false)
	rc.invalidateSet(0)
	if rc.contains(0, 1) || rc.contains(2, 1) {
		t.Fatal("set-0 blocks survived invalidateSet(0)")
	}
	if !rc.contains(1, 1) {
		t.Fatal("set-1 block dropped by invalidateSet(0)")
	}
	if rc.stats.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want 2", rc.stats.Invalidations)
	}
}

func TestRCacheInvalidateAllResetsDetector(t *testing.T) {
	rc := newRCache(8, 2)
	rc.put(0, 1, 0, ssd.Rec{Stamp: 1}, false)
	rc.streamAdvance(1, 10, 1, 4)
	rc.streamAdvance(1, 11, 1, 4) // run established
	rc.invalidateAll()
	if rc.contains(0, 1) {
		t.Fatal("block survived invalidateAll")
	}
	// The detector restarts: the next access is run length 1, no window.
	if _, n := rc.streamAdvance(1, 12, 1, 4); n != 0 {
		t.Fatalf("detector kept state across invalidateAll: window %d blocks", n)
	}
}

func TestRCacheStreamDetector(t *testing.T) {
	rc := newRCache(8, 2)
	// First access: run of 1, never a window.
	if _, n := rc.streamAdvance(0, 100, 2, 4); n != 0 {
		t.Fatalf("first access prefetched %d blocks", n)
	}
	// Sequential continuation: window [104, 108).
	start, n := rc.streamAdvance(0, 102, 2, 4)
	if start != 104 || n != 4 {
		t.Fatalf("window = [%d, +%d), want [104, +4)", start, n)
	}
	// Next continuation: the watermark trims the overlap — only [108, 110).
	start, n = rc.streamAdvance(0, 104, 2, 4)
	if start != 108 || n != 2 {
		t.Fatalf("window = [%d, +%d), want [108, +2)", start, n)
	}
	// A jump breaks the run and clears the watermark.
	if _, n := rc.streamAdvance(0, 500, 1, 4); n != 0 {
		t.Fatalf("non-sequential access prefetched %d blocks", n)
	}
	// Streams are independent: stream 1 saw nothing yet.
	if _, n := rc.streamAdvance(1, 501, 1, 4); n != 0 {
		t.Fatalf("stream 1 inherited stream 0's run: window %d", n)
	}
	// ahead == 0 disables the window even on an established run.
	rc2 := newRCache(8, 1)
	rc2.streamAdvance(0, 0, 1, 0)
	if _, n := rc2.streamAdvance(0, 1, 1, 0); n != 0 {
		t.Fatalf("ahead=0 still prefetched %d blocks", n)
	}
}

func TestRCacheReadAheadAccounting(t *testing.T) {
	rc := newRCache(2, 1)
	rc.put(0, 1, 0, ssd.Rec{Stamp: 1}, true) // prefetched
	rc.put(0, 2, 0, ssd.Rec{Stamp: 2}, true) // prefetched
	// Demand hit on a prefetched block counts once and clears the flag.
	rc.get(0, 1)
	rc.get(0, 1)
	if rc.stats.ReadAheadHits != 1 {
		t.Fatalf("readahead hits = %d, want 1 (flag must clear)", rc.stats.ReadAheadHits)
	}
	// Evicting the never-hit prefetched block counts as wasted.
	rc.put(0, 3, 0, ssd.Rec{Stamp: 3}, false)
	rc.put(0, 4, 0, ssd.Rec{Stamp: 4}, false)
	if rc.stats.ReadAheadWasted != 1 {
		t.Fatalf("readahead wasted = %d, want 1", rc.stats.ReadAheadWasted)
	}
}

// --- Cached read path on a live cluster. ---

// cachedConfig is smallConfig plus the read cache.
func cachedConfig(mode Mode, targets ...TargetConfig) Config {
	cfg := smallConfig(mode, targets...)
	cfg.CacheBlocks = 256
	return cfg
}

func TestCachedReadOwnWrite(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, cachedConfig(ModeRio, optane1()...))
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 100, 2, 0, nil, true, true, false)
		c.Init(0).Wait(p, r)
		recs := c.Init(0).Read(p, 100, 2)
		if len(recs) != 2 || recs[0].Stamp == 0 {
			t.Fatalf("read own write = %+v", recs)
		}
	})
	eng.Run()
	st := c.ReadCacheStatsAll()
	// Write population means the read never misses.
	if st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("cache stats = %+v, want 2 hits / 0 misses", st)
	}
	if got := c.Init(0).Stats().ReadCmds; got != 0 {
		t.Fatalf("read crossed the fabric %d times despite write population", got)
	}
	if bad := c.CacheAudit(); bad != 0 {
		t.Fatalf("cache audit: %d stale entries", bad)
	}
	eng.Shutdown()
}

func TestCachedReadMissFillsAndHits(t *testing.T) {
	eng := sim.New(1)
	cfg := cachedConfig(ModeRio, optane1()...)
	cfg.CacheBlocks = 8 // small: the write population below evicts fast
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		// Fill 32 blocks; only the last 8 can remain cached.
		for i := uint64(0); i < 32; i++ {
			r := c.Init(0).OrderedWrite(p, 0, i, 1, 0, nil, true, i == 31, false)
			if i == 31 {
				c.Init(0).Wait(p, r)
			}
		}
		before := c.ReadCacheStatsAll()
		recs := c.Init(0).Read(p, 0, 1) // long evicted: a real fabric miss
		if len(recs) != 1 || recs[0].Stamp == 0 {
			t.Fatalf("miss read = %+v", recs)
		}
		d := c.ReadCacheStatsAll().Sub(before)
		if d.Misses != 1 {
			t.Fatalf("delta = %+v, want 1 miss", d)
		}
		// Re-read: now cached.
		before = c.ReadCacheStatsAll()
		recs = c.Init(0).Read(p, 0, 1)
		if recs[0].Stamp == 0 {
			t.Fatal("refill lost the block")
		}
		if d := c.ReadCacheStatsAll().Sub(before); d.Hits != 1 || d.Misses != 0 {
			t.Fatalf("delta = %+v, want 1 hit", d)
		}
	})
	eng.Run()
	if bad := c.CacheAudit(); bad != 0 {
		t.Fatalf("cache audit: %d stale entries", bad)
	}
	eng.Shutdown()
}

func TestCachedReadAheadOnSequentialStream(t *testing.T) {
	eng := sim.New(1)
	cfg := cachedConfig(ModeRio, optane1()...)
	cfg.CacheBlocks = 16
	cfg.ReadAhead = 4
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		// Write 64 sequential blocks, then overflow the cache so the
		// scan below starts cold.
		for i := uint64(0); i < 64; i++ {
			r := c.Init(0).OrderedWrite(p, 0, i, 1, 0, nil, true, i == 63, false)
			if i == 63 {
				c.Init(0).Wait(p, r)
			}
		}
		for i := uint64(100); i < 132; i++ {
			r := c.Init(0).OrderedWrite(p, 0, i, 1, 0, nil, true, i == 131, false)
			if i == 131 {
				c.Init(0).Wait(p, r)
			}
		}
		// Sequential scan of the cold range through one stream.
		for i := uint64(0); i < 16; i++ {
			recs := make([]ssd.Rec, 1)
			c.Init(0).ReadStream(p, 0, i, 1, recs)
			if recs[0].Stamp == 0 {
				t.Fatalf("scan lost block %d", i)
			}
		}
	})
	eng.Run()
	st := c.ReadCacheStatsAll()
	if st.ReadAheadIssued == 0 {
		t.Fatalf("sequential scan issued no prefetch: %+v", st)
	}
	if st.ReadAheadHits == 0 {
		t.Fatalf("prefetched blocks never hit: %+v", st)
	}
	if bad := c.CacheAudit(); bad != 0 {
		t.Fatalf("cache audit: %d stale entries", bad)
	}
	eng.Shutdown()
}

func TestCacheOffReadPathUnchanged(t *testing.T) {
	// With CacheBlocks = 0 the cache machinery must stay fully inert.
	eng := sim.New(1)
	c := New(eng, smallConfig(ModeRio, optane1()...))
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 7, 1, 0, nil, true, true, false)
		c.Init(0).Wait(p, r)
		recs := c.Init(0).Read(p, 7, 1)
		if len(recs) != 1 || recs[0].Stamp == 0 {
			t.Fatalf("read = %+v", recs)
		}
	})
	eng.Run()
	if st := c.ReadCacheStatsAll(); st != (RCacheStats{}) {
		t.Fatalf("cache-off stats moved: %+v", st)
	}
	if bad := c.CacheAudit(); bad != 0 {
		t.Fatalf("cache audit on cache-off cluster = %d", bad)
	}
	eng.Shutdown()
}
