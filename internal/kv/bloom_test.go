package kv

import (
	"fmt"
	"testing"

	"repro/internal/fs"
	"repro/internal/sim"
)

// --- bloom unit tests: membership, reset, saturation. ---

func TestBloomAddMayContain(t *testing.T) {
	b := newBloom(1 << 14)
	if b.mayContain("nothing-added") {
		t.Fatal("empty filter answered maybe")
	}
	for i := 0; i < 100; i++ {
		b.add(fmt.Sprintf("key%04d", i))
	}
	// No false negatives, ever: every added key answers maybe.
	for i := 0; i < 100; i++ {
		if !b.mayContain(fmt.Sprintf("key%04d", i)) {
			t.Fatalf("false negative on key%04d", i)
		}
	}
	// False positives are allowed but must be rare at this load factor.
	fp := 0
	for i := 0; i < 1000; i++ {
		if b.mayContain(fmt.Sprintf("absent%04d", i)) {
			fp++
		}
	}
	if fp > 50 {
		t.Fatalf("%d/1000 false positives, want under 5%%", fp)
	}
}

func TestBloomReset(t *testing.T) {
	b := newBloom(1 << 10)
	b.add("k")
	b.saturate()
	b.reset()
	if b.sat {
		t.Fatal("reset kept the filter saturated")
	}
	if b.mayContain("k") {
		t.Fatal("reset kept stale bits")
	}
	b.add("k2")
	if !b.mayContain("k2") {
		t.Fatal("filter unusable after reset")
	}
}

func TestBloomSaturate(t *testing.T) {
	b := newBloom(1 << 10)
	b.saturate()
	if !b.mayContain("anything-at-all") {
		t.Fatal("saturated filter answered absent")
	}
	// add on a saturated filter is a no-op (the answer is already the
	// trivial superset) and must not panic or flip bits meaningfully.
	b.add("k")
	if !b.mayContain("other") {
		t.Fatal("saturated filter narrowed after add")
	}
}

// --- Store-level integration. ---

// TestNegativeLookupCountsHits: with the filter on, gets of absent keys
// answer at the filter with zero SST probes, and the counter records it.
func TestNegativeLookupCountsHits(t *testing.T) {
	eng, fsys, cfg := testDB(11)
	cfg.NegativeLookup = true
	eng.Go("app", func(p *sim.Proc) {
		db, err := Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 30; i++ {
			if err := db.Put(p, 0, fmt.Sprintf("k%04d", i), cfg.ValueSize); err != nil {
				t.Error(err)
				return
			}
		}
		// Present keys still resolve; the filter never lies "absent".
		for i := 0; i < 30; i++ {
			if !db.Get(p, fmt.Sprintf("k%04d", i)) {
				t.Errorf("k%04d lost with filter on", i)
			}
		}
		const absent = 50
		for i := 0; i < absent; i++ {
			if db.Get(p, fmt.Sprintf("absent%04d", i)) {
				t.Errorf("phantom key absent%04d", i)
			}
		}
		s := db.Stats()
		// Tolerate a handful of false positives (those fall through to a
		// full lookup) but the vast majority must answer at the filter.
		if s.NegativeHits < absent-5 || s.NegativeHits > absent {
			t.Fatalf("negative hits = %d, want ~%d", s.NegativeHits, absent)
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestDeleteNeverNarrowsFilter: Delete cannot clear bloom bits, so with
// no compaction in the picture (large memtable: nothing ever flushes) a
// deleted key keeps answering "maybe" while Get correctly reports it
// gone.
func TestDeleteNeverNarrowsFilter(t *testing.T) {
	eng, fsys, cfg := testDB(14)
	cfg.NegativeLookup = true // default MemtableBytes: no flush, no compact
	eng.Go("app", func(p *sim.Proc) {
		db, err := Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 20; i++ {
			db.Put(p, 0, fmt.Sprintf("k%04d", i), cfg.ValueSize)
		}
		for i := 0; i < 10; i++ {
			db.Delete(p, 0, fmt.Sprintf("k%04d", i))
		}
		if db.Stats().Compactions != 0 {
			t.Fatal("config error: a compaction ran, the no-rebuild premise is void")
		}
		for i := 0; i < 10; i++ {
			if !db.MayContain(fmt.Sprintf("k%04d", i)) {
				t.Errorf("delete narrowed the filter for k%04d", i)
			}
			if db.Get(p, fmt.Sprintf("k%04d", i)) {
				t.Errorf("deleted key k%04d still readable", i)
			}
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestCompactRebuildExactifies: a compaction rebuilds the filter from
// the merged live key set — every live key stays in the superset, and
// compacted-away deletes become definite absences.
func TestCompactRebuildExactifies(t *testing.T) {
	eng, fsys, cfg := testDB(12)
	cfg.NegativeLookup = true
	cfg.MemtableBytes = 4 << 10
	cfg.MaxL0Files = 2
	var db *DB
	eng.Go("app", func(p *sim.Proc) {
		var err error
		db, err = Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 40; i++ {
			db.Put(p, 0, fmt.Sprintf("k%04d", i), cfg.ValueSize)
		}
		for i := 0; i < 20; i++ {
			db.Delete(p, 0, fmt.Sprintf("k%04d", i))
		}
		// Filler traffic pushes the tombstones through flush + compaction.
		for i := 0; i < 60; i++ {
			db.Put(p, 0, fmt.Sprintf("fill%04d", i), cfg.ValueSize)
		}
	})
	eng.Run()
	if db.Stats().Compactions == 0 {
		t.Fatal("compaction never ran: the rebuild path is untested")
	}
	eng.Go("check", func(p *sim.Proc) {
		// Hard superset invariant: every live key answers maybe.
		for i := 20; i < 40; i++ {
			if !db.MayContain(fmt.Sprintf("k%04d", i)) {
				t.Errorf("rebuild dropped live key k%04d", i)
			}
			if !db.Get(p, fmt.Sprintf("k%04d", i)) {
				t.Errorf("live key k%04d lost", i)
			}
		}
		for i := 0; i < 60; i++ {
			if !db.MayContain(fmt.Sprintf("fill%04d", i)) {
				t.Errorf("rebuild dropped live key fill%04d", i)
			}
		}
		// Deleted keys read absent, and the rebuild re-exactified at
		// least part of the filter (compacted-away tombstones leave
		// definite absences behind).
		exact := 0
		for i := 0; i < 20; i++ {
			if db.Get(p, fmt.Sprintf("k%04d", i)) {
				t.Errorf("deleted key k%04d resurfaced", i)
			}
			if !db.MayContain(fmt.Sprintf("k%04d", i)) {
				exact++
			}
		}
		if exact == 0 {
			t.Error("no deleted key became definite-absent after compaction")
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestReopenSaturationSurvivesCompact: after a crash the exact key set
// is unrecoverable, so Reopen saturates the filter — and a later
// compaction must NOT rebuild it (pre-crash durable keys would vanish
// from the superset).
func TestReopenSaturationSurvivesCompact(t *testing.T) {
	eng, fsys, cfg := testDB(13)
	cfg.NegativeLookup = true
	c := fsys.Cluster()
	acked := 0
	eng.Go("app", func(p *sim.Proc) {
		db, err := Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 50; i++ {
			if err := db.Put(p, 0, fmt.Sprintf("pre%04d", i), cfg.ValueSize); err != nil {
				return
			}
			acked++
			if i == 24 {
				c.PowerCutAll()
				return
			}
		}
	})
	eng.Run()
	if acked == 0 {
		t.Fatal("no puts acknowledged before crash")
	}
	var db2 *DB
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverFull(p)
		fcfg := fs.DefaultOptions(fs.RioFS, 4)
		fcfg.JournalBlocks = 512
		fcfg.MaxInodes = 1 << 10
		fcfg.DataBlocks = 1 << 16
		fs2, _ := fs.Remount(p, c.Init(0), fcfg)
		rcfg := cfg
		rcfg.MemtableBytes = 4 << 10
		rcfg.MaxL0Files = 2
		var err error
		db2, err = Reopen(p, fs2, rcfg)
		if err != nil {
			t.Errorf("reopen: %v", err)
			return
		}
		// Saturated: every acked pre-crash key answers maybe — the
		// superset contract the serve crash tests rely on.
		for i := 0; i < acked; i++ {
			if !db2.MayContain(fmt.Sprintf("pre%04d", i)) {
				t.Errorf("reopen lost acked key pre%04d from the superset", i)
			}
		}
		if !db2.MayContain("never-written-key") {
			t.Error("reopened filter is not saturated")
		}
		// Push fresh traffic through flush + compaction.
		for i := 0; i < 60; i++ {
			db2.Put(p, 0, fmt.Sprintf("post%04d", i), cfg.ValueSize)
		}
	})
	eng.Run()
	if db2 == nil {
		t.Fatal("recovery failed")
	}
	if db2.Stats().Compactions == 0 {
		t.Fatal("compaction never ran after reopen")
	}
	eng.Go("check", func(p *sim.Proc) {
		// The compaction must have left the filter saturated: a rebuild
		// from post-crash state alone would drop the unknowable
		// pre-crash keys and break the superset invariant.
		if !db2.MayContain("never-written-key") {
			t.Error("compaction rebuilt a saturated filter")
		}
		for i := 0; i < acked; i++ {
			if !db2.MayContain(fmt.Sprintf("pre%04d", i)) {
				t.Errorf("pre-crash key pre%04d left the superset", i)
			}
		}
		// A saturated filter can never answer at the filter.
		before := db2.Stats().NegativeHits
		if db2.Get(p, "never-written-key") {
			t.Error("phantom key after recovery")
		}
		if db2.Stats().NegativeHits != before {
			t.Error("saturated filter produced a negative hit")
		}
		for i := 0; i < 60; i++ {
			if !db2.Get(p, fmt.Sprintf("post%04d", i)) {
				t.Errorf("post-crash key post%04d lost", i)
			}
		}
	})
	eng.Run()
	eng.Shutdown()
}
