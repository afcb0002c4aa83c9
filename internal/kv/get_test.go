package kv

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// TestGetMatchesMapModel runs seeded random puts, deletes and gets against
// a map and fails on the first get the two answer differently. Memtables
// hold about four records, so a run flushes many small L0 files whose key
// ranges overlap and whose tombstones shadow older files; MaxL0Files 2
// compacts after every other flush, 1<<20 never does; NegativeLookup on
// and off runs Get with and without the filters.
func TestGetMatchesMapModel(t *testing.T) {
	for _, maxL0 := range []int{2, 1 << 20} {
		for _, neg := range []bool{false, true} {
			t.Run(fmt.Sprintf("maxL0=%d/negative=%v", maxL0, neg), func(t *testing.T) {
				for seed := int64(1); seed <= 4; seed++ {
					checkAgainstModel(t, seed, maxL0, neg)
				}
			})
		}
	}
}

func checkAgainstModel(t *testing.T, seed int64, maxL0 int, neg bool) {
	eng, fsys, cfg := testDB(seed)
	cfg.MemtableBytes = 4 * (cfg.KeySize + cfg.ValueSize + 16)
	cfg.MaxL0Files = maxL0
	cfg.NegativeLookup = neg
	var db *DB
	eng.Go("model", func(p *sim.Proc) {
		var err error
		if db, err = Open(p, fsys, cfg); err != nil {
			t.Error(err)
			return
		}
		rng := rand.New(rand.NewSource(seed))
		model := map[string]bool{}
		for op := 0; op < 600; op++ {
			key := fmt.Sprintf("k%03d", rng.Intn(48))
			switch r := rng.Intn(10); {
			case r < 4:
				if err := db.Put(p, op%4, key, cfg.ValueSize); err != nil {
					t.Error(err)
					return
				}
				model[key] = true
			case r < 6:
				if err := db.Delete(p, op%4, key); err != nil {
					t.Error(err)
					return
				}
				delete(model, key)
			default:
				if got := db.Get(p, key); got != model[key] {
					t.Errorf("seed %d op %d: Get(%s) = %v, model says %v (%+v)", seed, op, key, got, model[key], db.Stats())
					return
				}
			}
		}
	})
	eng.Run()
	eng.Shutdown()
	if st := db.Stats(); st.Flushes < 20 || (maxL0 == 2) != (st.Compactions > 0) {
		t.Errorf("seed %d: %+v: want many flushes, and compactions iff MaxL0Files is 2", seed, st)
	}
}

// TestTombstoneOutsideLiveRangeShadows pins the case the model test finds
// only by chance: a file whose only record at "a" is a tombstone, and
// whose live keys all sort after it, still decides "a". Its key range and
// its filter must both cover the tombstone, or Get walks past it to the
// older put.
func TestTombstoneOutsideLiveRangeShadows(t *testing.T) {
	for _, neg := range []bool{false, true} {
		eng, fsys, cfg := testDB(7)
		cfg.MemtableBytes = 2 * (cfg.KeySize + cfg.ValueSize + 16)
		cfg.MaxL0Files = 1 << 20
		cfg.NegativeLookup = neg
		eng.Go("app", func(p *sim.Proc) {
			db, err := Open(p, fsys, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			// Three memtables of two records each: {a, b}, {a†, m}, {n, o}.
			for _, k := range []string{"a", "b", "-a", "m", "n", "o"} {
				if k[0] == '-' {
					err = db.Delete(p, 0, k[1:])
				} else {
					err = db.Put(p, 0, k, cfg.ValueSize)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
			drainFlushes(p, db)
			if len(db.l0) != 3 || !slices.Equal(db.l0[1].keys, []string{"m"}) || !slices.Equal(db.l0[1].dead, []string{"a"}) {
				t.Errorf("negative=%v: want L0 {a b} {a† m} {n o}, got %d files", neg, len(db.l0))
				return
			}
			if db.Get(p, "a") {
				t.Errorf("negative=%v: a deleted key read back through its tombstone's file", neg)
			}
			if !db.Get(p, "b") {
				t.Errorf("negative=%v: b lost", neg)
			}
		})
		eng.Run()
		eng.Shutdown()
	}
}

// drainFlushes waits until every sealed memtable is an L0 file.
func drainFlushes(p *sim.Proc, db *DB) {
	for db.flushing || len(db.imm) > 0 {
		db.flushCond.Wait(p)
	}
}

// sixteenL0 fills a store with 16 L0 files of 8 keys each, disjoint and
// ascending: file i holds k<i*8> … k<i*8+7>.
func sixteenL0(p *sim.Proc, db *DB) error {
	for i := 0; i < 16*8; i++ {
		if err := db.Put(p, 0, fmt.Sprintf("k%04d", i), db.cfg.ValueSize); err != nil {
			return err
		}
	}
	drainFlushes(p, db)
	if len(db.l0) != 16 {
		return fmt.Errorf("%d L0 files, want 16", len(db.l0))
	}
	return nil
}

func sixteenL0Options(cfg Options, neg bool) Options {
	cfg.MemtableBytes = 8 * (cfg.KeySize + cfg.ValueSize + 16)
	cfg.MaxL0Files = 1 << 20
	cfg.NegativeLookup = neg
	return cfg
}

// TestGetReadsOneSSTOfSixteen: a key held by the oldest of 16 disjoint L0
// files costs one index-block read, not sixteen — with and without the
// filters, since the key ranges alone rule the other fifteen out.
func TestGetReadsOneSSTOfSixteen(t *testing.T) {
	for _, neg := range []bool{false, true} {
		eng, fsys, cfg := testDB(8)
		cfg = sixteenL0Options(cfg, neg)
		eng.Go("app", func(p *sim.Proc) {
			db, err := Open(p, fsys, cfg)
			if err == nil {
				err = sixteenL0(p, db)
			}
			if err != nil {
				t.Error(err)
				return
			}
			before := db.Stats()
			if !db.Get(p, "k0003") {
				t.Errorf("negative=%v: k0003 missing", neg)
			}
			if st := db.Stats(); st.SSTReads-before.SSTReads != 1 || st.FilterSkips != before.FilterSkips {
				t.Errorf("negative=%v: %d SST reads, %d filter skips, want 1 and 0",
					neg, st.SSTReads-before.SSTReads, st.FilterSkips-before.FilterSkips)
			}
		})
		eng.Run()
		eng.Shutdown()
	}
}

// BenchmarkGet times one Get on a store of 16 disjoint L0 files, the
// stack underneath included: a hit in the oldest file, and an absent key
// inside one file's range with NegativeLookup off (range pruning leaves
// that one file to read). sst_reads/op is the index-block reads per get.
func BenchmarkGet(b *testing.B) {
	for _, bc := range []struct {
		name string
		key  string
		neg  bool
		hit  bool
	}{
		{"hit-oldest-of-16", "k0003", true, true},
		{"absent-unfiltered", "k0003x", false, false},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng, fsys, cfg := testDB(1)
			cfg = sixteenL0Options(cfg, bc.neg)
			var db *DB
			eng.Go("setup", func(p *sim.Proc) {
				var err error
				if db, err = Open(p, fsys, cfg); err == nil {
					err = sixteenL0(p, db)
				}
				if err != nil {
					b.Error(err)
				}
			})
			eng.Run()
			if db == nil || b.Failed() {
				return
			}
			before := db.Stats()
			eng.Go("get", func(p *sim.Proc) {
				for i := 0; i < b.N; i++ {
					if db.Get(p, bc.key) != bc.hit {
						b.Errorf("Get(%s) != %v", bc.key, bc.hit)
						return
					}
				}
			})
			b.ResetTimer()
			eng.Run()
			b.StopTimer()
			eng.Shutdown()
			b.ReportMetric(float64(db.Stats().SSTReads-before.SSTReads)/float64(b.N), "sst_reads/op")
		})
	}
}
