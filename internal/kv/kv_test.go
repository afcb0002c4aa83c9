package kv

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fs"
	"repro/internal/sim"
	"repro/internal/stack"
)

func testDB(seed int64) (*sim.Engine, *fs.FS, Options) {
	eng := sim.New(seed)
	scfg := stack.DefaultConfig(stack.ModeRio, stack.OptaneTarget())
	scfg.Streams = 4
	scfg.QPs = 4
	scfg.InitiatorCores = 8
	scfg.TargetCores = 8
	c := stack.New(eng, scfg)
	fcfg := fs.DefaultOptions(fs.RioFS, 4)
	fcfg.JournalBlocks = 512
	fcfg.MaxInodes = 1 << 10
	fcfg.DataBlocks = 1 << 16
	fsys := fs.Open(c.Init(0), fcfg)
	kcfg := DefaultOptions()
	kcfg.MemtableBytes = 64 << 10 // small: exercise flush
	return eng, fsys, kcfg
}

func TestPutGet(t *testing.T) {
	eng, fsys, cfg := testDB(1)
	eng.Go("app", func(p *sim.Proc) {
		db, err := Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 20; i++ {
			if err := db.Put(p, 0, fmt.Sprintf("key%04d", i), cfg.ValueSize); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 20; i++ {
			if !db.Get(p, fmt.Sprintf("key%04d", i)) {
				t.Errorf("key%04d missing", i)
			}
		}
		if db.Get(p, "absent") {
			t.Error("phantom key")
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestMemtableFlushCreatesSST(t *testing.T) {
	eng, fsys, cfg := testDB(2)
	cfg.MemtableBytes = 8 << 10 // ~8 puts per memtable
	var db *DB
	eng.Go("app", func(p *sim.Proc) {
		var err error
		db, err = Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 64; i++ {
			db.Put(p, 0, fmt.Sprintf("k%06d", i), cfg.ValueSize)
		}
	})
	eng.Run()
	if db.Stats().Flushes == 0 {
		t.Fatal("memtable never flushed")
	}
	if db.Stats().SSTFiles == 0 {
		t.Fatal("no SST files created")
	}
	// All keys still readable after flushes.
	eng.Go("check", func(p *sim.Proc) {
		for i := 0; i < 64; i++ {
			if !db.Get(p, fmt.Sprintf("k%06d", i)) {
				t.Errorf("k%06d lost after flush", i)
			}
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestCompactionTriggers(t *testing.T) {
	eng, fsys, cfg := testDB(3)
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
		for i := 0; i < 80; i++ {
			db.Put(p, 0, fmt.Sprintf("k%06d", i%40), cfg.ValueSize)
		}
	})
	eng.Run()
	if db.Stats().Compactions == 0 {
		t.Fatal("compaction never ran")
	}
	eng.Go("check", func(p *sim.Proc) {
		for i := 0; i < 40; i++ {
			if !db.Get(p, fmt.Sprintf("k%06d", i)) {
				t.Errorf("k%06d lost after compaction", i)
			}
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestWALSurvivesCrash(t *testing.T) {
	eng, fsys, cfg := testDB(4)
	c := fsys.Cluster()
	acked := 0
	eng.Go("app", func(p *sim.Proc) {
		db, err := Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 50; i++ {
			if err := db.Put(p, 0, fmt.Sprintf("k%04d", i), cfg.ValueSize); err != nil {
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
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverFull(p)
		fcfg := fs.DefaultOptions(fs.RioFS, 4)
		fcfg.JournalBlocks = 512
		fcfg.MaxInodes = 1 << 10
		fcfg.DataBlocks = 1 << 16
		fs2, _ := fs.Remount(p, c.Init(0), fcfg)
		n, err := RecoverCount(p, fs2, cfg)
		if err != nil {
			t.Errorf("WAL lost: %v", err)
			return
		}
		// Every acknowledged (fsynced) put must be in the recovered WAL.
		if n < acked {
			t.Errorf("recovered %d WAL records, want >= %d acknowledged", n, acked)
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestMultiThreadedPuts(t *testing.T) {
	eng, fsys, cfg := testDB(5)
	var db *DB
	eng.Go("open", func(p *sim.Proc) {
		var err error
		db, err = Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if db == nil {
		t.Fatal("open failed")
	}
	const threads, per = 4, 10
	done := 0
	for w := 0; w < threads; w++ {
		w := w
		eng.Go("put", func(p *sim.Proc) {
			for i := 0; i < per; i++ {
				if err := db.Put(p, w, fmt.Sprintf("w%dk%04d", w, i), cfg.ValueSize); err != nil {
					t.Error(err)
					return
				}
			}
			done++
		})
	}
	eng.Run()
	if done != threads {
		t.Fatalf("done = %d", done)
	}
	if db.Stats().Puts != threads*per {
		t.Fatalf("puts = %d", db.Stats().Puts)
	}
	eng.Shutdown()
}

// TestGetSurvivesCompactionSwap: Get walks the L0 files newest-first
// across SST reads that yield, and a compaction finishing meanwhile
// swaps L0 out from under the walk. The walk must run on the file set
// that was current when it started: 8 threads of a 50 % put / 50 % get
// mix with 256 KB memtables and the default MaxL0Files reach a compaction
// within 80 ms simulated, and every get of an acknowledged key
// must hit.
func TestGetSurvivesCompactionSwap(t *testing.T) {
	eng, fsys, cfg := testDB(6)
	cfg.MemtableBytes = 256 << 10
	const threads = 8
	var db *DB
	eng.Go("open", func(p *sim.Proc) {
		var err error
		if db, err = Open(p, fsys, cfg); err != nil {
			t.Error(err)
			return
		}
		for th := 0; th < threads; th++ {
			th := th
			eng.Go(fmt.Sprintf("mix%d", th), func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(int64(th)))
				for n := 0; p.Now() < 80*sim.Millisecond; n++ {
					if err := db.Put(p, th%4, fmt.Sprintf("t%d-%06d", th, n), cfg.ValueSize); err != nil {
						t.Error(err)
						return
					}
					// An old key: long flushed, so the lookup walks L0 (and L1).
					if k := fmt.Sprintf("t%d-%06d", th, rng.Intn(n/2+1)); !db.Get(p, k) {
						t.Errorf("acknowledged key %s missing", k)
						return
					}
				}
			})
		}
	})
	eng.Run()
	eng.Shutdown()
	if db.Stats().Compactions == 0 {
		t.Fatalf("no compaction inside the window: %+v", db.Stats())
	}
}

func TestUseAfterClose(t *testing.T) {
	eng, fsys, cfg := testDB(1)
	eng.Go("app", func(p *sim.Proc) {
		db, err := Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		if err := db.Put(p, 0, "k", cfg.ValueSize); err != nil {
			t.Error(err)
			return
		}
		st := db.Close(p)
		if err := db.Put(p, 0, "k2", cfg.ValueSize); !errors.Is(err, ErrClosed) {
			t.Errorf("Put after Close: %v, want ErrClosed", err)
		}
		if err := db.Delete(p, 0, "k"); !errors.Is(err, ErrClosed) {
			t.Errorf("Delete after Close: %v, want ErrClosed", err)
		}
		if db.Stats() != st {
			t.Errorf("a refused op moved the counters: %+v, closed with %+v", db.Stats(), st)
		}
	})
	eng.Run()
	eng.Shutdown()
}
