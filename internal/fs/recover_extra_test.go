package fs

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stack"
)

// TestRecoveryAfterCheckpoint crashes after a checkpoint has moved state
// home and the journal generation advanced: recovery must combine the
// checkpointed superblock/home blocks with post-checkpoint journal
// entries, and must ignore stale pre-checkpoint journal records.
func TestRecoveryAfterCheckpoint(t *testing.T) {
	eng, c := newCluster(41, stack.ModeRio)
	cfg := DefaultOptions(RioFS, 1)
	cfg.JournalBlocks = 24 // tiny: force checkpoints quickly
	cfg.MaxInodes = 1 << 10
	cfg.DataBlocks = 1 << 14
	fsys := Open(c.Init(0), cfg)
	var names []string
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < 12; i++ {
			name := fmt.Sprintf("f%02d", i)
			f, err := fsys.Create(p, name)
			if err != nil {
				t.Error(err)
				return
			}
			fsys.Append(p, f, 4096)
			fsys.Fsync(p, f, 0)
			names = append(names, name)
		}
		if fsys.Stats().Checkpoints == 0 {
			t.Error("expected at least one checkpoint with a 24-block journal")
		}
		c.PowerCutAll()
	})
	eng.Run()
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverFull(p)
		fs2, _ := Remount(p, c.Init(0), cfg)
		for _, name := range names {
			f, err := fs2.Open(p, name)
			if err != nil {
				t.Errorf("%s lost (checkpointed or journaled state): %v", name, err)
				continue
			}
			if f.Size() != 4096 {
				t.Errorf("%s size = %d", name, f.Size())
			}
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestUnlinkDurableAfterFsync: an unlink journaled via a later fsync in
// the same directory must survive recovery (the file stays gone).
func TestUnlinkDurableAfterFsync(t *testing.T) {
	eng, c := newCluster(42, stack.ModeRio)
	cfg := DefaultOptions(RioFS, 2)
	cfg.JournalBlocks = 128
	cfg.MaxInodes = 256
	cfg.DataBlocks = 1 << 12
	fsys := Open(c.Init(0), cfg)
	eng.Go("app", func(p *sim.Proc) {
		a, _ := fsys.Create(p, "a")
		fsys.Append(p, a, 4096)
		fsys.Fsync(p, a, 0)
		if err := fsys.Unlink(p, "a"); err != nil {
			t.Error(err)
		}
		// The unlink delta rides with b's transaction (same directory).
		b, _ := fsys.Create(p, "b")
		fsys.Append(p, b, 4096)
		fsys.Fsync(p, b, 0)
		c.PowerCutAll()
	})
	eng.Run()
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverFull(p)
		fs2, _ := Remount(p, c.Init(0), cfg)
		if _, err := fs2.Open(p, "a"); err == nil {
			t.Error("unlinked file resurrected by recovery")
		}
		if _, err := fs2.Open(p, "b"); err != nil {
			t.Errorf("b lost: %v", err)
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestExt4CrashAtomicity: the JBD2 design must also recover atomically —
// group-committed transactions survive; the commit barrier ordering (meta
// FLUSH before commit records) prevents torn transactions even on flash.
func TestExt4CrashAtomicityOnFlash(t *testing.T) {
	eng := sim.New(43)
	scfg := stack.DefaultConfig(stack.ModeOrderless, stack.FlashTarget())
	scfg.Streams = 4
	scfg.QPs = 4
	scfg.KeepHistory = true
	c := stack.New(eng, scfg)
	cfg := DefaultOptions(Ext4, 1)
	cfg.JournalBlocks = 256
	cfg.MaxInodes = 256
	cfg.DataBlocks = 1 << 12
	fsys := Open(c.Init(0), cfg)
	synced := 0
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < 4; i++ {
			f, err := fsys.Create(p, fmt.Sprintf("f%d", i))
			if err != nil {
				return
			}
			fsys.Append(p, f, 4096)
			fsys.Fsync(p, f, 0)
			synced++
		}
	})
	// Cut power mid-run: some fsyncs returned, one may be mid-commit.
	eng.At(600*sim.Microsecond, func() { c.PowerCutAll() })
	eng.RunUntil(5 * sim.Millisecond)
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverFull(p)
		fs2, _ := Remount(p, c.Init(0), cfg)
		for i := 0; i < synced; i++ {
			name := fmt.Sprintf("f%d", i)
			f, err := fs2.Open(p, name)
			if err != nil {
				t.Errorf("fsync-acknowledged %s lost: %v", name, err)
				continue
			}
			if f.Size() != 4096 {
				t.Errorf("%s torn: size %d", name, f.Size())
			}
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestListDirectory covers the List API used by KV recovery.
func TestListDirectory(t *testing.T) {
	eng, fsys := smallFS(stack.ModeRio, RioFS, 44)
	eng.Go("app", func(p *sim.Proc) {
		fsys.Mkdir(p, "d")
		for _, n := range []string{"d/z", "d/a", "d/m"} {
			if _, err := fsys.Create(p, n); err != nil {
				t.Error(err)
			}
		}
		names, err := fsys.List(p, "d")
		if err != nil {
			t.Error(err)
			return
		}
		if len(names) != 3 || names[0] != "a" || names[2] != "z" {
			t.Errorf("List = %v, want sorted [a m z]", names)
		}
		root, err := fsys.List(p, "")
		if err != nil || len(root) != 1 || root[0] != "d" {
			t.Errorf("root List = %v err=%v", root, err)
		}
		if _, err := fsys.List(p, "missing"); err == nil {
			t.Error("List of missing dir should fail")
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestCutBeforeCommitRecord cuts power once a RioFS transaction's data,
// descriptor and metadata are persisted but its commit record is not. A
// first pass of the same seed finds that instant in the target's PMR log
// (the JM entry and every entry before it persisted, the JC entry not);
// the second pass cuts there. Recovery keeps the journal blocks, Remount
// must discard the transaction for want of its commit record, and the file
// whose fsync had not returned is absent.
func TestCutBeforeCommitRecord(t *testing.T) {
	cfg := DefaultOptions(RioFS, 1)
	cfg.MaxInodes, cfg.DataBlocks = 1<<10, 1<<14
	// run drives one synced file and one victim whose fsync the cut may
	// interrupt; jm is the victim's descriptor LBA once its fsync starts.
	run := func(cut sim.Time) (eng *sim.Engine, c *stack.Cluster, jm *uint64, synced *bool) {
		eng, c = newCluster(3, stack.ModeRio)
		fsys := Open(c.Init(0), cfg)
		jm, synced = new(uint64), new(bool)
		eng.Go("app", func(p *sim.Proc) {
			for _, name := range []string{"kept", "victim"} {
				f, err := fsys.Create(p, name)
				if err != nil {
					t.Error(err)
					return
				}
				if name == "kept" {
					fsys.Append(p, f, 2*BlockSize)
				} else {
					fsys.Append(p, f, BlockSize)
					j := fsys.journalFor(0)
					*jm = j.base + j.tail
				}
				fsys.Fsync(p, f, 0)
			}
			*synced = true
		})
		if cut > 0 {
			eng.At(cut, c.PowerCutAll)
		}
		return eng, c, jm, synced
	}

	eng, c, jm, synced := run(0)
	var cut sim.Time
	toggles := int64(-1)
	for cut == 0 && !*synced {
		eng.RunFor(10)
		if *jm == 0 || c.Target(0).Stats().PMRToggles == toggles {
			continue // no persist bit moved since the last look
		}
		toggles = c.Target(0).Stats().PMRToggles
		jmDone, jcDone, rest := false, false, true
		for _, e := range core.ScanRegion(c.Target(0).PMRPartition(0)) {
			switch e.LBA {
			case *jm:
				jmDone = e.Persist
			case *jm + 2:
				jcDone = e.Persist
			default:
				rest = rest && e.Persist
			}
		}
		if jmDone && rest && !jcDone {
			cut = eng.Now() + 1 // after every event of this instant
		}
	}
	eng.Shutdown()
	if cut == 0 {
		t.Fatal("no instant had the transaction's JM persisted without its JC")
	}

	eng, c, _, synced = run(cut)
	defer eng.Shutdown()
	eng.Run()
	if *synced {
		t.Fatal("the victim's fsync returned before the cut")
	}
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverFull(p)
		fs2, st := Remount(p, c.Init(0), cfg)
		if _, err := fs2.Open(p, "kept"); err != nil {
			t.Errorf("kept (fsync returned) lost: %v", err)
		}
		if _, err := fs2.Open(p, "victim"); err == nil {
			t.Error("victim survived without its commit record")
		}
		if st.Incomplete < 1 {
			t.Errorf("Remount stats %+v: the uncommitted transaction was not found", st)
		}
	})
	eng.Run()
}
