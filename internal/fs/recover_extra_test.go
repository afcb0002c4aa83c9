package fs

import (
	"fmt"
	"testing"

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
