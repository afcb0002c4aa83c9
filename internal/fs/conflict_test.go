package fs

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stack"
)

// TestSameInodeAcrossCores exercises iJournaling's journal-conflict case
// (§4.7): the same file is fsynced from different cores, landing file-level
// transactions for one inode in different per-core journals. Recovery must
// apply the transaction with the highest global ID (the latest size).
func TestSameInodeAcrossCores(t *testing.T) {
	eng, c := newCluster(61, stack.ModeRio)
	cfg := DefaultOptions(RioFS, 4)
	cfg.JournalBlocks = 256
	cfg.MaxInodes = 256
	cfg.DataBlocks = 1 << 14
	fsys := Open(c.Init(0), cfg)
	eng.Go("app", func(p *sim.Proc) {
		f, err := fsys.Create(p, "shared")
		if err != nil {
			t.Error(err)
			return
		}
		// fsync the same inode from four different cores (four journals),
		// growing it each time.
		for core := 0; core < 4; core++ {
			fsys.Append(p, f, 4096)
			fsys.Fsync(p, f, core)
		}
		c.PowerCutAll()
	})
	eng.Run()
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverFull(p)
		fs2, st := Remount(p, c.Init(0), cfg)
		if st.Committed < 4 {
			t.Errorf("committed = %d, want >= 4 (one per core journal)", st.Committed)
		}
		f, err := fs2.Open(p, "shared")
		if err != nil {
			t.Fatalf("shared file lost: %v", err)
		}
		// The LATEST transaction (txn IDs are global and replay is ordered)
		// must win: full 16 KB.
		if f.Size() != 4*4096 {
			t.Fatalf("size = %d, want %d (latest sub-transaction must win)", f.Size(), 4*4096)
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestInterleavedInodesAcrossJournals: transactions for different inodes
// interleave across journals; replay ordering must not cross-corrupt.
func TestInterleavedInodesAcrossJournals(t *testing.T) {
	eng, c := newCluster(62, stack.ModeRio)
	cfg := DefaultOptions(RioFS, 2)
	cfg.JournalBlocks = 256
	cfg.MaxInodes = 256
	cfg.DataBlocks = 1 << 14
	fsys := Open(c.Init(0), cfg)
	eng.Go("app", func(p *sim.Proc) {
		a, _ := fsys.Create(p, "a")
		b, _ := fsys.Create(p, "b")
		for i := 0; i < 3; i++ {
			fsys.Append(p, a, 4096)
			fsys.Fsync(p, a, 0) // journal 0
			fsys.Append(p, b, 8192)
			fsys.Fsync(p, b, 1) // journal 1
		}
		c.PowerCutAll()
	})
	eng.Run()
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverFull(p)
		fs2, _ := Remount(p, c.Init(0), cfg)
		fa, errA := fs2.Open(p, "a")
		fb, errB := fs2.Open(p, "b")
		if errA != nil || errB != nil {
			t.Fatalf("files lost: %v %v", errA, errB)
		}
		if fa.Size() != 3*4096 {
			t.Errorf("a size = %d, want %d", fa.Size(), 3*4096)
		}
		if fb.Size() != 3*8192 {
			t.Errorf("b size = %d, want %d", fb.Size(), 3*8192)
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestIPUOverwriteSurvivesRecovery: an overwrite (IPU) fsynced before the
// crash keeps the file consistent — size unchanged, inode present — and
// recovery does not roll the in-place blocks back (§4.4.2: Rio leaves IPU
// recovery to the upper layer; RioFS's journaled metadata stays valid
// because the inode never changed).
func TestIPUOverwriteSurvivesRecovery(t *testing.T) {
	eng, c := newCluster(63, stack.ModeRio)
	cfg := DefaultOptions(RioFS, 2)
	cfg.JournalBlocks = 256
	cfg.MaxInodes = 256
	cfg.DataBlocks = 1 << 14
	fsys := Open(c.Init(0), cfg)
	eng.Go("app", func(p *sim.Proc) {
		f, _ := fsys.Create(p, "f")
		fsys.Append(p, f, 16384)
		fsys.Fsync(p, f, 0)
		if err := fsys.Overwrite(p, f, 4096, 8192); err != nil {
			t.Error(err)
			return
		}
		fsys.Fsync(p, f, 0)
		c.PowerCutAll()
	})
	eng.Run()
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverFull(p)
		fs2, _ := Remount(p, c.Init(0), cfg)
		f, err := fs2.Open(p, "f")
		if err != nil {
			t.Fatalf("file lost: %v", err)
		}
		if f.Size() != 16384 {
			t.Fatalf("size = %d, want 16384 (IPU must not change size)", f.Size())
		}
	})
	eng.Run()
	eng.Shutdown()
}
