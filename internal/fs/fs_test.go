package fs

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stack"
)

func newCluster(seed int64, mode stack.Mode) (*sim.Engine, *stack.Cluster) {
	eng := sim.New(seed)
	cfg := stack.DefaultConfig(mode, stack.OptaneTarget())
	cfg.Streams = 4
	cfg.QPs = 4
	cfg.InitiatorCores = 8
	cfg.TargetCores = 8
	cfg.KeepHistory = true
	return eng, stack.New(eng, cfg)
}

func smallFS(mode stack.Mode, design Design, seed int64) (*sim.Engine, *FS) {
	eng, c := newCluster(seed, mode)
	cfg := DefaultOptions(design, 4)
	cfg.JournalBlocks = 256
	cfg.MaxInodes = 1 << 12
	cfg.DataBlocks = 1 << 16
	return eng, Open(c.Init(0), cfg)
}

func designMode(d Design) stack.Mode {
	switch d {
	case Ext4:
		return stack.ModeOrderless
	case HoraeFS:
		return stack.ModeHorae
	default:
		return stack.ModeRio
	}
}

func TestCreateWriteFsyncRead(t *testing.T) {
	for _, d := range []Design{Ext4, HoraeFS, RioFS} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			eng, fs := smallFS(designMode(d), d, 1)
			ok := false
			eng.Go("app", func(p *sim.Proc) {
				f, err := fs.Create(p, "file0")
				if err != nil {
					t.Error(err)
					return
				}
				if err := fs.Append(p, f, 8192); err != nil {
					t.Error(err)
					return
				}
				fs.Fsync(p, f, 0)
				if f.Size() != 8192 {
					t.Errorf("size = %d", f.Size())
				}
				if err := fs.Read(p, f, 0, 8192); err != nil {
					t.Error(err)
				}
				ok = true
			})
			eng.Run()
			if !ok {
				t.Fatal("workflow did not complete")
			}
			if fs.Stats().Fsyncs != 1 || fs.Stats().Commits != 1 {
				t.Fatalf("stats = %+v", fs.Stats())
			}
			eng.Shutdown()
		})
	}
}

func TestFsyncTraceShape(t *testing.T) {
	// The Fig. 14 structure: RioFS dispatches JM/JC in ~1µs, HoraeFS pays
	// a control-path round trip per dispatch, and both spend most time in
	// a single wait.
	traces := map[Design]FsyncTrace{}
	for _, d := range []Design{HoraeFS, RioFS} {
		eng, fs := smallFS(designMode(d), d, 2)
		fs.TraceHook = func(tr FsyncTrace) { traces[d] = tr }
		eng.Go("app", func(p *sim.Proc) {
			f, _ := fs.Create(p, "f")
			fs.Append(p, f, 4096)
			fs.Fsync(p, f, 0)
		})
		eng.Run()
		eng.Shutdown()
	}
	rio, horae := traces[RioFS], traces[HoraeFS]
	if rio.JMDispatch > 4*sim.Microsecond {
		t.Errorf("RioFS JM dispatch %v, want ~1-2µs", rio.JMDispatch)
	}
	if horae.JMDispatch < 10*sim.Microsecond {
		t.Errorf("HoraeFS JM dispatch %v, want >= 10µs (control path)", horae.JMDispatch)
	}
	if rio.Total >= horae.Total {
		t.Errorf("RioFS fsync %v should beat HoraeFS %v", rio.Total, horae.Total)
	}
	if rio.WaitIO == 0 || horae.WaitIO == 0 {
		t.Error("wait phase missing")
	}
	t.Logf("RioFS: %+v", rio)
	t.Logf("HoraeFS: %+v", horae)
}

func TestDirectoryOps(t *testing.T) {
	eng, fs := smallFS(stack.ModeRio, RioFS, 3)
	eng.Go("app", func(p *sim.Proc) {
		if err := fs.Mkdir(p, "d1"); err != nil {
			t.Error(err)
		}
		if err := fs.Mkdir(p, "d1"); err == nil {
			t.Error("duplicate mkdir should fail")
		}
		f, err := fs.Create(p, "d1/a")
		if err != nil {
			t.Error(err)
		}
		fs.Append(p, f, 4096)
		fs.Fsync(p, f, 0)
		if _, err := fs.Open(p, "d1/a"); err != nil {
			t.Error(err)
		}
		if _, err := fs.Open(p, "d1/missing"); err == nil {
			t.Error("open of missing file should fail")
		}
		if _, err := fs.Create(p, "nodir/x"); err == nil {
			t.Error("create in missing dir should fail")
		}
		if err := fs.Unlink(p, "d1/a"); err != nil {
			t.Error(err)
		}
		if _, err := fs.Open(p, "d1/a"); err == nil {
			t.Error("open after unlink should fail")
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestOverwriteIsIPU(t *testing.T) {
	eng, fs := smallFS(stack.ModeRio, RioFS, 4)
	eng.Go("app", func(p *sim.Proc) {
		f, _ := fs.Create(p, "f")
		fs.Append(p, f, 16384)
		fs.Fsync(p, f, 0)
		if err := fs.Overwrite(p, f, 4096, 4096); err != nil {
			t.Error(err)
		}
		fs.Fsync(p, f, 0)
		if err := fs.Overwrite(p, f, 1<<20, 4096); err == nil {
			t.Error("overwrite beyond EOF should fail")
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestBlockReuseTriggersFlush(t *testing.T) {
	eng, c := newCluster(5, stack.ModeRio)
	cfg := DefaultOptions(RioFS, 2)
	cfg.JournalBlocks = 128
	cfg.MaxInodes = 64
	cfg.DataBlocks = 4 // tiny data area: forces reuse
	fs := Open(c.Init(0), cfg)
	eng.Go("app", func(p *sim.Proc) {
		f1, _ := fs.Create(p, "a")
		if err := fs.Append(p, f1, 4*4096); err != nil {
			t.Error(err)
		}
		fs.Fsync(p, f1, 0)
		if err := fs.Unlink(p, "a"); err != nil {
			t.Error(err)
		}
		// Fresh space is gone: the next allocation reuses freed blocks and
		// must take the FLUSH fallback (§4.7).
		f2, _ := fs.Create(p, "b")
		if err := fs.Append(p, f2, 4096); err != nil {
			t.Error(err)
		}
		fs.Fsync(p, f2, 0)
	})
	eng.Run()
	if fs.Stats().ReuseFlush == 0 {
		t.Fatal("block reuse did not trigger the FLUSH fallback")
	}
	eng.Shutdown()
}

func TestJournalCheckpointReclaims(t *testing.T) {
	eng, c := newCluster(6, stack.ModeRio)
	cfg := DefaultOptions(RioFS, 1)
	cfg.JournalBlocks = 16 // tiny journal: force checkpoints
	cfg.MaxInodes = 128
	cfg.DataBlocks = 1 << 12
	fs := Open(c.Init(0), cfg)
	eng.Go("app", func(p *sim.Proc) {
		f, _ := fs.Create(p, "f")
		for i := 0; i < 12; i++ {
			fs.Append(p, f, 4096)
			fs.Fsync(p, f, 0)
		}
	})
	eng.Run()
	if fs.Stats().Checkpoints == 0 {
		t.Fatal("tiny journal never checkpointed")
	}
	if fs.Stats().Fsyncs != 12 {
		t.Fatalf("fsyncs = %d", fs.Stats().Fsyncs)
	}
	eng.Shutdown()
}

// TestFSCrashRecovery is the end-to-end crash-consistency test: files
// fsynced before the cut must exist after recovery with their full size;
// a file created but never fsynced must be absent; and this must hold for
// every design.
func TestFSCrashRecovery(t *testing.T) {
	for _, d := range []Design{Ext4, HoraeFS, RioFS} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			eng, c := newCluster(100+int64(d), designMode(d))
			cfg := DefaultOptions(d, 2)
			cfg.JournalBlocks = 256
			cfg.MaxInodes = 1 << 10
			cfg.DataBlocks = 1 << 14
			fsys := Open(c.Init(0), cfg)
			var synced []string
			eng.Go("app", func(p *sim.Proc) {
				for i := 0; i < 5; i++ {
					name := fmt.Sprintf("f%d", i)
					f, err := fsys.Create(p, name)
					if err != nil {
						t.Error(err)
						return
					}
					fsys.Append(p, f, 8192)
					fsys.Fsync(p, f, 0)
					synced = append(synced, name)
				}
				// Created but not fsynced: must vanish.
				nf, _ := fsys.Create(p, "unsynced")
				fsys.Append(p, nf, 4096)
				c.PowerCutAll()
			})
			eng.Run()
			eng.Go("recover", func(p *sim.Proc) {
				c.RecoverFull(p)
				fs2, st := Remount(p, c.Init(0), cfg)
				if st.Committed < len(synced) {
					t.Errorf("replayed %d txns, want >= %d", st.Committed, len(synced))
				}
				for _, name := range synced {
					f, err := fs2.Open(p, name)
					if err != nil {
						t.Errorf("%s lost after recovery: %v", name, err)
						continue
					}
					if f.Size() != 8192 {
						t.Errorf("%s size = %d, want 8192", name, f.Size())
					}
				}
				if _, err := fs2.Open(p, "unsynced"); err == nil {
					t.Error("unsynced file survived the crash")
				}
			})
			eng.Run()
			eng.Shutdown()
		})
	}
}

// TestFsyncReportsCutMidWait cuts the initiator while an fsync's thread
// is between its commit's delivery and its return (the wake-up after the
// wait): the commit reached the thread, but its server died before the
// call returned, so the fsync must return stack.ErrServerDown. A first
// pass of the same seed, uncut, finds the instant the fsync returns and
// expects no error; the second pass cuts one nanosecond before it. RioFS
// waits on its commit record (Initiator.Wait), Ext4 on its group-commit
// join (Initiator.WaitSignal).
func TestFsyncReportsCutMidWait(t *testing.T) {
	for _, d := range []Design{RioFS, Ext4} {
		t.Run(d.String(), func(t *testing.T) {
			run := func(cut sim.Time) (ret sim.Time, err error) {
				eng, c := newCluster(1, designMode(d))
				defer eng.Shutdown()
				fsys := Open(c.Init(0), DefaultOptions(d, 1))
				eng.Go("app", func(p *sim.Proc) {
					f, cerr := fsys.Create(p, "f")
					if cerr != nil {
						t.Error(cerr)
						return
					}
					fsys.Append(p, f, BlockSize)
					err = fsys.Fsync(p, f, 0)
					ret = p.Now()
				})
				if cut > 0 {
					eng.At(cut, func() { c.PowerCutInitiator(0) })
				}
				eng.Run()
				return ret, err
			}
			ret, err := run(0)
			if ret == 0 || err != nil {
				t.Fatalf("uncut fsync: returned at %v with %v, want a return without error", ret, err)
			}
			// The cut lands after the delivery: the wait still ends, on time.
			if got, err := run(ret - 1); got != ret || !errors.Is(err, stack.ErrServerDown) {
				t.Fatalf("fsync cut 1 ns before its return: returned at %v with %v, want %v with %v",
					got, err, ret, stack.ErrServerDown)
			}
		})
	}
}

// TestFSCrashMidFsync cuts power while fsyncs are in flight: recovery must
// see an atomic outcome per transaction (file fully present or fully
// absent), never a torn state.
func TestFSCrashMidFsync(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		eng, c := newCluster(seed, stack.ModeRio)
		cfg := DefaultOptions(RioFS, 4)
		cfg.JournalBlocks = 256
		cfg.MaxInodes = 1 << 10
		cfg.DataBlocks = 1 << 14
		fsys := Open(c.Init(0), cfg)
		const nFiles = 8
		for w := 0; w < 4; w++ {
			w := w
			eng.Go("app", func(p *sim.Proc) {
				for i := 0; i < nFiles/4; i++ {
					name := fmt.Sprintf("w%d.%d", w, i)
					f, err := fsys.Create(p, name)
					if err != nil {
						return
					}
					fsys.Append(p, f, 4096)
					fsys.Fsync(p, f, w)
				}
			})
		}
		eng.At(40*sim.Microsecond, func() { c.PowerCutAll() })
		eng.RunUntil(2 * sim.Millisecond)
		eng.Go("recover", func(p *sim.Proc) {
			c.RecoverFull(p)
			fs2, _ := Remount(p, c.Init(0), cfg)
			for w := 0; w < 4; w++ {
				for i := 0; i < nFiles/4; i++ {
					name := fmt.Sprintf("w%d.%d", w, i)
					f, err := fs2.Open(p, name)
					if err != nil {
						continue // fully absent: fine
					}
					if f.Size() != 4096 {
						t.Errorf("seed %d: %s torn: size %d", seed, name, f.Size())
					}
				}
			}
		})
		eng.Run()
		eng.Shutdown()
	}
}

// TestFsckScenarios cuts power under a mail spool. Before recovery each PMR
// partition holds only its initiator's entries; after it every synced file
// has its size, the unsynced one is gone, and replica sets agree.
func TestFsckScenarios(t *testing.T) {
	for _, tc := range []struct {
		name                              string
		design                            Design
		files, initiators, replicas, seed int
	}{
		{"riofs_2_initiators", RioFS, 8, 2, 1, 5},
		{"riofs_3_replicas", RioFS, 8, 1, 3, 7},
		{"horaefs", HoraeFS, 6, 1, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New(int64(tc.seed))
			scfg := stack.DefaultConfig(designMode(tc.design), slices.Repeat([]stack.TargetConfig{stack.OptaneTarget()}, tc.replicas)...)
			scfg.KeepHistory, scfg.Initiators, scfg.Replicas = true, tc.initiators, tc.replicas
			c := stack.New(eng, scfg)
			cfg := Options{Design: tc.design, Journals: 8, JournalBlocks: 1024, MaxInodes: 1 << 12, DataBlocks: 1 << 16}
			fsys := Open(c.Init(0), cfg)
			var sizes []uint64 // of mail/m%05d, once its fsync returned
			eng.Go("workload", func(p *sim.Proc) {
				fsys.Mkdir(p, "mail")
				for i := 0; i < tc.files; i++ {
					f, err := fsys.Create(p, fmt.Sprintf("mail/m%05d", i))
					if err != nil {
						return
					}
					fsys.Append(p, f, 4096*(1+i%3))
					fsys.Fsync(p, f, i%4)
					sizes = append(sizes, f.Size())
				}
				nf, _ := fsys.Create(p, "mail/uncommitted")
				fsys.Append(p, nf, 4096)
			})
			cut := 300 * sim.Microsecond
			eng.At(cut, func() { c.PowerCutAll() })
			eng.RunUntil(cut + 10*sim.Millisecond)
			eng.Run()
			for ti := 0; ti < c.Targets(); ti++ {
				for i := 0; i < c.Initiators(); i++ {
					for _, e := range core.ScanRegion(c.Target(ti).PMRPartition(i)) {
						if int(e.Initiator) != i {
							t.Errorf("target %d partition %d holds an entry of initiator %d", ti, i, e.Initiator)
						}
					}
				}
			}
			eng.Go("fsck", func(p *sim.Proc) {
				c.RecoverFull(p)
				fs2, _ := Remount(p, c.Init(0), cfg)
				for i, size := range sizes {
					if f, err := fs2.Open(p, fmt.Sprintf("mail/m%05d", i)); err != nil || f.Size() != size {
						t.Errorf("mail/m%05d after recovery: %v, want %d bytes", i, err, size)
					}
				}
				if _, err := fs2.Open(p, "mail/uncommitted"); err == nil {
					t.Error("mail/uncommitted survived the crash")
				}
				names, err := fs2.List(p, "mail")
				if err != nil {
					t.Fatal("mail lost:", err)
				}
				for _, n := range names {
					if _, err := fs2.Open(p, "mail/"+n); err != nil {
						t.Errorf("dangling dirent %s: %v", n, err)
					}
				}
			})
			eng.Run()
			if n := c.ReplicaDivergence(); n != 0 {
				t.Errorf("%d blocks differ between the members of a replica set", n)
			}
			eng.Shutdown()
		})
	}
}

func TestRecoverEmptyFS(t *testing.T) {
	eng, c := newCluster(10, stack.ModeRio)
	cfg := DefaultOptions(RioFS, 2)
	cfg.JournalBlocks = 64
	cfg.MaxInodes = 64
	cfg.DataBlocks = 1 << 10
	eng.Go("recover", func(p *sim.Proc) {
		fs2, st := Remount(p, c.Init(0), cfg)
		if st.Committed != 0 || st.InodesAlive != 1 {
			t.Errorf("empty recovery stats = %+v", st)
		}
		if _, err := fs2.Open(p, "nothing"); err == nil {
			t.Error("phantom file on empty fs")
		}
	})
	eng.Run()
	eng.Shutdown()
}

func TestExt4GroupCommitBatches(t *testing.T) {
	eng, fs := smallFS(stack.ModeOrderless, Ext4, 11)
	const threads = 8
	done := 0
	for i := 0; i < threads; i++ {
		i := i
		eng.Go("app", func(p *sim.Proc) {
			f, err := fs.Create(p, fmt.Sprintf("f%d", i))
			if err != nil {
				t.Error(err)
				return
			}
			fs.Append(p, f, 4096)
			fs.Fsync(p, f, i)
			done++
		})
	}
	eng.Run()
	if done != threads {
		t.Fatalf("done = %d", done)
	}
	// Group commit: fewer device flush pairs than 2×threads.
	flushes := fs.Cluster().Target(0).SSD(0).Stats().Flushes
	if flushes >= int64(2*threads) {
		t.Fatalf("flushes = %d, want < %d (group commit should batch)", flushes, 2*threads)
	}
	eng.Shutdown()
}

func TestUseAfterClose(t *testing.T) {
	eng, fs := smallFS(stack.ModeRio, RioFS, 1)
	eng.Go("app", func(p *sim.Proc) {
		if err := fs.Mkdir(p, "d"); err != nil {
			t.Error(err)
			return
		}
		f, err := fs.Create(p, "d/f")
		if err != nil {
			t.Error(err)
			return
		}
		if err := fs.Append(p, f, BlockSize); err != nil {
			t.Error(err)
			return
		}
		fs.Fsync(p, f, 0)
		st := fs.Close()
		for name, err := range map[string]error{
			"Mkdir":     fs.Mkdir(p, "e"),
			"Append":    fs.Append(p, f, BlockSize),
			"Overwrite": fs.Overwrite(p, f, 0, BlockSize),
			"Unlink":    fs.Unlink(p, "d/f"),
		} {
			if !errors.Is(err, ErrClosed) {
				t.Errorf("%s after Close: %v, want ErrClosed", name, err)
			}
		}
		if _, err := fs.Create(p, "g"); !errors.Is(err, ErrClosed) {
			t.Errorf("Create after Close: %v, want ErrClosed", err)
		}
		if _, err := fs.Open(p, "d/f"); !errors.Is(err, ErrClosed) {
			t.Errorf("Open after Close: %v, want ErrClosed", err)
		}
		if fs.Stats() != st || f.Size() != BlockSize {
			t.Errorf("a refused op changed the file system: %+v (closed with %+v), size %d", fs.Stats(), st, f.Size())
		}
	})
	eng.Run()
	eng.Shutdown()
}
