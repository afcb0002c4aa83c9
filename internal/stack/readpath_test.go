package stack

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// TestInSyncMemberHasNoBacklog pins the invariant read routing rests on: a
// member is in sync only with an empty resync backlog, so the lowest
// in-sync member, which serves every read of its set, holds every block.
// A checker polls it every 100 ns while a writer and a reader run through a
// member cut, a whole-cluster cut with the degraded member's backlog still
// owed (replicaRepair), and another member cut whose background resync
// (rejoin) drains under live traffic.
func TestInSyncMemberHasNoBacklog(t *testing.T) {
	eng := sim.New(3)
	c := New(eng, replConfig(3)) // a majority of 3: degraded writes complete
	defer eng.Shutdown()
	const n = 48
	checks, bad, owed := 0, 0, 0
	// run runs fns as procs to completion under the checker.
	run := func(fns ...func(p *sim.Proc)) {
		live := len(fns)
		for _, fn := range fns {
			eng.Go("phase", func(p *sim.Proc) { fn(p); live-- })
		}
		eng.Go("checker", func(p *sim.Proc) {
			for {
				for _, rs := range c.replSets {
					for k := range rs.members {
						checks++
						switch {
						case rs.inSync[k] && len(rs.dirty[k]) > 0:
							bad++
						case len(rs.dirty[k]) > 0:
							owed++
						}
					}
				}
				if live == 0 {
					return // the phase's end state is checked too
				}
				p.Sleep(100)
			}
		})
		for end := eng.Now() + sim.Second; live > 0 && eng.Now() < end; {
			eng.RunUntil(eng.Now() + sim.Millisecond)
		}
		if live > 0 {
			t.Fatalf("%d procs of a phase still running after 1 s", live)
		}
	}
	writer := func(stream int) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			for i := uint64(0); i < n; i++ {
				r := c.Init(0).OrderedWrite(p, stream, i, 1, 0, nil, true, i == n-1, false)
				if i == n-1 {
					c.Init(0).Wait(p, r)
				}
			}
		}
	}
	reader := func(p *sim.Proc) {
		for round := 0; round < 8; round++ {
			for i := uint64(0); i < n; i++ {
				c.Init(0).Read(p, i, 1)
			}
			p.Sleep(sim.Microsecond)
		}
	}

	run(writer(0), reader)
	c.PowerCutTarget(1)
	run(writer(1), reader)
	if c.ResyncBacklog(1) == 0 {
		t.Fatal("no resync backlog accumulated while member 1 was down")
	}
	c.PowerCutAll()
	run(func(p *sim.Proc) { c.RecoverFull(p) })
	c.PowerCutTarget(1)
	run(writer(2), reader)
	run(func(p *sim.Proc) { c.RecoverTarget(p, 1) }, writer(3), reader)
	if !c.InSync(0) || !c.InSync(1) || !c.InSync(2) {
		t.Fatal("the set did not end the cycle fully in sync")
	}
	if owed == 0 {
		t.Fatal("the checker never saw a backlog")
	}
	if bad != 0 {
		t.Fatalf("%d of %d checks saw an in-sync member with a resync backlog", bad, checks)
	}
	mediaIdentical(t, c)
}

// TestDegradedReadsFreshDuringResync is the black-box regression for the
// stale-read hazard: writes land while a member is down, and every read
// issued while the background resync is still draining must return the
// post-cut content, never the rejoining member's stale media.
func TestDegradedReadsFreshDuringResync(t *testing.T) {
	eng := sim.New(7)
	c := New(eng, replConfig(2))
	defer eng.Shutdown()
	const n = 48

	// Phase 1: baseline content on both members.
	eng.Go("app", func(p *sim.Proc) {
		for i := uint64(0); i < n; i++ {
			r := c.Init(0).OrderedWrite(p, 0, i, 1, 0, nil, true, i == n-1, false)
			if i == n-1 {
				c.Init(0).Wait(p, r)
			}
		}
	})
	eng.Run()

	// Phase 2: member 1 dies; overwrite everything degraded.
	c.PowerCutTarget(1)
	eng.Go("app2", func(p *sim.Proc) {
		for i := uint64(0); i < n; i++ {
			r := c.Init(0).OrderedWrite(p, 1, i, 1, 0, nil, true, i == n-1, false)
			if i == n-1 {
				c.Init(0).Wait(p, r)
			}
		}
	})
	eng.Run()
	if c.ResyncBacklog(1) == 0 {
		t.Fatal("no resync backlog accumulated while member 1 was down")
	}

	// Snapshot the fresh truth from the surviving member's media.
	want := make([]uint64, n)
	for i := uint64(0); i < n; i++ {
		dev, devLBA := c.Volume().Map(i)
		ref := c.Volume().Dev(dev)
		rec, ok := c.Target(0).SSD(ref.SSD).Visible(devLBA)
		if !ok || rec.Stamp == 0 {
			t.Fatalf("survivor lost lba %d", i)
		}
		want[i] = rec.Stamp
	}

	// Phase 3: background resync and concurrent reads. Every read while
	// the drain is in flight must see the overwritten stamps.
	stale := 0
	eng.Go("resync", func(p *sim.Proc) { c.RecoverTarget(p, 1) })
	eng.Go("reader", func(p *sim.Proc) {
		for round := 0; round < 40 && !c.InSync(1); round++ {
			for i := uint64(0); i < n; i++ {
				recs := c.Init(0).Read(p, i, 1)
				if len(recs) != 1 || recs[0].Stamp != want[i] {
					stale++
				}
			}
			p.Sleep(2 * sim.Microsecond)
		}
	})
	eng.Run()
	if stale != 0 {
		t.Fatalf("%d stale or lost reads during background resync", stale)
	}
	if !c.InSync(1) {
		t.Fatal("member 1 never rejoined")
	}
	mediaIdentical(t, c)
	if v := c.OrderAudit(); v != 0 {
		t.Fatalf("order audit: %d violations", v)
	}
}

// TestUncachedReadSurvivesMemberCut: with no cache configured a reader in
// flight toward a member when that member is power-cut must be rerouted to
// a surviving member like a cached-path miss is — a powered-off SSD drops
// its commands, so a read left waiting on it never returns.
func TestUncachedReadSurvivesMemberCut(t *testing.T) {
	eng := sim.New(5)
	c := New(eng, replConfig(3)) // CacheBlocks == 0: no cache
	defer eng.Shutdown()
	const n = 2000
	reads := 0
	eng.Go("reader", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			c.Init(0).ReadStream(p, 0, uint64(i), 1, nil) // never written: every read crosses the fabric
			reads++
		}
	})
	// Member 0 serves the set's reads; the cut lands with one in flight.
	eng.At(100*sim.Microsecond+300, func() { c.PowerCutTarget(0) })
	eng.RunUntil(200 * sim.Millisecond)
	if reads != n {
		t.Fatalf("%d of %d reads returned: the reader is stranded on the cut member", reads, n)
	}
	if st := c.Init(0).Stats(); st.ReadCmds != n {
		t.Fatalf("%d read commands counted for %d single-extent reads", st.ReadCmds, n)
	}
}

// TestCutInitiatorPostsNoUncachedRead: an initiator power-cut while a
// reader is being charged its SubmitBio posts nothing afterwards, on the
// uncached path as on the cached one.
func TestCutInitiatorPostsNoUncachedRead(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, smallConfig(ModeRio, optane1()...)) // CacheBlocks == 0: no cache
	defer eng.Shutdown()
	returned := false
	eng.Go("reader", func(p *sim.Proc) {
		c.Init(0).Read(p, 0, 1)
		returned = true
	})
	eng.At(300, func() { c.PowerCutInitiator(0) }) // inside the 700 ns SubmitBio
	eng.RunUntil(sim.Millisecond)
	if n := c.Init(0).Stats().ReadCmds; n != 0 {
		t.Fatalf("a cut initiator posted %d reads", n)
	}
	if n := c.Target(0).SSD(0).Stats().Reads; n != 0 {
		t.Fatalf("the device served %d reads posted by a cut initiator", n)
	}
	if !returned {
		t.Fatal("the reader of a cut initiator never returned")
	}
}

// TestCutInitiatorPostsNoReadWhileBuilding: an initiator cut while a reader
// is charged its CmdBuild and PostMsg posts nothing afterwards, with or
// without a cache. A read posted by the dead incarnation would register under
// the new epoch and could fill the next incarnation's cache.
func TestCutInitiatorPostsNoReadWhileBuilding(t *testing.T) {
	for _, cache := range []int{0, 64} {
		eng := sim.New(1)
		cfg := smallConfig(ModeRio, optane1()...)
		cfg.CacheBlocks = cache
		c := New(eng, cfg)
		k := c.Init(0).costs
		returned := false
		eng.Go("reader", func(p *sim.Proc) {
			c.Init(0).Read(p, 0, 1)
			returned = true
		})
		eng.At(k.SubmitBio+k.CacheBlockCPU*sim.Time(min(cache, 1))+100, func() { c.PowerCutInitiator(0) })
		eng.RunUntil(sim.Millisecond)
		if n, m := c.Init(0).Stats().ReadCmds, c.Target(0).SSD(0).Stats().Reads; n != 0 || m != 0 || !returned {
			t.Errorf("cache %d: a cut initiator posted %d reads, the device served %d; reader returned %v", cache, n, m, returned)
		}
		if st := c.Init(0).ReadCacheStats(); st.Inserts != 0 {
			t.Errorf("cache %d: %d blocks filled after the cut", cache, st.Inserts)
		}
		eng.Shutdown()
	}
}

// TestUncachedReadSplitsAtTransferLimit: an uncached read of an extent longer
// than the device transfer limit goes out as several commands, like the cached
// path's, instead of one the device refuses ("ssd: command of 64 blocks
// exceeds max transfer 32" panicked the simulation).
func TestUncachedReadSplitsAtTransferLimit(t *testing.T) {
	eng := sim.New(1)
	cfg := smallConfig(ModeRio, optane1()...)
	cfg.ChunkBlocks = 64
	c := New(eng, cfg)
	defer eng.Shutdown()
	eng.Go("app", func(p *sim.Proc) {
		in := c.Init(0)
		w := in.OrderedWrite(p, 0, 0, 64, 0, nil, true, false, false)
		in.Wait(p, w)
		recs := in.Read(p, 0, 64)
		for i, rec := range recs {
			if rec.Stamp == 0 {
				t.Errorf("block %d of %d read back empty", i, len(recs))
			}
		}
		if st := in.Stats(); len(recs) != 64 || st.ReadCmds != 2 {
			t.Errorf("%d blocks over %d read commands, want 64 over 2", len(recs), st.ReadCmds)
		}
	})
	eng.Run()
}

// TestUncachedReadPaysCachedMissCosts: with no cache a read runs the cached
// path's steps without the probe. A 1-block read on an idle cluster keeps
// the initiator's cores busy for SubmitBio + CmdBuild + PostMsg + CplHandle,
// a cached miss's costs less CacheBlockCPU, and a 2-block read over both
// SSDs of one target posts one message carrying two commands.
func TestUncachedReadPaysCachedMissCosts(t *testing.T) {
	eng := sim.New(1)
	twoSSD := TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig(), ssd.OptaneConfig()}}
	c := New(eng, smallConfig(ModeRio, twoSSD))
	defer eng.Shutdown()
	eng.Go("app", func(p *sim.Proc) {
		in := c.Init(0)
		k := in.costs
		before := c.InitiatorUtil().Busy
		in.Read(p, 0, 1)
		if busy, want := c.InitiatorUtil().Busy-before, k.SubmitBio+k.CmdBuild+k.PostMsg+k.CplHandle; busy != want {
			t.Errorf("1-block uncached read kept the initiator busy %d ns, want %d", busy, want)
		}
		s0 := in.Stats()
		in.Read(p, 0, 2)
		if st := in.Stats(); st.ReadMsgs-s0.ReadMsgs != 1 || st.ReadCmds-s0.ReadCmds != 2 {
			t.Errorf("2-block read over two SSDs: %d messages, %d commands, want 1 and 2",
				st.ReadMsgs-s0.ReadMsgs, st.ReadCmds-s0.ReadCmds)
		}
	})
	eng.Run()
}
