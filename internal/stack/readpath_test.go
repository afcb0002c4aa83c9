package stack

import (
	"testing"

	"repro/internal/sim"
)

// --- Extent-level read routing: a member whose resync backlog still
// holds an extent must not serve reads of that extent, even while its
// in-sync flag is already set. ---

func TestReadMemberForSkipsBackloggedExtent(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, replConfig(2))
	defer eng.Shutdown()
	rs := c.replSets[0]

	// Healthy set: the first in-sync member serves, matching readReplica.
	if m := c.readMemberFor(0, 0, 100, 4); m != rs.members[0] {
		t.Fatalf("healthy set routed to %d, want member %d", m, rs.members[0])
	}
	if got, want := c.readMemberFor(0, 0, 100, 4), c.readReplica(0); got != want {
		t.Fatalf("extent-level choice %d != set-level choice %d on a clean set", got, want)
	}

	// Force the white-box shape of the hazard: member 0 claims in-sync
	// while extent [100,104) of ssd 0 is still queued for it.
	rs.dirty[0] = append(rs.dirty[0], dirtyExtent{ssdIdx: 0, lba: 100, blocks: 4})

	for _, tc := range []struct {
		lba    uint64
		blocks uint32
		want   int
	}{
		{100, 4, rs.members[1]}, // exact overlap: skip member 0
		{102, 1, rs.members[1]}, // inside the dirty extent
		{98, 3, rs.members[1]},  // straddles the start
		{103, 8, rs.members[1]}, // straddles the end
		{104, 4, rs.members[0]}, // adjacent after: clean on member 0
		{96, 4, rs.members[0]},  // adjacent before: clean on member 0
	} {
		if m := c.readMemberFor(0, 0, tc.lba, tc.blocks); m != tc.want {
			t.Errorf("extent [%d,+%d): routed to %d, want %d", tc.lba, tc.blocks, m, tc.want)
		}
	}
	// Another SSD of the same member is unaffected by the backlog.
	if m := c.readMemberFor(0, 1, 100, 4); m != rs.members[0] {
		t.Errorf("ssd 1 read routed to %d despite a clean ssd-1 state", m)
	}
	// When every in-sync member holds the extent dirty, fall back to the
	// first one (the copy source is an in-sync peer in that case).
	rs.dirty[1] = append(rs.dirty[1], dirtyExtent{ssdIdx: 0, lba: 100, blocks: 4})
	if m := c.readMemberFor(0, 0, 100, 4); m != rs.members[0] {
		t.Errorf("all-dirty fallback routed to %d, want first in-sync member %d", m, rs.members[0])
	}
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
	c := New(eng, replConfig(3)) // CacheBlocks == 0: readDirect
	defer eng.Shutdown()
	const n = 2000
	reads := 0
	eng.Go("reader", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			c.Init(0).ReadStreamAhead(p, 0, uint64(i), 1, -1) // never written: every read crosses the fabric
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
