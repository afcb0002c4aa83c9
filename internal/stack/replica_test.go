package stack

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
)

// replConfig builds a fast replicated test cluster: one replica set of r
// Optane targets (striping degenerates to one set so every write fans to
// all members).
func replConfig(r int) Config {
	targets := make([]TargetConfig, r)
	for i := range targets {
		targets[i] = OptaneTarget()
	}
	cfg := smallConfig(ModeRio, targets...)
	cfg.Replicas = r
	return cfg
}

// mediaIdentical fails unless the in-sync members of every set hold the same
// durable media, block for block.
func mediaIdentical(t *testing.T, c *Cluster) {
	t.Helper()
	if n := c.ReplicaDivergence(); n != 0 {
		t.Fatalf("%d blocks differ between in-sync members of a replica set", n)
	}
}

func TestReplicatedWriteReachesAllMembers(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, replConfig(3))
	eng.Go("app", func(p *sim.Proc) {
		for g := 0; g < 10; g++ {
			lba := uint64(g * 7)
			r := c.Init(0).OrderedWrite(p, 0, lba, 1, 0, nil, true, false, false)
			c.Init(0).Wait(p, r)
		}
	})
	eng.Run()
	mediaIdentical(t, c)
	// Every member kept its own dense chain and PMR partition.
	for _, m := range c.SetMembers(0) {
		if got := c.Target(m).GateAudit(); got != 0 {
			t.Fatalf("member %d gate audit: %d violations", m, got)
		}
		entries := core.ScanRegion(c.Target(m).PMRPartition(0))
		if len(entries) == 0 {
			t.Fatalf("member %d has no PMR evidence", m)
		}
	}
	eng.Shutdown()
}

func TestReplicatedQuorumDeliversBeforeAllAcks(t *testing.T) {
	// Majority quorum: the completion must not wait for the slowest
	// member. Indirectly verified by throughput parity: completion counts
	// advance and every submitted request delivers.
	eng := sim.New(2)
	c := New(eng, replConfig(3))
	done := 0
	eng.Go("app", func(p *sim.Proc) {
		for g := 0; g < 50; g++ {
			r := c.Init(0).OrderedWrite(p, g%4, uint64(g*3), 1, 0, nil, true, false, false)
			c.Init(0).Wait(p, r)
			done++
		}
	})
	eng.Run()
	if done != 50 {
		t.Fatalf("delivered %d of 50", done)
	}
	if c.WriteQuorum() != 2 {
		t.Fatalf("majority quorum of 3 = %d, want 2", c.WriteQuorum())
	}
	eng.Shutdown()
}

// TestReplicaCutDoesNotStall is the ISSUE acceptance core: with
// Replicas=3, power-cutting one member mid-stream stalls no stream —
// survivors keep completing every write, with zero ordering-invariant
// violations.
func TestReplicaCutDoesNotStall(t *testing.T) {
	eng := sim.New(3)
	c := New(eng, replConfig(3))
	const streams, groups = 4, 60
	var reqs []*blockdev.Request
	for s := 0; s < streams; s++ {
		s := s
		eng.Go("app", func(p *sim.Proc) {
			for g := 0; g < groups; g++ {
				lba := uint64(s*100000 + g)
				r := c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, true, false, false)
				reqs = append(reqs, r)
				p.Sleep(2 * sim.Microsecond)
			}
		})
	}
	eng.At(60*sim.Microsecond, func() { c.PowerCutTarget(1) })
	eng.Run()

	if c.InSync(1) {
		t.Fatal("cut member still marked in sync")
	}
	if c.SetEpoch(0) == 0 {
		t.Fatal("set epoch did not advance on degrade")
	}
	undelivered := 0
	for _, r := range reqs {
		if !r.Done.Fired() {
			undelivered++
		}
	}
	if undelivered != 0 {
		t.Fatalf("%d of %d requests stalled after a single replica cut", undelivered, len(reqs))
	}
	// Ordering invariants on the survivors: dense chains, advancing group
	// order.
	for _, m := range []int{0, 2} {
		if v := c.Target(m).GateAudit(); v != 0 {
			t.Fatalf("survivor %d gate audit: %d violations", m, v)
		}
	}
	for s := 0; s < streams; s++ {
		if c.Init(0).Sequencer().Stream(s).FullyDone() != uint64(groups) {
			t.Fatalf("stream %d fully-done = %d, want %d", s, c.Init(0).Sequencer().Stream(s).FullyDone(), groups)
		}
	}
	if c.ResyncBacklog(1) == 0 {
		t.Fatal("degraded member accumulated no resync backlog despite mid-stream cut")
	}
	eng.Shutdown()
}

// TestResyncConvergesByteIdentical: after the background resync the
// rejoined member's media is byte-identical to its peers, and the member
// participates in new writes again.
func TestResyncConvergesByteIdentical(t *testing.T) {
	eng := sim.New(4)
	c := New(eng, replConfig(3))
	const streams, groups = 3, 50
	for s := 0; s < streams; s++ {
		s := s
		eng.Go("app", func(p *sim.Proc) {
			for g := 0; g < groups; g++ {
				lba := uint64(s*100000 + g)
				r := c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, true, false, false)
				c.Init(0).Wait(p, r)
			}
		})
	}
	eng.At(40*sim.Microsecond, func() { c.PowerCutTarget(2) })
	eng.Run()

	var tm RecoveryTiming
	eng.Go("resync", func(p *sim.Proc) { _, tm = c.RecoverTarget(p, 2) })
	eng.Run()
	if !c.InSync(2) {
		t.Fatal("member did not rejoin after resync")
	}
	if tm.Replayed == 0 {
		t.Fatal("resync copied nothing despite a mid-stream degraded window")
	}
	mediaIdentical(t, c)

	// The rejoined member serves new writes with a fresh dense chain.
	eng.Go("app2", func(p *sim.Proc) {
		for g := 0; g < 10; g++ {
			lba := uint64(900000 + g)
			r := c.Init(0).OrderedWrite(p, 0, lba, 1, 0, nil, true, false, false)
			c.Init(0).Wait(p, r)
		}
	})
	eng.Run()
	mediaIdentical(t, c)
	for _, m := range c.SetMembers(0) {
		if v := c.Target(m).GateAudit(); v != 0 {
			t.Fatalf("member %d gate audit after resync: %d violations", m, v)
		}
	}
	eng.Shutdown()
}

// TestWholeSetCutMemberByMember: every member of a 3-way set is cut, one
// after another, under four writers. The first two cuts degrade the set;
// the last member has no survivor, so it must be cut like a set of one — its
// commands stay outstanding and are replayed when it comes back — and a
// degraded member may only be repaired from a peer that is up. Whatever the
// recovery order, every write delivers and the members end byte-identical.
func TestWholeSetCutMemberByMember(t *testing.T) {
	for _, order := range [][]int{{2, 0, 1}, {0, 2, 1, 0}} {
		t.Run(fmt.Sprint(order), func(t *testing.T) {
			eng := sim.New(3)
			c := New(eng, replConfig(3))
			defer eng.Shutdown()
			const writers, writes = 4, 200
			delivered := 0
			for s := 0; s < writers; s++ {
				eng.Go("app", func(p *sim.Proc) {
					for g := 0; g < writes; g++ {
						lba := uint64(s*100000 + g)
						r := c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, true, false, false)
						c.Init(0).Wait(p, r)
						delivered++
					}
				})
			}
			for m, at := range []sim.Time{100, 150, 200} {
				eng.At(at*sim.Microsecond, func() { c.PowerCutTarget(m) })
			}
			eng.Run()
			if delivered == writers*writes {
				t.Fatal("every write delivered before the last cut: the schedule strands nothing")
			}

			for step, m := range order {
				var pmr [][]byte
				for i := 0; i < c.Initiators(); i++ {
					pmr = append(pmr, bytes.Clone(c.Target(m).PMRPartition(i)))
				}
				var rep *core.Report
				var tm RecoveryTiming
				// The last member's replay completes only once a peer's
				// resync lands the quorum's second copy, so a recovery is
				// not awaited before the next one starts.
				eng.Go("recover", func(p *sim.Proc) { rep, tm = c.RecoverTarget(p, m) })
				eng.Run()
				if step == 0 && m != 2 {
					// Member 0's only in-sync peer is down: it is left as it
					// was, not rejoined from nothing.
					if rep == nil || len(rep.Streams) != 0 || tm != (RecoveryTiming{}) {
						t.Fatalf("recovery of member %d with its in-sync peer down: report %+v timing %+v, want empty", m, rep, tm)
					}
					if c.Target(m).Alive() || c.InSync(m) {
						t.Fatalf("member %d restarted (alive=%v, in sync=%v) with no peer to repair it from", m, c.Target(m).Alive(), c.InSync(m))
					}
					for i, before := range pmr {
						if !bytes.Equal(before, c.Target(m).PMRPartition(i)) {
							t.Fatalf("member %d left down, but its PMR partition %d was touched", m, i)
						}
					}
				}
			}

			if delivered != writers*writes {
				t.Fatalf("%d of %d writes delivered", delivered, writers*writes)
			}
			mediaIdentical(t, c)
			if v := c.OrderAudit(); v != 0 {
				t.Fatalf("order audit: %d violations", v)
			}
			for _, m := range c.SetMembers(0) {
				if !c.InSync(m) {
					t.Fatalf("member %d not in sync after every member recovered", m)
				}
				if v := c.Target(m).GateAudit(); v != 0 {
					t.Fatalf("member %d gate audit: %d violations", m, v)
				}
			}
		})
	}
}

// TestFullQuorumStallsThenResyncCompletes: a 2-way set's majority is the
// full set, so a write completes only when durable on both members. A
// degraded window therefore stalls completions — and the background
// resync, by landing the missed content on the rejoining member, is
// exactly what releases them.
func TestFullQuorumStallsThenResyncCompletes(t *testing.T) {
	eng := sim.New(5)
	c := New(eng, replConfig(2))
	if c.WriteQuorum() != 2 {
		t.Fatalf("majority quorum of 2 = %d, want 2", c.WriteQuorum())
	}
	eng.Go("warm", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 1, 1, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
	})
	eng.Run()
	c.PowerCutTarget(1)
	var r2 *blockdev.Request
	eng.Go("degraded", func(p *sim.Proc) {
		r2 = c.Init(0).OrderedWrite(p, 0, 2, 1, 0, nil, true, false, false)
	})
	eng.RunFor(500 * sim.Microsecond)
	if r2.Done.Fired() {
		t.Fatal("full-set quorum write completed while the set was degraded")
	}
	eng.Go("resync", func(p *sim.Proc) { c.RecoverTarget(p, 1) })
	eng.Run()
	if !r2.Done.Fired() {
		t.Fatal("full-set quorum write still stalled after resync rejoined the member")
	}
	mediaIdentical(t, c)
	eng.Shutdown()
}

// TestReplicatedReadsFailOver: reads are served from any in-sync member,
// so a degraded set still answers.
func TestReplicatedReadsFailOver(t *testing.T) {
	eng := sim.New(6)
	c := New(eng, replConfig(2))
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 5, 1, 77, nil, true, false, false)
		c.Init(0).Wait(p, r)
	})
	eng.Run()
	c.PowerCutTarget(0) // the set's read-preferred member dies
	var rec []uint64
	eng.Go("reader", func(p *sim.Proc) {
		out := c.Init(0).Read(p, 5, 1)
		for _, o := range out {
			rec = append(rec, o.Stamp)
		}
	})
	eng.Run()
	if len(rec) != 1 || rec[0] == 0 {
		t.Fatalf("degraded-set read did not serve from the surviving replica: %v", rec)
	}
	eng.Shutdown()
}

// TestReplicatedFlushCompletesDegraded: a durability barrier certifies
// the in-sync membership; a power-cut member must not wedge it.
func TestReplicatedFlushCompletesDegraded(t *testing.T) {
	eng := sim.New(7)
	c := New(eng, replConfig(3))
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 3, 1, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
	})
	eng.Run()
	c.PowerCutTarget(1)
	done := false
	eng.Go("flusher", func(p *sim.Proc) {
		c.Init(0).FlushDevice(p, 0)
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("FlushDevice wedged on a degraded replica set")
	}
	eng.Shutdown()
}

// TestReplicatedFlushSurvivesMemberCut cuts a member of a 3-way flash set
// while a FLUSH is running on it. The victim's FLUSH is the slowest, so the
// survivors have acked when it dies: the cut shrinks the barrier's quorum
// to the live members and releases the flush on their acks. RecoverTarget
// then resyncs the member back into the set.
func TestReplicatedFlushSurvivesMemberCut(t *testing.T) {
	eng := sim.New(9)
	cfg := smallConfig(ModeRio, FlashTarget(), FlashTarget(), FlashTarget())
	cfg.Replicas = 3
	const victim = 2
	cfg.Targets[victim].SSDs[0].FlushBase = 4 * cfg.Targets[0].SSDs[0].FlushBase
	c := New(eng, cfg)
	eng.Go("writes", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			r := c.Init(0).OrderedWrite(p, 0, uint64(3*i), 1, 0, nil, true, false, false)
			c.Init(0).Wait(p, r)
		}
	})
	eng.Run()
	start := eng.Now()
	var flushed sim.Time
	eng.Go("flusher", func(p *sim.Proc) {
		c.Init(0).FlushDevice(p, 0)
		flushed = p.Now()
	})
	need := -1
	eng.At(start+2*cfg.Targets[0].SSDs[0].FlushBase, func() {
		var fw *wireState
		for _, ws := range c.Init(0).outstandingOfSet(0) {
			if ws.wc.Flush {
				fw = ws
			}
		}
		if fw == nil || flushed != 0 || fw.q.Acks != 2 || fw.q.Need != 3 {
			t.Fatal("the survivors' FLUSH acks should be in, the slow member's not")
		}
		c.PowerCutTarget(victim)
		// The cut resolved the last member and recycled the command; the
		// record is not reused before the flusher runs again.
		need = fw.q.Need
	})
	eng.Run()
	if flushed == 0 {
		t.Fatal("FlushDevice wedged on a member cut mid-FLUSH")
	}
	if need != 2 {
		t.Fatalf("the barrier needs %d acks after the cut, want the 2 live members", need)
	}
	if c.InSync(victim) {
		t.Fatal("the cut member is still in sync")
	}
	eng.Go("rejoin", func(p *sim.Proc) { c.RecoverTarget(p, victim) })
	eng.Run()
	if !c.InSync(victim) || c.ResyncBacklog(victim) != 0 {
		t.Fatalf("member %d not resynced: in sync %v, backlog %d", victim, c.InSync(victim), c.ResyncBacklog(victim))
	}
	mediaIdentical(t, c)
	eng.Shutdown()
}

// TestReplicatedFullCrashRecovery: whole-cluster power cut on a
// replicated deployment — the prefix invariant must hold on EVERY
// member after recovery (quorum-only survivors re-replicated, stale
// copies rolled back everywhere).
func TestReplicatedFullCrashRecovery(t *testing.T) {
	eng := sim.New(8)
	c := New(eng, replConfig(3))
	var subs []*blockdev.Request
	eng.Go("app", func(p *sim.Proc) {
		for g := 0; g < 40; g++ {
			if !c.Target(0).Alive() {
				break // whole-cluster outage: applications gate on liveness
			}
			subs = append(subs, c.Init(0).OrderedWrite(p, 0, uint64(g), 1, 0, nil, true, false, false))
			p.Sleep(2 * sim.Microsecond)
		}
	})
	eng.At(40*sim.Microsecond, func() { c.PowerCutAll() })
	eng.RunUntil(sim.Millisecond)
	var rep *core.Report
	eng.Go("rec", func(p *sim.Proc) { rep, _ = c.RecoverFull(p) })
	eng.Run()
	// Inside the prefix on every member, beyond it on none: the members agree.
	checkPrefix(t, c, rep, 0, 0, subs)
	if n := c.ReplicaDivergence(); n != 0 {
		t.Fatalf("%d blocks differ between members after whole-cluster recovery", n)
	}
	// The cluster is reusable with full membership.
	okDone := false
	eng.Go("app2", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 7000, 1, 0, nil, true, true, false)
		c.Init(0).Wait(p, r)
		okDone = true
	})
	eng.Run()
	if !okDone {
		t.Fatal("cluster unusable after replicated full recovery")
	}
	eng.Shutdown()
}

// TestEpochMarksPersisted: survivors record the degraded window in their
// PMR partitions; recovery analysis ignores the marks.
func TestEpochMarksPersisted(t *testing.T) {
	eng := sim.New(9)
	c := New(eng, replConfig(3))
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 1, 1, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
	})
	eng.Run()
	c.PowerCutTarget(2)
	marks := 0
	for _, m := range []int{0, 1} {
		for _, e := range core.ScanRegion(c.Target(m).PMRPartition(0)) {
			if e.EpochMark {
				marks++
				if int(e.Stream) != 0 || e.LBA != 2 {
					t.Fatalf("mark carries set %d member %d, want set 0 member 2", e.Stream, e.LBA)
				}
			}
		}
	}
	if marks == 0 {
		t.Fatal("no epoch marks persisted by the survivors")
	}
	// Marks are not write evidence.
	view := core.ServerView{Server: 0, PLP: true, Entries: core.ScanRegion(c.Target(0).PMRPartition(0))}
	d, u := core.DurableSet(view)
	for _, e := range append(d, u...) {
		if e.EpochMark {
			t.Fatal("epoch mark classified as write evidence")
		}
	}
	eng.Shutdown()
}

// TestReplicasOneIsUnreplicated: Replicas=1 must take the unreplicated
// code path exactly (no fan-out state, one capsule per command).
func TestReplicasOneIsUnreplicated(t *testing.T) {
	eng := sim.New(10)
	cfg := smallConfig(ModeRio, optane1()...)
	cfg.Replicas = 1
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 1, 1, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
	})
	eng.Run()
	if c.Replicas() != 1 || c.SetCount() != 1 || !c.InSync(0) {
		t.Fatal("Replicas=1 introspection inconsistent")
	}
	if c.Init(0).Stats().TxMsgs == 0 {
		t.Fatal("no traffic")
	}
	eng.Shutdown()
}

// TestReplicationTopologyValidation: bad topologies fail fast.
func TestReplicationTopologyValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	expectPanic("indivisible fleet", func() {
		cfg := smallConfig(ModeRio, OptaneTarget(), OptaneTarget(), OptaneTarget())
		cfg.Replicas = 2
		New(sim.New(1), cfg)
	})
	expectPanic("non-rio mode", func() {
		cfg := smallConfig(ModeHorae, OptaneTarget(), OptaneTarget())
		cfg.Replicas = 2
		New(sim.New(1), cfg)
	})
}
