package stack

import (
	"bytes"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
)

// multiConfig builds a fast test cluster with n initiators.
func multiConfig(n int, targets ...TargetConfig) Config {
	cfg := smallConfig(ModeRio, targets...)
	cfg.Initiators = n
	return cfg
}

// TestMultiInitiatorBasicFlow: two initiators submit concurrently on the
// SAME stream ids; both complete everything, in-order per (initiator,
// stream), and the per-initiator stats account each side separately.
func TestMultiInitiatorBasicFlow(t *testing.T) {
	eng := sim.New(101)
	c := New(eng, multiConfig(2, optane1()...))
	const n = 30
	for ii := 0; ii < 2; ii++ {
		in := c.Init(ii)
		ii := ii
		eng.Go("app", func(p *sim.Proc) {
			var reqs []*blockdev.Request
			for i := 0; i < n; i++ {
				lba := uint64(ii*500000 + i*3)
				reqs = append(reqs, in.OrderedWrite(p, 0, lba, 1, 0, nil, true, false, false))
			}
			var lastSeq uint64
			for _, r := range reqs {
				in.Wait(p, r)
				if got := r.Ticket.Attr.Initiator; got != uint16(ii) {
					t.Errorf("initiator %d ticket carries namespace %d", ii, got)
				}
				if r.Ticket.Attr.SeqStart < lastSeq {
					t.Errorf("initiator %d delivered out of order: %d after %d",
						ii, r.Ticket.Attr.SeqStart, lastSeq)
				}
				lastSeq = r.Ticket.Attr.SeqStart
			}
		})
	}
	eng.Run()
	for ii := 0; ii < 2; ii++ {
		if got := c.Init(ii).Stats().Completed; got != n {
			t.Fatalf("initiator %d completed = %d, want %d", ii, got, n)
		}
	}
	if got := c.StatsAll().Completed; got != 2*n {
		t.Fatalf("aggregate completed = %d, want %d", got, 2*n)
	}
	// Both ordering domains landed in their own PMR partition.
	for ii := 0; ii < 2; ii++ {
		entries := core.ScanRegion(c.Target(0).pmrRegion(ii))
		if len(entries) == 0 {
			t.Fatalf("initiator %d PMR partition empty", ii)
		}
		for _, e := range entries {
			if e.Initiator != uint16(ii) {
				t.Fatalf("initiator %d partition holds foreign entry %+v", ii, e.Attr)
			}
		}
	}
	eng.Shutdown()
}

// TestMultiInitiatorGatesIndependent: with stream affinity, neither
// initiator's in-order gate may park because of the other's traffic on
// the same stream id (domains are (initiator, stream), not stream).
func TestMultiInitiatorGatesIndependent(t *testing.T) {
	eng := sim.New(103)
	c := New(eng, multiConfig(3, optane1()...))
	for ii := 0; ii < 3; ii++ {
		in := c.Init(ii)
		ii := ii
		eng.Go("app", func(p *sim.Proc) {
			var last *blockdev.Request
			for i := 0; i < 40; i++ {
				last = in.OrderedWrite(p, 0, uint64(ii*100000+i*8), 1, 0, nil, true, false, false)
			}
			in.Wait(p, last)
		})
	}
	eng.Run()
	if hb := c.Target(0).Stats().Holdbacks; hb != 0 {
		t.Fatalf("holdbacks = %d, want 0: per-initiator domains must not interleave in a gate", hb)
	}
	eng.Shutdown()
}

// TestInitiatorIsolationOnPowerCut is the isolation regression test: an
// initiator power-cut mid-batch must leave the other initiators'
// throughput and retire watermarks untouched — their in-flight requests
// complete, new submissions keep flowing, and the survivor's PMR
// watermarks keep advancing while the dead initiator's domain is frozen.
func TestInitiatorIsolationOnPowerCut(t *testing.T) {
	eng := sim.New(107)
	cfg := multiConfig(2, OptaneTarget(), OptaneTarget())
	c := New(eng, cfg)
	stopped := false
	var survivorReqs []*blockdev.Request
	// Survivor (initiator 0) writes continuously.
	in0 := c.Init(0)
	eng.Go("survivor", func(p *sim.Proc) {
		for i := 0; !stopped; i++ {
			r := in0.OrderedWrite(p, i%cfg.Streams, uint64(i), 1, 0, nil, true, false, false)
			survivorReqs = append(survivorReqs, r)
			p.Sleep(sim.Microsecond)
		}
	})
	// Victim (initiator 1) writes until the cut.
	in1 := c.Init(1)
	eng.Go("victim", func(p *sim.Proc) {
		for i := 0; i < 100000; i++ {
			if !in1.Alive() {
				return
			}
			in1.OrderedWrite(p, i%cfg.Streams, uint64(4<<20+i), 1, 0, nil, true, false, false)
			p.Sleep(sim.Microsecond)
		}
	})
	var survivorDoneAtCut int64
	eng.At(200*sim.Microsecond, func() {
		survivorDoneAtCut = in0.Stats().Completed
		c.PowerCutInitiator(1)
	})
	eng.At(600*sim.Microsecond, func() { stopped = true })
	eng.RunUntil(700 * sim.Microsecond)
	eng.Run()

	// Survivor throughput continued past the cut...
	if got := in0.Stats().Completed; got <= survivorDoneAtCut {
		t.Fatalf("survivor made no progress after the cut: %d -> %d", survivorDoneAtCut, got)
	}
	// ...every survivor request completed (none stalled on the dead
	// initiator's state)...
	for i, r := range survivorReqs {
		if !r.Done.Fired() {
			t.Fatalf("survivor request %d never delivered after peer power cut", i)
		}
	}
	// ...and its retire watermarks kept advancing: the PMR partitions of
	// the survivor recycle, so retiredTo entries exist only for its
	// domains and are strictly positive.
	marks := 0
	for ti := 0; ti < c.Targets(); ti++ {
		// Initiator 1's domains are frozen: watermarks from before the
		// cut are fine, so only the survivor's domains are counted.
		for s := 0; s < c.Config().Streams; s++ {
			if c.Target(ti).RetiredTo(0, uint16(s)) > 0 {
				marks++
			}
		}
	}
	if marks == 0 {
		t.Fatal("survivor retire watermarks did not advance after peer power cut")
	}
	// The dead initiator rejects nothing structurally — its domain is
	// simply frozen: no new retire advances after the cut.
	if in1.Alive() {
		t.Fatal("victim still marked alive")
	}
	eng.Shutdown()
}

// TestInitiatorRecoveryDoesNotRollBackPeers: after an initiator crash
// and RecoverInitiator, the recovering initiator's domain satisfies the
// §4.8 prefix invariant while the OTHER initiator's durable blocks all
// survive untouched (no cross-initiator roll-back), and both initiators
// are usable afterwards.
func TestInitiatorRecoveryDoesNotRollBackPeers(t *testing.T) {
	eng := sim.New(109)
	cfg := multiConfig(2, optane1()...)
	c := New(eng, cfg)
	var peerSubs, victimSubs []*blockdev.Request
	in0, in1 := c.Init(0), c.Init(1)
	// Peer initiator 0: writes it WAITS for (durable before the cut).
	eng.Go("peer", func(p *sim.Proc) {
		for g := 0; g < 30; g++ {
			lba := uint64(g * 2)
			r := in0.OrderedWrite(p, 0, lba, 1, 0, nil, true, false, false)
			in0.Wait(p, r)
			peerSubs = append(peerSubs, r)
		}
	})
	// Victim initiator 1: continuous async writes, crashed mid-flight.
	eng.Go("victim", func(p *sim.Proc) {
		for g := 0; g < 200 && in1.Alive(); g++ {
			lba := uint64(1<<20 + g*2)
			r := in1.OrderedWrite(p, 0, lba, 1, 0, nil, true, false, false)
			victimSubs = append(victimSubs, r)
			p.Sleep(2 * sim.Microsecond)
		}
	})
	eng.At(150*sim.Microsecond, func() { c.PowerCutInitiator(1) })
	eng.RunUntil(150*sim.Microsecond + sim.Millisecond)

	var rep *core.Report
	eng.Go("recover", func(p *sim.Proc) { rep, _ = c.RecoverInitiator(p, 1) })
	eng.Run()
	if rep == nil {
		t.Fatal("recovery did not run")
	}

	// Victim domain: prefix invariant on its own media.
	checkPrefix(t, c, rep, 1, 0, victimSubs)
	// Peer domain: every waited-for write still durable, and the report
	// contains nothing for initiator 0 (its partition was never scanned).
	for gi, r := range peerSubs {
		if !c.Holds(r) {
			t.Fatalf("peer group %d rolled back by a foreign initiator's recovery", gi+1)
		}
	}
	for k := range rep.Streams {
		if k.Initiator != 1 {
			t.Fatalf("initiator 1's recovery scanned foreign domain %+v", k)
		}
	}
	// Both initiators usable afterwards.
	done := 0
	for ii := 0; ii < 2; ii++ {
		in := c.Init(ii)
		ii := ii
		eng.Go("post", func(p *sim.Proc) {
			r := in.OrderedWrite(p, 1, uint64(2<<20+ii), 1, 0, nil, true, true, false)
			in.Wait(p, r)
			done++
		})
	}
	eng.Run()
	if done != 2 {
		t.Fatalf("post-recovery writes delivered = %d, want 2", done)
	}
	eng.Shutdown()
}

// TestTargetCrashReplaysEveryInitiator: a target power-cut with two
// initiators mid-flight must replay BOTH initiators' in-flight commands
// (each with its own fresh per-server chain), and every request of both
// initiators is eventually delivered.
func TestTargetCrashReplaysEveryInitiator(t *testing.T) {
	eng := sim.New(113)
	cfg := multiConfig(2, OptaneTarget(), OptaneTarget())
	c := New(eng, cfg)
	const n = 40
	reqs := make([][]*blockdev.Request, 2)
	for ii := 0; ii < 2; ii++ {
		in := c.Init(ii)
		ii := ii
		eng.Go("app", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				r := in.OrderedWrite(p, 0, uint64(ii<<20)+uint64(i), 1, 0, nil, true, false, false)
				reqs[ii] = append(reqs[ii], r)
				p.Sleep(sim.Time(1+i%3) * sim.Microsecond)
			}
		})
	}
	eng.At(60*sim.Microsecond, func() { c.PowerCutTarget(1) })
	eng.RunUntil(400 * sim.Microsecond)

	var tm RecoveryTiming
	eng.Go("recovery", func(p *sim.Proc) {
		_, tm = c.RecoverTarget(p, 1)
	})
	eng.Run()
	if tm.Replayed == 0 {
		t.Fatal("expected replayed commands after target crash")
	}
	eng.Run()
	for ii := 0; ii < 2; ii++ {
		for i, r := range reqs[ii] {
			if !r.Done.Fired() {
				t.Fatalf("initiator %d request %d never delivered after target recovery", ii, i)
			}
		}
	}
	eng.Shutdown()
}

// TestMultiInitiatorFullCrashRecovery: a whole-cluster power cut merges
// per-initiator PMR scans into one report; every (initiator, stream)
// domain independently satisfies the prefix invariant on media.
func TestMultiInitiatorFullCrashRecovery(t *testing.T) {
	eng := sim.New(127)
	cfg := multiConfig(2, optane1()...)
	cfg.Streams = 2
	c := New(eng, cfg)
	subs := make(map[[2]int][]*blockdev.Request) // {initiator, stream}
	for ii := 0; ii < 2; ii++ {
		for s := 0; s < 2; s++ {
			in := c.Init(ii)
			ii, s := ii, s
			eng.Go("app", func(p *sim.Proc) {
				for g := 0; g < 50; g++ {
					lba := uint64(ii)<<22 | uint64(s)<<20 | uint64(g)
					r := in.OrderedWrite(p, s, lba, 1, 0, nil, true, false, false)
					if r.Ticket == nil {
						break // the power cut landed mid-submission: died un-staged
					}
					subs[[2]int{ii, s}] = append(subs[[2]int{ii, s}], r)
					p.Sleep(2 * sim.Microsecond)
				}
			})
		}
	}
	eng.At(120*sim.Microsecond, func() { c.PowerCutAll() })
	eng.RunUntil(120*sim.Microsecond + sim.Millisecond)
	var rep *core.Report
	eng.Go("recover", func(p *sim.Proc) { rep, _ = c.RecoverFull(p) })
	eng.Run()
	if rep == nil {
		t.Fatal("recovery did not run")
	}
	for key, list := range subs {
		checkPrefix(t, c, rep, key[0], key[1], list)
	}
	eng.Shutdown()
}

// TestPMRPartitionBackpressureIsolated: one initiator filling its tiny
// PMR partition must stall ITS appends (until retires recycle space),
// not the other initiator's — both finish, and both partitions recycled.
func TestPMRPartitionBackpressureIsolated(t *testing.T) {
	eng := sim.New(131)
	cfg := multiConfig(2, optane1()...)
	// 2 initiators * 64 slots each.
	cfg.Targets[0].SSDs[0].PMRSize = 2 * 64 * core.EntrySize
	c := New(eng, cfg)
	const n = 300
	done := make([]int, 2)
	for ii := 0; ii < 2; ii++ {
		in := c.Init(ii)
		ii := ii
		eng.Go("app", func(p *sim.Proc) {
			var pending []*blockdev.Request
			for i := 0; i < n; i++ {
				pending = append(pending, in.OrderedWrite(p, 0, uint64(ii<<20|i), 1, 0, nil, true, false, false))
				if len(pending) >= 16 {
					in.Wait(p, pending[0])
					pending = pending[1:]
					done[ii]++
				}
			}
			for _, r := range pending {
				in.Wait(p, r)
				done[ii]++
			}
		})
	}
	eng.Run()
	for ii := 0; ii < 2; ii++ {
		if done[ii] != n {
			t.Fatalf("initiator %d completed %d of %d with a 64-slot partition", ii, done[ii], n)
		}
	}
	eng.Shutdown()
}

// TestRecoverTargetWithLiveTraffic pins the replay-preparation atomicity
// fix: while one initiator's replay toward the restarted target is being
// posted (with yields), another initiator keeps submitting live traffic
// toward the same target. Its chain must already be minting indices on
// the fresh gate — a stale-chain command would park forever. Every
// request of both initiators must deliver and the gate audit stays clean.
func TestRecoverTargetWithLiveTraffic(t *testing.T) {
	eng := sim.New(137)
	cfg := multiConfig(2, OptaneTarget(), OptaneTarget())
	c := New(eng, cfg)
	stopped := false
	var live []*blockdev.Request
	in0, in1 := c.Init(0), c.Init(1)
	// Initiator 0: continuous traffic before, during and after recovery.
	eng.Go("live", func(p *sim.Proc) {
		for i := 0; !stopped; i++ {
			live = append(live, in0.OrderedWrite(p, i%cfg.Streams, uint64(i), 1, 0, nil, true, false, false))
			p.Sleep(sim.Microsecond)
		}
	})
	// Initiator 1: a burst that will be in flight at the cut.
	var burst []*blockdev.Request
	eng.Go("burst", func(p *sim.Proc) {
		for i := 0; i < 60; i++ {
			burst = append(burst, in1.OrderedWrite(p, 0, uint64(1<<21|i), 1, 0, nil, true, false, false))
			p.Sleep(sim.Time(1+i%3) * sim.Microsecond)
		}
	})
	eng.At(50*sim.Microsecond, func() { c.PowerCutTarget(1) })
	eng.RunUntil(300 * sim.Microsecond)
	recovered := false
	eng.Go("recovery", func(p *sim.Proc) {
		c.RecoverTarget(p, 1)
		recovered = true
	})
	eng.At(800*sim.Microsecond, func() { stopped = true })
	eng.RunUntil(900 * sim.Microsecond)
	eng.Run()
	if !recovered {
		t.Fatal("RecoverTarget wedged under concurrent live traffic")
	}
	for i, r := range live {
		if !r.Done.Fired() {
			t.Fatalf("live request %d (initiator 0) never delivered", i)
		}
	}
	for i, r := range burst {
		if !r.Done.Fired() {
			t.Fatalf("burst request %d (initiator 1) never delivered", i)
		}
	}
	for ti := 0; ti < c.Targets(); ti++ {
		if bad := c.Target(ti).GateAudit(); bad != 0 {
			t.Fatalf("target %d gate audit: %d stale parked entries", ti, bad)
		}
	}
	eng.Shutdown()
}

// TestRecoverTargetPreservesDeadInitiatorEvidence is recover's rule (3)
// from the inside: recover({t}, nil) while an initiator is down must leave
// that initiator's PMR partition on t byte for byte as it was — it is the
// recovery evidence RecoverInitiator later scans — while the live
// initiator's partition is formatted. The dead initiator's prefix must
// still be recoverable afterwards.
func TestRecoverTargetPreservesDeadInitiatorEvidence(t *testing.T) {
	eng := sim.New(139)
	cfg := multiConfig(2, optane1()...)
	c := New(eng, cfg)
	// Both initiators land durable groups, then initiator 1 dies.
	for ii := 0; ii < 2; ii++ {
		in := c.Init(ii)
		eng.Go("app", func(p *sim.Proc) {
			for g := 0; g < 10; g++ {
				r := in.OrderedWrite(p, 0, uint64(ii<<20|g), 1, 0, nil, true, false, false)
				in.Wait(p, r)
			}
		})
	}
	eng.Run()
	if len(core.ScanRegion(c.Target(0).pmrRegion(0))) == 0 {
		t.Fatal("the live initiator left no entries to format: the schedule checks nothing")
	}
	c.PowerCutInitiator(1)
	// Now the (only) target dies and recovers while initiator 1 is down.
	c.PowerCutTarget(0)
	before := bytes.Clone(c.Target(0).pmrRegion(1))
	eng.Go("rec-target", func(p *sim.Proc) { c.Recover(p, []int{0}, nil) })
	eng.Run()
	if !bytes.Equal(before, c.Target(0).pmrRegion(1)) {
		t.Fatal("target recovery touched the dead initiator's PMR partition (evidence destroyed)")
	}
	if n := len(core.ScanRegion(c.Target(0).pmrRegion(0))); n != 0 {
		t.Fatalf("the live initiator's partition holds %d entries after target recovery, want it formatted", n)
	}
	entries := core.ScanRegion(c.Target(0).pmrRegion(1))
	if len(entries) == 0 {
		t.Fatal("the dead initiator left no evidence: the schedule checks nothing")
	}
	for _, e := range entries {
		if e.Initiator != 1 {
			t.Fatalf("foreign entry in initiator 1's partition: %+v", e.Attr)
		}
	}
	// The dead initiator now recovers and must see its full prefix.
	var rep *core.Report
	eng.Go("rec-init", func(p *sim.Proc) { rep, _ = c.RecoverInitiator(p, 1) })
	eng.Run()
	if got := rep.PrefixFor(1, 0); got != 10 {
		t.Fatalf("recovered prefix = %d, want 10 (all groups were durable before the crash)", got)
	}
	eng.Shutdown()
}

// TestRecoverInitiatorWithDeadTarget: single-initiator recovery while a
// target server is ALSO down must complete (no erase submitted to a
// powered-off SSD, no scan of a dead server), and the cluster heals
// fully once the target recovers too.
func TestRecoverInitiatorWithDeadTarget(t *testing.T) {
	eng := sim.New(149)
	cfg := multiConfig(2, OptaneTarget(), OptaneTarget())
	c := New(eng, cfg)
	in1 := c.Init(1)
	eng.Go("victim", func(p *sim.Proc) {
		for g := 0; g < 80 && in1.Alive(); g++ {
			// Striped LBAs: both targets hold fragments and PMR entries.
			in1.OrderedWrite(p, 0, uint64(1<<20|g), 1, 0, nil, true, false, false)
			p.Sleep(sim.Microsecond)
		}
	})
	eng.At(40*sim.Microsecond, func() {
		c.PowerCutTarget(0)
		c.PowerCutInitiator(1)
	})
	eng.RunUntil(300 * sim.Microsecond)
	recovered := false
	eng.Go("rec-init", func(p *sim.Proc) {
		c.RecoverInitiator(p, 1)
		recovered = true
	})
	eng.Run()
	if !recovered {
		t.Fatal("RecoverInitiator hung on the dead target")
	}
	// Heal the target; the whole cluster must be usable again.
	eng.Go("rec-target", func(p *sim.Proc) { c.RecoverTarget(p, 0) })
	eng.Run()
	done := 0
	for ii := 0; ii < 2; ii++ {
		in := c.Init(ii)
		ii := ii
		eng.Go("post", func(p *sim.Proc) {
			r := in.OrderedWrite(p, 0, uint64(3<<20+ii*4), 2, 0, nil, true, true, false)
			in.Wait(p, r)
			done++
		})
	}
	eng.Run()
	if done != 2 {
		t.Fatalf("post-recovery writes delivered = %d, want 2", done)
	}
	eng.Shutdown()
}
