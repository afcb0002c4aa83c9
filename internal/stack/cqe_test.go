package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/nvmeof"
	"repro/internal/sim"
)

// driveOrderedWrites runs n ordered 4K writes per stream across the given
// number of streams and waits for all of them.
func driveOrderedWrites(eng *sim.Engine, c *Cluster, streams, n int) {
	for s := 0; s < streams; s++ {
		s := s
		eng.Go("app", func(p *sim.Proc) {
			var reqs []*blockdev.Request
			for i := 0; i < n; i++ {
				// Gaps defeat merging; stride 3 cycles the SSD's 7 channels so
				// completions overlap (stride 7 would serialize one channel).
				lba := uint64(s*100000 + i*3)
				reqs = append(reqs, c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, true, false, false))
			}
			for _, r := range reqs {
				c.Init(0).Wait(p, r)
			}
		})
	}
	eng.Run()
}

// TestCQECoalescingReducesCompletionMessages: the target must pack
// multiple CQEs per response capsule, so the initiator sees fewer
// completion messages than completed requests (occupancy > 1,
// messages/op < 1).
func TestCQECoalescingReducesCompletionMessages(t *testing.T) {
	eng := sim.New(7)
	cfg := smallConfig(ModeRio, optane1()...)
	c := New(eng, cfg)
	driveOrderedWrites(eng, c, 2, 40)
	st := c.Init(0).Stats()
	if st.Completed != 80 {
		t.Fatalf("completed = %d, want 80", st.Completed)
	}
	if occ := st.CplBatch.Occupancy(); occ <= 1 {
		t.Fatalf("cqe batch occupancy = %.2f, want > 1", occ)
	}
	if mpo := st.CompletionMsgsPerOp(); mpo >= 1 {
		t.Fatalf("completion msgs/op = %.2f, want < 1", mpo)
	}
	ts := c.Target(0).Stats()
	if ts.Responses >= ts.CQEs {
		t.Fatalf("target responses=%d cqes=%d: capsules must carry >1 CQE on average", ts.Responses, ts.CQEs)
	}
	// Conservation: every CQE the target shipped was received and counted.
	if st.CplBatch.Items != ts.CQEs || st.CplBatch.Rings != ts.Responses {
		t.Fatalf("initiator saw %d cqes in %d capsules, target sent %d in %d",
			st.CplBatch.Items, st.CplBatch.Rings, ts.CQEs, ts.Responses)
	}
	if st.ReapCPU <= 0 {
		t.Fatal("reap CPU not accounted")
	}
	eng.Shutdown()
}

// TestCQECoalescingKeepsDeliveryOrder: coalescing changes wire framing,
// never semantics — every request is delivered, in submission order.
func TestCQECoalescingKeepsDeliveryOrder(t *testing.T) {
	eng := sim.New(9)
	c := New(eng, smallConfig(ModeRio, optane1()...))
	var order []uint64
	eng.Go("app", func(p *sim.Proc) {
		var reqs []*blockdev.Request
		for i := 0; i < 30; i++ {
			reqs = append(reqs, c.Init(0).OrderedWrite(p, 0, uint64(i*5), 1, 0, nil, true, false, false))
		}
		for _, r := range reqs {
			c.Init(0).Wait(p, r)
			order = append(order, r.Ticket.Attr.SeqStart)
		}
	})
	eng.Run()
	eng.Shutdown()
	if len(order) != 30 {
		t.Fatalf("deliveries = %d, want 30", len(order))
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("delivery order breaks at %d: seq %d after %d", i, order[i], order[i-1])
		}
	}
}

// TestTornCQEVectorPanics: the initiator validates coalesced-capsule
// geometry exactly like the target validates submission vectors — a torn
// capsule is a simulation bug and must panic loudly.
func TestTornCQEVectorPanics(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, smallConfig(ModeRio, optane1()...))
	// A capsule whose entries claim a longer batch than arrived.
	cqes := make([]nvmeof.CQE, 3)
	for i := range cqes {
		cqes[i] = nvmeof.NewCQE(uint64(1000 + i))
		cqes[i].MarkCQEVector(i, 5) // claims 5, carries 3
	}
	c.inits[0].shards[0].cplQ.Push(&completionMsg{cqes: cqes, qp: 0, epoch: c.inits[0].epoch})
	defer func() {
		if recover() == nil {
			t.Fatal("torn coalesced completion capsule did not panic")
		}
		eng.Shutdown()
	}()
	eng.Run()
}

// TestTargetCrashRaceWithCoalescedCompletions: a target power cut racing
// an in-flight completion context must not wedge the coalescing state. A
// doneLoop proc that was mid-completion at the cut calls respond() after
// crash cleanup cleared the pending buffers; if that pollutes the buffer
// or leaves an armed flag with no live timer behind it, a post-recovery
// sub-threshold batch strands and RecoverTarget's replay wait never
// returns (the regression this test pins fired at cut=300µs, seed 7).
func TestTargetCrashRaceWithCoalescedCompletions(t *testing.T) {
	for _, cutUS := range []int64{280, 290, 300, 310} {
		eng := sim.New(7)
		cfg := DefaultConfig(ModeRio, OptaneTarget(), FlashTarget())
		cfg.Streams = 4
		cfg.QPs = 4
		cfg.Fabric.NumQPs = 4
		cfg.KeepHistory = true
		c := New(eng, cfg)
		var reqs []*blockdev.Request
		for s := 0; s < 4; s++ {
			s := s
			eng.Go("app", func(p *sim.Proc) {
				for g := 0; g < 200; g++ {
					r := c.Init(0).OrderedWrite(p, s, uint64(s*1_000_000+g), 1, 0, nil, true, false, false)
					reqs = append(reqs, r)
					p.Sleep(2 * sim.Microsecond)
				}
			})
		}
		cut := sim.Time(cutUS) * sim.Microsecond
		eng.At(cut, func() { c.PowerCutTarget(1) })
		eng.RunUntil(cut + sim.Millisecond)
		var tm RecoveryTiming
		recovered := false
		eng.Go("recover", func(p *sim.Proc) {
			_, tm = c.RecoverTarget(p, 1)
			recovered = true
		})
		eng.Run()
		if !recovered {
			t.Fatalf("cut=%dµs: RecoverTarget wedged (replay completion never flushed)", cutUS)
		}
		eng.Run() // drain remaining deliveries
		undelivered := 0
		for _, r := range reqs {
			if !r.Done.Fired() {
				undelivered++
			}
		}
		if undelivered != 0 {
			t.Fatalf("cut=%dµs: %d of %d requests never delivered (replayed %d)",
				cutUS, undelivered, len(reqs), tm.Replayed)
		}
		// The pinned schedule was found with merging off. It runs on the
		// default configuration now, and stays the same schedule only while
		// this traffic (one write per stream every 2 µs over a chunk-1 stripe)
		// never leaves two commands of one device in a dispatch batch.
		if fused := c.Init(0).Stats().FusedCmds; fused != 0 {
			t.Fatalf("cut=%dµs: %d commands fused: this is no longer the schedule the regression was pinned at", cutUS, fused)
		}
		eng.Shutdown()
	}
}

// TestCQEHoldTimerFlushesPartialBatch: a batch smaller than CQEBatch must
// still ship once the hold timer expires — no completion may wait forever
// for companions.
func TestCQEHoldTimerFlushesPartialBatch(t *testing.T) {
	eng := sim.New(5)
	cfg := smallConfig(ModeRio, optane1()...)
	cfg.CQEBatch = 1 << 20 // threshold unreachable: only the timer flushes
	c := New(eng, cfg)
	done := false
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 42, 1, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("lone completion never flushed (hold timer broken)")
	}
	if got := c.Init(0).Stats().CplBatch.Rings; got == 0 {
		t.Fatal("no completion capsule recorded")
	}
	eng.Shutdown()
}
