package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// TestPlugOverflowDrains: submissions beyond MaxPlug must drain inline in
// the submitter's context (Linux flushes plugs on overflow), even while
// an explicit plug window is held open, and every request must complete.
func TestPlugOverflowDrains(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig(ModeRio, OptaneTarget())
	cfg.MaxPlug = 4
	c := New(eng, cfg)
	const n = 19 // not a multiple of MaxPlug: a partial batch stays staged
	var reqs []*blockdev.Request
	eng.Go("app", func(p *sim.Proc) {
		c.Init(0).StartPlug(0)
		for i := 0; i < n; i++ {
			reqs = append(reqs, c.Init(0).OrderedWrite(p, 0, uint64(i*7), 1, 0, nil, true, false, false))
		}
		// 4 full batches must have overflowed to the wire during the held
		// plug; the remainder stays staged until the window closes.
		if got := c.Init(0).Stats().WireMessages; got < 4 {
			t.Errorf("wire messages during held plug = %d, want >= 4", got)
		}
		c.Init(0).FinishPlug(p, 0)
		for _, r := range reqs {
			c.Init(0).Wait(p, r)
		}
	})
	eng.Run()
	if c.Init(0).Stats().Completed != n {
		t.Fatalf("completed = %d, want %d", c.Init(0).Stats().Completed, n)
	}
	for i, r := range reqs {
		if !r.Done.Fired() {
			t.Fatalf("request %d never delivered", i)
		}
	}
	eng.Shutdown()
}

// TestPlugTimerDrains: a partial plug with no overflow and no Wait must
// still reach the wire via the plug-hold timer.
func TestPlugTimerDrains(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig(ModeRio, OptaneTarget())
	c := New(eng, cfg)
	var req *blockdev.Request
	eng.Go("app", func(p *sim.Proc) {
		req = c.Init(0).OrderedWrite(p, 0, 0, 1, 0, nil, true, false, false)
		p.Sleep(200 * sim.Microsecond) // no Wait: only the timer can flush
		if !req.Done.Fired() {
			t.Error("plugged request not delivered by the hold timer")
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestPoolReuseNoResurrection drives enough rounds through one stream
// that every pooled object class is recycled many times, and verifies
// reuse never resurrects a delivered request: each delivery fires
// exactly once and the ticket attributes of delivered requests stay
// intact after their wire commands and tracking lists have been reused
// by later rounds.
func TestPoolReuseNoResurrection(t *testing.T) {
	eng := sim.New(7)
	cfg := DefaultConfig(ModeRio, OptaneTarget())
	c := New(eng, cfg)
	const rounds = 40
	const perRound = 8
	type snap struct {
		req  *blockdev.Request
		attr core.Attr
	}
	var delivered []snap
	eng.Go("app", func(p *sim.Proc) {
		for r := 0; r < rounds; r++ {
			var batch []*blockdev.Request
			for i := 0; i < perRound; i++ {
				lba := uint64(r*perRound+i) * 3
				batch = append(batch, c.Init(0).OrderedWrite(p, 0, lba, 1, 0, nil, true, false, false))
			}
			for _, req := range batch {
				c.Init(0).Wait(p, req)
				if req.DeliverAt == 0 {
					t.Fatal("delivered request without DeliverAt")
				}
				delivered = append(delivered, snap{req, req.Ticket.Attr})
			}
			// Earlier rounds' wires and lists have been recycled by now:
			// their requests must be untouched.
			for _, s := range delivered {
				if s.req.Ticket.Attr != s.attr {
					t.Fatalf("round %d: delivered ticket attr mutated: %+v != %+v",
						r, s.req.Ticket.Attr, s.attr)
				}
				if s.req.DispatchScratch != nil {
					t.Fatal("delivered request still holds dispatch scratch")
				}
			}
		}
	})
	eng.Run()
	st := c.Init(0).Stats()
	if st.Completed != rounds*perRound {
		t.Fatalf("completed = %d, want %d", st.Completed, rounds*perRound)
	}
	if st.Pool.Hits == 0 {
		t.Fatal("pooling never reused an object; the test exercised nothing")
	}
	if st.Pool.HitRate() < 0.5 {
		t.Fatalf("pool hit rate = %.2f, want >= 0.5 in steady state", st.Pool.HitRate())
	}
	// Deliveries are one-shot: Submitted == Completed and every snapshot
	// request remains delivered.
	for _, s := range delivered {
		if !s.req.Done.Fired() {
			t.Fatal("delivered request lost its completion")
		}
	}
	eng.Shutdown()
}

// TestVectorSplitAtTargetBoundaries: a striped write spanning several
// target servers must be split into per-target vectored batches; the
// target-side receive path verifies every batch's vector geometry
// (panicking on a torn or cross-target batch) and counts it.
func TestVectorSplitAtTargetBoundaries(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig(ModeRio,
		TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig(), ssd.OptaneConfig()}},
		TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig(), ssd.OptaneConfig()}})
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		// 8 blocks round-robin over 4 SSDs on 2 targets: every write
		// touches both target servers.
		for i := 0; i < 6; i++ {
			r := c.Init(0).OrderedWrite(p, 0, uint64(i*8), 8, 0, nil, true, false, false)
			c.Init(0).Wait(p, r)
		}
	})
	eng.Run()
	v0, v1 := c.Target(0).Stats().Vectors, c.Target(1).Stats().Vectors
	if v0 == 0 || v1 == 0 {
		t.Fatalf("vectored batches not seen on both targets: %d/%d", v0, v1)
	}
	if c.Init(0).Stats().Completed != 6 {
		t.Fatalf("completed = %d, want 6", c.Init(0).Stats().Completed)
	}
	// Each spanning request produced wire commands for both targets, so
	// commands must outnumber doorbell rings (coalescing happened) and
	// every ring held a single-target batch (validated target-side).
	st := c.Init(0).Stats()
	if st.Batch.Rings == 0 || st.Batch.Items <= st.Batch.Rings {
		t.Fatalf("no doorbell coalescing: %d cmds over %d rings", st.Batch.Items, st.Batch.Rings)
	}
	eng.Shutdown()
}

// TestPoolingAcrossCrashRecovery: pooled state must not leak across a
// power cycle — the crash path drops every shard pool, and post-recovery
// traffic runs correctly on fresh pools.
func TestPoolingAcrossCrashRecovery(t *testing.T) {
	eng := sim.New(11)
	cfg := DefaultConfig(ModeRio, OptaneTarget())
	cfg.KeepHistory = true
	c := New(eng, cfg)
	stopped := false
	eng.Go("load", func(p *sim.Proc) {
		for i := 0; !stopped; i++ {
			c.Init(0).OrderedWrite(p, i%cfg.Streams, uint64(i), 1, 0, nil, true, false, false)
			p.Sleep(sim.Microsecond)
		}
	})
	eng.At(300*sim.Microsecond, func() { c.PowerCutAll(); stopped = true })
	eng.RunUntil(400 * sim.Microsecond)
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverFull(p)
		// Fresh traffic on the recovered cluster.
		for i := 0; i < 20; i++ {
			r := c.Init(0).OrderedWrite(p, 0, uint64(1000+i), 1, 0, nil, true, false, false)
			c.Init(0).Wait(p, r)
			if !r.Done.Fired() {
				t.Fatal("post-recovery request not delivered")
			}
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestPoisonCatchesCompletionEventReuse: the recycle hook the crash-fuzz
// drivers run under must catch what it is there for — a completion event
// recycled twice, and an SSD completion arriving for the command embedded
// in an event that was already recycled.
func TestPoisonCatchesCompletionEventReuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	eng := sim.New(1)
	c := New(eng, DefaultConfig(ModeRio, OptaneTarget()))
	c.PoisonRecycled()
	tgt := c.Target(0)
	d := tgt.getDone()
	tgt.putDone(d)
	mustPanic("second recycle", func() { tgt.putDone(d) })
	mustPanic("SSD completion of a recycled event", func() { d.cmd.Done(&d.cmd) })
	if got := tgt.getDone(); got == d {
		t.Error("poisoned event was reissued")
	}
	eng.Shutdown()
}
