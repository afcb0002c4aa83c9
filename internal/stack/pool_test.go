package stack

import (
	"bytes"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fabric"
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
		if got := c.Init(0).Stats().TxMsgs; got < 4 {
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
// target-side receive path checks every entry is addressed to it
// (panicking on a cross-target batch), and both targets receive capsules.
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
	v0, v1 := c.Target(0).Stats().Capsules, c.Target(1).Stats().Capsules
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
// in an event that was already recycled; likewise a boundary record
// recycled twice or handed to a consumer after its recycle.
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

	cp, msg := c.getCapsule(0, 0), c.getMsg(0, 0, 0)
	c.putCapsule(cp)
	c.putMsg(msg)
	mustPanic("second capsule recycle", func() { c.putCapsule(cp) })
	mustPanic("second message recycle", func() { c.putMsg(msg) })
	mustPanic("a recycled capsule received", func() { tgt.recvCapsule(0, 0, cp) })
	if c.getCapsule(0, 0) == cp || c.getMsg(0, 0, 0) == msg {
		t.Error("a poisoned boundary record was reissued")
	}

	in := c.Init(0)
	pr := in.getRead(readRun{})
	in.putRead(pr)
	mustPanic("second read recycle", func() { in.putRead(pr) })
	mustPanic("SSD completion of a recycled read", func() { pr.cmd.Done(&pr.cmd) })
	if in.getRead(readRun{}) == pr {
		t.Error("a poisoned read record was reissued")
	}
	eng.Shutdown()
}

// TestReadRecordsRecycleOnce: a read record is recycled once its completion
// has been handled, and a record a fault abandoned never is. Poisoned, a
// reader reads every block of a 3-way set back, stamp and payload, through
// the uncached and the cached path while the set's read member is cut with
// reads in flight (each rerouted to a fresh record); then the initiator is
// cut with reads in flight, whose completions reach abandoned records.
func TestReadRecordsRecycleOnce(t *testing.T) {
	const blocks = 64
	payload := func(lba uint64) []byte { return []byte{byte(lba), 0xAB} }
	for _, cached := range []bool{false, true} {
		name := "uncached"
		if cached {
			name = "cached"
		}
		t.Run(name, func(t *testing.T) {
			eng := sim.New(3)
			cfg := replConfig(3)
			if cached {
				cfg.CacheBlocks, cfg.ReadAhead = 16, 4
			}
			c := New(eng, cfg)
			defer eng.Shutdown()
			c.PoisonRecycled()
			in := c.Init(0)
			eng.Go("fill", func(p *sim.Proc) {
				var reqs []*blockdev.Request
				for lba := uint64(0); lba < blocks; lba++ {
					reqs = append(reqs, in.OrderlessWrite(p, 0, lba, 1, lba+1, [][]byte{payload(lba)}))
				}
				for _, r := range reqs {
					in.Wait(p, r)
				}
			})
			runPoisoned(t, eng.Run)

			const passes = 3
			reads, bad := 0, 0
			eng.Go("reader", func(p *sim.Proc) {
				out := make([]ssd.Rec, 2)
				for pass := 0; pass < passes; pass++ {
					for lba := uint64(0); lba < blocks; lba += 2 {
						in.ReadStream(p, 0, lba, 2, out)
						for j, rec := range out {
							if b := lba + uint64(j); rec.Stamp != b+1 || !bytes.Equal(rec.Data, payload(b)) {
								bad++
							}
						}
						reads++
					}
				}
			})
			rerouted, deadline := 0, eng.Now()+sim.Millisecond
			runPoisoned(t, func() {
				for (rerouted == 0 || reads < 8) && eng.Now() < deadline {
					eng.RunFor(100)
					rerouted = 0
					for _, pr := range in.pendingReads.All() {
						if pr.member == 0 { // the set's read member
							rerouted++
						}
					}
				}
				c.PowerCutTarget(0)
				eng.Run()
			})
			if want := passes * blocks / 2; reads != want || bad != 0 || rerouted == 0 {
				t.Fatalf("%d of %d reads returned, %d blocks read back wrong, %d rerouted at the member cut", reads, want, bad, rerouted)
			}

			eng.Go("reader", func(p *sim.Proc) {
				for lba := uint64(0); in.Alive(); lba = (lba + 1) % blocks {
					in.ReadStream(p, 0, lba, 1, nil)
				}
			})
			runPoisoned(t, func() {
				for in.pendingReads.Len() == 0 && eng.Now() < deadline+sim.Millisecond {
					eng.RunFor(100)
				}
				if in.pendingReads.Len() == 0 {
					t.Fatal("no read in flight at the initiator cut")
				}
				c.PowerCutInitiator(0)
				eng.Run()
			})
		})
	}
}

// runPoisoned runs fn — the engine of a poisoned cluster — and fails the
// test with the panic a misused boundary record raises. The engine is left
// as the panic left it.
func runPoisoned(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic: %v", r)
		}
	}()
	fn()
}

// TestBoundaryRecordsRecycleOnce: capsules, completion messages and relay
// acks are recycled by their last reader, exactly once, and never read
// after. Each case runs poisoned (a recycled record is scrubbed and never
// reissued; a second recycle, or a consumer handed a recycled record,
// panics) through a schedule that strands or drops records mid-flight:
//
//   - a head cut mid-batch on a 3-way relay set (forwarded capsules and
//     relay acks in flight, re-asks, resync);
//   - a target cut while capsules sit in its receive queues (drained, then
//     replayed after recovery);
//   - Horae control acks in flight, whose control list the ack takes from
//     its capsule: the scrub clears a recycled capsule's list, so an ack
//     still sharing it would fire nothing.
func TestBoundaryRecordsRecycleOnce(t *testing.T) {
	delivered := func(t *testing.T, reqs []*blockdev.Request) {
		t.Helper()
		for i, r := range reqs {
			if !r.Done.Fired() {
				t.Fatalf("request %d of %d never delivered", i, len(reqs))
			}
		}
	}

	t.Run("relay head cut mid-batch", func(t *testing.T) {
		eng := sim.New(24)
		c := New(eng, relayConfig(3))
		c.PoisonRecycled()
		reqs := headCutTraffic(eng, c, 60, true)
		var relayed int64
		eng.At(60*sim.Microsecond, func() {
			relayed = c.Target(0).Stats().Relays
			c.PowerCutTarget(0)
		})
		runPoisoned(t, func() {
			eng.Run()
			eng.Go("resync", func(p *sim.Proc) { c.RecoverTarget(p, 0) })
			eng.Run()
		})
		if relayed == 0 {
			t.Fatal("nothing relayed before the head cut: the schedule exercises no forwarded capsule")
		}
		delivered(t, *reqs)
		mediaIdentical(t, c)
		eng.Shutdown()
	})

	t.Run("target cut with capsules queued", func(t *testing.T) {
		eng := sim.New(5)
		cfg := smallConfig(ModeRio, OptaneTarget(), OptaneTarget())
		cfg.TargetCores = 1
		c := New(eng, cfg)
		c.PoisonRecycled()
		var reqs []*blockdev.Request
		for s := 0; s < cfg.Streams; s++ {
			eng.Go("app", func(p *sim.Proc) {
				for g := 0; g < 40; g++ {
					reqs = append(reqs, c.Init(0).OrderedWrite(p, s, uint64(s*100000+g), 1, 0, nil, true, false, false))
					p.Sleep(sim.Microsecond)
				}
			})
		}
		queued := func() int {
			n := 0
			for k := range c.targets[1].lanes {
				n += c.targets[1].lanes[k].rxQ.Len()
			}
			return n
		}
		atCut, cutAt := 0, sim.Time(0)
		runPoisoned(t, func() {
			for atCut == 0 && eng.Now() < 100*sim.Microsecond {
				eng.RunFor(50)
				atCut = queued()
			}
			cutAt = eng.Now()
			c.PowerCutTarget(1)
			eng.Run()
			eng.Go("recover", func(p *sim.Proc) { c.RecoverTarget(p, 1) })
			eng.Run()
		})
		if atCut == 0 {
			t.Fatal("no capsule queued at the target before the cut")
		}
		t.Logf("%d capsules queued at the cut at %v, %d requests", atCut, cutAt, len(reqs))
		delivered(t, reqs)
		if err := c.Audit().Err(); err != nil {
			t.Fatal(err)
		}
		eng.Shutdown()
	})

	t.Run("horae control acks in flight", func(t *testing.T) {
		eng := sim.New(7)
		c := New(eng, smallConfig(ModeHorae, OptaneTarget(), OptaneTarget()))
		c.PoisonRecycled()
		acks := 0
		for _, tgt := range c.targets {
			tgt.conns[0].SetHandler(fabric.Initiator, func(m fabric.Message) {
				cm := m.Payload.(*completionMsg)
				if cm.ctrlAck != nil {
					acks++
				}
				c.inits[0].reapShard(cm.qp).cplQ.Push(cm)
			})
		}
		var reqs []*blockdev.Request
		for s := 0; s < 4; s++ {
			eng.Go("app", func(p *sim.Proc) {
				var r *blockdev.Request
				for g := 0; g < 40; g++ {
					// Groups of four: the boundary write runs the control path.
					r = c.Init(0).OrderedWrite(p, s, uint64(s*100000+g*3), 1, 0, nil, g%4 == 3, false, false)
					reqs = append(reqs, r)
				}
				c.Init(0).Wait(p, r)
			})
		}
		runPoisoned(t, eng.Run)
		if acks == 0 {
			t.Fatal("no control ack crossed the fabric")
		}
		t.Logf("%d control acks, %d requests", acks, len(reqs))
		delivered(t, reqs)
		eng.Shutdown()
	})
}

// TestReleasedRequestLifetime: a released write request returns to its
// initiator once it is delivered, whether Release came before the delivery
// or after it, and the next write reuses it; a request never released is
// never reused, and releasing twice panics. Under PoisonRecycled a
// reclaimed request is never reissued, and a Wait on it panics.
func TestReleasedRequestLifetime(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	for _, poison := range []bool{false, true} {
		eng := sim.New(1)
		c := New(eng, DefaultConfig(ModeRio, OptaneTarget()))
		if poison {
			c.PoisonRecycled()
		}
		in := c.Init(0)
		eng.Go("app", func(p *sim.Proc) {
			write := func(lba uint64) *blockdev.Request {
				return in.OrderedWrite(p, 0, lba, 1, 0, nil, true, false, false)
			}
			kept := write(10)
			in.Wait(p, kept)
			early := write(11)
			in.Release(early)
			late := write(12)
			in.Wait(p, late)
			in.Release(late)
			if !early.Free() || !late.Free() || kept.Free() {
				t.Errorf("poison=%v: free early=%v late=%v kept=%v, want true true false",
					poison, early.Free(), late.Free(), kept.Free())
			}
			next := write(13)
			if reused := next == early || next == late; reused == poison {
				t.Errorf("poison=%v: next write reused a reclaimed request: %v", poison, reused)
			}
			if next == kept {
				t.Errorf("poison=%v: an unreleased request was reused", poison)
			}
			in.Wait(p, next)
			in.Release(next)
			mustPanic("second Release", func() { in.Release(next) })
			if poison {
				mustPanic("Wait on a reclaimed request", func() { in.Wait(p, late) })
			}
		})
		eng.Run()
		eng.Shutdown()
	}
}
