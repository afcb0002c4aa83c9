package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// satTarget1 builds one Optane target with the SSD saturation model
// enabled at an aggressively low knee, so a handful of open-loop writers
// push it past its service ceiling within a few hundred microseconds.
func satTarget1() []TargetConfig {
	c := ssd.OptaneConfig()
	c.SatKnee = 2
	c.SatFactorMax = 8
	return []TargetConfig{{SSDs: []ssd.Config{c}}}
}

// backpressureConfig is a cluster with the full pushback chain bounded
// tightly: device saturation -> fabric TX stalls -> submit gate.
func backpressureConfig() Config {
	cfg := smallConfig(ModeRio, satTarget1()...)
	cfg.MaxInflight = 32
	cfg.Fabric.TxDepth = 16
	return cfg
}

// drainAndAudit asserts the conservation invariants after an overload
// run has fully drained: every submitted request delivered exactly once
// (no losses, no duplicates), dense per-server ordering chains, and
// ordering-engine gates clean.
func drainAndAudit(t *testing.T, c *Cluster, reqs []*blockdev.Request) {
	t.Helper()
	for i, r := range reqs {
		if !r.Done.Fired() {
			t.Fatalf("request %d never completed under backpressure", i)
		}
	}
	st := c.StatsAll()
	if st.Completed != st.Submitted {
		t.Fatalf("completed %d != submitted %d (lost or duplicated completions)",
			st.Completed, st.Submitted)
	}
	if v := c.OrderAudit(); v != 0 {
		t.Fatalf("order audit: %d violations", v)
	}
	for ti := 0; ti < c.Targets(); ti++ {
		if v := c.Target(ti).GateAudit(); v != 0 {
			t.Fatalf("target %d gate audit: %d violations", ti, v)
		}
	}
}

// TestBackpressureSaturatedNoLossNoDup drives open-loop writers far past
// the device knee with every backpressure bound engaged and verifies
// that completions are conserved: the gate may stall submitters, but it
// must never lose or double-deliver a request.
func TestBackpressureSaturatedNoLossNoDup(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, backpressureConfig())
	var reqs []*blockdev.Request
	stopped := false
	for s := 0; s < 4; s++ {
		s := s
		eng.Go("sat", func(p *sim.Proc) {
			stamp := uint64(s+1) << 32
			for i := uint64(0); !stopped; i++ {
				stamp++
				// Fire-and-forget at a rate the device cannot sustain:
				// only the submit gate throttles this loop.
				reqs = append(reqs, c.Init(0).OrderedWrite(
					p, s, uint64(s)<<20|i, 1, stamp, nil, true, false, false))
				p.Sleep(200) // 5M ops/s offered per stream
			}
		})
	}
	eng.At(400*sim.Microsecond, func() { stopped = true })
	eng.Run()

	drainAndAudit(t, c, reqs)
	if c.StatsAll().SubmitStalls == 0 {
		t.Fatal("overload never tripped the submit gate (MaxInflight bound inert)")
	}
	if c.Target(0).SSD(0).Stats().SatStall == 0 {
		t.Fatal("overload never engaged the SSD saturation model")
	}
}

// TestBackpressureLoadStep walks the offered load across the knee and
// back (calm -> overload -> calm) and verifies the same conservation
// invariants: backpressure must engage and then fully release without
// stranding a request.
func TestBackpressureLoadStep(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, backpressureConfig())
	var reqs []*blockdev.Request
	stopped := false
	phase := func(now sim.Time) sim.Time {
		switch {
		case now < 200*sim.Microsecond:
			return 2 * sim.Microsecond // calm: well under the knee
		case now < 500*sim.Microsecond:
			return 200 // step: far past the knee
		default:
			return 2 * sim.Microsecond // recovery
		}
	}
	for s := 0; s < 4; s++ {
		s := s
		eng.Go("step", func(p *sim.Proc) {
			stamp := uint64(s+1) << 32
			for i := uint64(0); !stopped; i++ {
				stamp++
				reqs = append(reqs, c.Init(0).OrderedWrite(
					p, s, uint64(s)<<20|i, 1, stamp, nil, true, false, false))
				p.Sleep(phase(p.Now()))
			}
		})
	}
	eng.At(800*sim.Microsecond, func() { stopped = true })
	eng.Run()

	drainAndAudit(t, c, reqs)
	if c.StatsAll().SubmitStalls == 0 {
		t.Fatal("the overload step never tripped the submit gate")
	}
}

// TestSubmitGateSmallBound regression-tests the inflight-gate wakeup
// with MaxInflight smaller than the number of concurrent submitters.
// Waiters count their own request into inflight, so a wakeup fired only
// when inflight drops BELOW the bound never reaches them once blocked
// submitters >= MaxInflight — with the bound at 1 and four writers, the
// second write would park forever. Every request must still complete.
func TestSubmitGateSmallBound(t *testing.T) {
	for _, bound := range []int{1, 2} {
		eng := sim.New(1)
		cfg := backpressureConfig()
		cfg.MaxInflight = bound
		c := New(eng, cfg)
		var reqs []*blockdev.Request
		for s := 0; s < 4; s++ {
			s := s
			eng.Go("small", func(p *sim.Proc) {
				stamp := uint64(s+1) << 32
				for i := uint64(0); i < 50; i++ {
					stamp++
					reqs = append(reqs, c.Init(0).OrderedWrite(
						p, s, uint64(s)<<20|i, 1, stamp, nil, true, false, false))
				}
			})
		}
		eng.Run()
		drainAndAudit(t, c, reqs)
		if st := c.StatsAll(); st.SubmitStalls == 0 {
			t.Fatalf("MaxInflight=%d with 4 writers never stalled a submitter", bound)
		}
	}
}

// TestSubmitGateReleasesOnCrash parks writers on a full inflight bound,
// power-cuts the initiator, and verifies the stalled submitters wake and
// exit instead of deadlocking, and that a recovered initiator starts
// with a clean inflight count (no leak from the dead incarnation).
func TestSubmitGateReleasesOnCrash(t *testing.T) {
	eng := sim.New(1)
	cfg := backpressureConfig()
	cfg.MaxInflight = 4
	c := New(eng, cfg)
	submitted := 0
	eng.Go("app", func(p *sim.Proc) {
		for i := uint64(0); i < 500; i++ {
			c.Init(0).OrderedWrite(p, 0, i, 1, i+1, nil, true, false, false)
			submitted++
		}
	})
	submittedAtCut := -1
	eng.At(50*sim.Microsecond, func() {
		submittedAtCut = submitted
		c.PowerCutInitiator(0)
	})
	eng.RunUntil(600 * sim.Microsecond)
	if submittedAtCut < 0 || submittedAtCut == 500 {
		t.Fatalf("power cut was supposed to land while the gate was stalling submissions (submitted=%d at cut)",
			submittedAtCut)
	}
	var recovered bool
	eng.Go("rec", func(p *sim.Proc) {
		c.RecoverInitiator(p, 0)
		r := c.Init(0).OrderedWrite(p, 0, 9999, 1, 1<<40, nil, true, false, false)
		c.Init(0).Wait(p, r)
		recovered = true
	})
	eng.Run()
	if !recovered {
		t.Fatal("post-recovery write never completed (inflight state leaked across the crash)")
	}
}

// burstStreams has each stream of every initiator plug n single-block
// ordered writes at time 0 and dispatch them in its own place, so the
// thread itself posts the capsules. The LBAs are disjoint and non-adjacent
// (nothing fuses). It returns each (initiator, stream)'s requests in
// submission order.
func burstStreams(eng *sim.Engine, c *Cluster, streams, n int) [][]*blockdev.Request {
	var reqs [][]*blockdev.Request
	for i := 0; i < c.Initiators(); i++ {
		for s := 0; s < streams; s++ {
			in, s, k := c.Init(i), s, len(reqs)
			reqs = append(reqs, nil)
			eng.Go("burst", func(p *sim.Proc) {
				in.StartPlug(s)
				for j := 0; j < n; j++ {
					lba := uint64(k)<<20 | uint64(2*j)
					reqs[k] = append(reqs[k], in.OrderedWrite(p, s, lba, 1, 0, nil, true, false, false))
				}
				in.FinishPlug(p, s)
			})
		}
	}
	return reqs
}

// deliveredInOrder fails unless every request completed and each stream's
// requests were delivered in submission order.
func deliveredInOrder(t *testing.T, reqs [][]*blockdev.Request) {
	t.Helper()
	for s, rs := range reqs {
		for i, r := range rs {
			if !r.Done.Fired() {
				t.Fatalf("stream %d: write %d never delivered", s, i)
			}
			if i > 0 && r.DeliverAt < rs[i-1].DeliverAt {
				t.Fatalf("stream %d: write %d delivered at %v, before write %d at %v",
					s, i, r.DeliverAt, i-1, rs[i-1].DeliverAt)
			}
		}
	}
}

// TestTxQueueStallsPosters runs the fabric TX bound at a depth it binds
// at: a TX queue of one message, no submit gate, and four streams posting
// capsules in the same instant. The initiator's posts stall for TX space,
// and so, over the relay, do the head's forwards to its followers, which
// two initiators' capsules feed at twice one link's rate; the
// stalls are charged to the sampled spans as WaitTx, and ordering and
// delivery are untouched by the waits.
func TestTxQueueStallsPosters(t *testing.T) {
	for _, relay := range []bool{false, true} {
		eng := sim.New(1)
		cfg := smallConfig(ModeRio, optane1()...)
		if relay {
			cfg = relayConfig(3)
			cfg.Initiators = 2
		}
		cfg.Fabric.TxDepth = 1
		cfg.MaxInflight = 0
		cfg.Trace = trace.Config{SampleEvery: 1}
		c := New(eng, cfg)
		reqs := burstStreams(eng, c, 4, 32)
		eng.Run()

		deliveredInOrder(t, reqs)
		if v := c.OrderAudit(); v != 0 {
			t.Fatalf("relay=%v: order audit: %d violations", relay, v)
		}
		if n := c.Target(0).conns[0].Stats(fabric.Target).TxStalls; n == 0 {
			t.Fatalf("relay=%v: the initiator's posts never stalled on a TX depth of 1", relay)
		}
		if relay {
			var forwards int64
			for _, conn := range c.replSets[0].relay[1:] {
				forwards += conn.Stats(fabric.Target).TxStalls
			}
			if forwards == 0 {
				t.Fatal("the head's relay forwards never stalled on a TX depth of 1")
			}
			mediaIdentical(t, c)
		}
		if w := c.TraceStats().WaitTotal[trace.WaitTx]; w == 0 {
			t.Fatalf("relay=%v: TX stalls were not attributed to any sampled span", relay)
		}
		eng.Shutdown()
	}
}

// pmrFullConfig is one initiator on one Optane target whose PMR partition
// holds pmrSlots ordering entries: fewer than a writer keeps in flight.
const pmrSlots = 8

func pmrFullConfig() Config {
	cfg := smallConfig(ModeRio, optane1()...)
	cfg.Targets[0].SSDs[0].PMRSize = pmrSlots * core.EntrySize
	return cfg
}

// pmrWriters puts more writes in flight than the partition holds on two
// streams of initiator 0: stream 0 fires n writes at once and posts
// nothing after them, stream 1 keeps window > pmrSlots writes in flight
// for n writes. It returns each stream's requests in submission order.
func pmrWriters(eng *sim.Engine, c *Cluster, n, window int) [][]*blockdev.Request {
	reqs := make([][]*blockdev.Request, 2)
	in := c.Init(0)
	eng.Go("burst", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			reqs[0] = append(reqs[0], in.OrderedWrite(p, 0, uint64(2*i), 1, 0, nil, true, false, false))
		}
	})
	eng.Go("window", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			reqs[1] = append(reqs[1], in.OrderedWrite(p, 1, 1<<20|uint64(2*i), 1, 0, nil, true, false, false))
			if i >= window {
				in.Wait(p, reqs[1][i-window])
			}
		}
	})
	return reqs
}

// TestPMRLogFullParksAppends keeps more writes in flight than the PMR
// partition holds entries. Appends park on the full log and resume as
// watermarks retire entries: those on later command capsules, and, for the
// stream that posts nothing more, those the target asks for when an append
// parks (watermarks-only capsules, counted as initiator egress). Every
// write is delivered in order, also when the partition's oldest entry
// waits on a slow target and retiring the younger ones frees
// nothing. A last run cuts the initiator while appends are parked:
// recovery formats the partition, the parked appends drop, and no
// dead-incarnation entry reaches the fresh partition.
func TestPMRLogFullParksAppends(t *testing.T) {
	const n, window = 3 * pmrSlots, 2 * pmrSlots
	t.Run("drain", func(t *testing.T) {
		eng := sim.New(1)
		c := New(eng, pmrFullConfig())
		reqs := pmrWriters(eng, c, n, window)
		eng.Run()
		deliveredInOrder(t, reqs)
		if v := c.OrderAudit(); v != 0 {
			t.Fatalf("order audit: %d violations", v)
		}
		st := c.Target(0).Stats()
		if st.PMRFull == 0 || st.PMRAppends != 2*n {
			t.Fatalf("%d appends parked on a full log, %d appended; want > 0 and %d", st.PMRFull, st.PMRAppends, 2*n)
		}
		// The capsules the target processed carried commands; the rest of
		// the initiator's egress is the watermarks-only capsules it asked
		// for, counted like any capsule.
		in := c.Init(0).Stats()
		if in.TxMsgs <= st.Capsules {
			t.Fatalf("initiator egress %d capsules, target took %d command capsules: the watermarks-only capsules went uncounted", in.TxMsgs, st.Capsules)
		}
		// Likewise the target's responses are the capsules that carried
		// CQEs and the log-full asks, each posted and counted.
		if st.Responses <= in.CplBatch.Rings {
			t.Fatalf("target posted %d responses, initiator reaped %d capsules with CQEs: the log-full asks went uncounted", st.Responses, in.CplBatch.Rings)
		}
		eng.Shutdown()
	})
	t.Run("hole", func(t *testing.T) {
		// The partition's oldest entry belongs to a write whose delivery
		// waits on a slow second target: retiring the entries behind it
		// frees no space, so the parked appends re-ask until it is
		// delivered.
		eng := sim.New(1)
		cfg := pmrFullConfig()
		cfg.Targets = append(cfg.Targets, OptaneTarget())
		cfg.Targets[1].SSDs[0].MediaWriteLat = 300 * sim.Microsecond
		c := New(eng, cfg)
		in := c.Init(0)
		reqs := make([][]*blockdev.Request, 2)
		eng.Go("head", func(p *sim.Proc) {
			for lba := uint64(1); lba <= 2; lba++ { // target 1, then target 0
				reqs[1] = append(reqs[1], in.OrderedWrite(p, 1, lba, 1, 0, nil, true, false, false))
			}
		})
		eng.Go("burst", func(p *sim.Proc) {
			p.Sleep(5 * sim.Microsecond)
			for i := 0; i < n; i++ {
				reqs[0] = append(reqs[0], in.OrderedWrite(p, 0, 1<<20|uint64(4*i), 1, 0, nil, true, false, false))
			}
		})
		eng.Run()
		deliveredInOrder(t, reqs)
		if last := reqs[0][n-1].DeliverAt; last < reqs[1][1].DeliverAt {
			t.Fatalf("the burst finished at %v, before the head entry's write was delivered at %v", last, reqs[1][1].DeliverAt)
		}
		if v := c.OrderAudit(); v != 0 {
			t.Fatalf("order audit: %d violations", v)
		}
		eng.Shutdown()
	})
	t.Run("cut", func(t *testing.T) {
		eng := sim.New(1)
		c := New(eng, pmrFullConfig())
		pmrWriters(eng, c, n, window)
		// logFull is set by an append that parks and cleared only by the
		// retirement that wakes it.
		tgt := c.Target(0)
		for !tgt.logFull[0] && eng.Now() < sim.Millisecond {
			eng.RunUntil(eng.Now() + 100)
		}
		if !tgt.logFull[0] {
			t.Fatal("no append parked on the full log")
		}
		c.PowerCutInitiator(0)
		var after *blockdev.Request
		eng.Go("recover", func(p *sim.Proc) {
			c.RecoverInitiator(p, 0)
			after = c.Init(0).OrderedWrite(p, 0, 1, 1, 0, nil, true, false, false)
			c.Init(0).Wait(p, after)
		})
		eng.Run()
		if after == nil || !after.Done.Fired() {
			t.Fatal("the recovered initiator's write was not delivered")
		}
		entries := core.ScanRegion(tgt.PMRPartition(0))
		if len(entries) != 1 || entries[0].ReqID != after.Ticket.Attr.ReqID {
			t.Fatalf("fresh partition holds %d entries, want only the recovered initiator's one write: %+v",
				len(entries), entries)
		}
		eng.Shutdown()
	})
}

// TestPMRFormatDuringPersist cuts the initiator while the burst of its
// capsule's three appends is mid-read-back on a PMR slower than recovery's
// scan of the 64 KiB partition (about 1.7 ms): recovery formats the
// partition before the read-back returns, so the whole burst belongs to a
// dead incarnation and drops. Its entries are not in the fresh partition,
// its writes never reach media, and none is counted as appended.
func TestPMRFormatDuringPersist(t *testing.T) {
	eng := sim.New(1)
	cfg := smallConfig(ModeRio, optane1()...)
	cfg.Targets[0].SSDs[0].PMRSize = 64 << 10
	cfg.Targets[0].SSDs[0].PMRWriteLat = 5 * sim.Millisecond
	c := New(eng, cfg)
	tgt := c.Target(0)
	eng.Go("write", func(p *sim.Proc) {
		c.Init(0).StartPlug(0)
		for lba := uint64(7); lba < 10; lba++ {
			c.Init(0).OrderedWrite(p, 0, 8*lba, 1, 0, nil, true, false, false)
		}
		c.Init(0).FinishPlug(p, 0)
	})
	eng.RunUntil(sim.Millisecond)
	if n, st := len(core.ScanRegion(tgt.PMRPartition(0))), tgt.Stats(); n != 3 || st.Capsules != 1 || st.PMRAppends != 0 {
		t.Fatalf("at the cut: %d entries in the partition from %d capsules, %d appends persisted; want one burst of 3 mid-read-back",
			n, st.Capsules, st.PMRAppends)
	}
	c.PowerCutInitiator(0)
	var recovered sim.Time
	eng.Go("recover", func(p *sim.Proc) {
		c.RecoverInitiator(p, 0)
		recovered = p.Now()
	})
	eng.Run()
	if recovered == 0 || recovered > sim.Millisecond+cfg.Targets[0].SSDs[0].PMRWriteLat {
		t.Fatalf("recovery finished at %v, want before the persist returns", recovered)
	}
	if n := len(core.ScanRegion(tgt.PMRPartition(0))); n != 0 {
		t.Fatalf("fresh partition holds %d entries of the dead incarnation", n)
	}
	if lbas := tgt.SSD(0).DurableLBAs(); len(lbas) != 0 {
		t.Fatalf("the dropped command reached media at %v", lbas)
	}
	if st := tgt.Stats(); st.PMRAppends != 0 {
		t.Fatalf("%d appends counted, want 0", st.PMRAppends)
	}
	eng.Shutdown()
}
