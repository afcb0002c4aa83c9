package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// smallConfig builds a fast test cluster.
func smallConfig(mode Mode, targets ...TargetConfig) Config {
	cfg := DefaultConfig(mode, targets...)
	cfg.Streams = 4
	cfg.QPs = 4
	cfg.InitiatorCores = 8
	cfg.TargetCores = 8
	cfg.KeepHistory = true
	return cfg
}

func optane1() []TargetConfig { return []TargetConfig{OptaneTarget()} }
func flash1() []TargetConfig  { return []TargetConfig{FlashTarget()} }

func TestOrderlessWriteCompletes(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, smallConfig(ModeOrderless, optane1()...))
	var done bool
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderlessWrite(p, 0, 100, 1, 42, nil)
		c.Init(0).Wait(p, r)
		done = true
		if r.DeliverAt == 0 || r.CompleteAt == 0 {
			t.Error("timestamps not recorded")
		}
	})
	eng.Run()
	if !done {
		t.Fatal("write never completed")
	}
	// The data is on the device.
	rec, ok := c.Target(0).SSD(0).Visible(100)
	if !ok || rec.Stamp != 42 {
		t.Fatalf("device content = %+v ok=%v", rec, ok)
	}
	eng.Shutdown()
}

func TestRioOrderedWriteFlow(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, smallConfig(ModeRio, optane1()...))
	var deliverOrder []uint64
	eng.Go("app", func(p *sim.Proc) {
		// Journaling pattern: group 1 = 2 blocks (JD+JM), group 2 = commit.
		// Non-contiguous LBAs so the scheduler cannot fuse them (the fused
		// case is covered by TestRioMergingReducesCommands).
		r1 := c.Init(0).OrderedWrite(p, 0, 10, 2, 1, nil, true, false, false)
		r2 := c.Init(0).OrderedWrite(p, 0, 20, 1, 2, nil, true, true, false)
		c.Init(0).Wait(p, r2)
		if !r1.Done.Fired() {
			t.Error("group 1 must be delivered before group 2 (in-order completion)")
		}
		deliverOrder = append(deliverOrder, 1, 2)
	})
	eng.Run()
	if len(deliverOrder) != 2 {
		t.Fatal("requests never delivered")
	}
	// PMR log has entries; data durable (PLP).
	entries := core.ScanRegion(c.Target(0).SSD(0).PMRBytes())
	if len(entries) != 2 {
		t.Fatalf("PMR entries = %d, want 2", len(entries))
	}
	for _, e := range entries {
		if !e.Persist {
			t.Errorf("entry %v should be persisted on PLP device", e.Attr)
		}
	}
	st := c.Init(0).Stats()
	if st.Submitted != 2 || st.Completed != 2 {
		t.Fatalf("stats = %+v", st)
	}
	eng.Shutdown()
}

func TestRioInOrderDeliveryAcrossStreams(t *testing.T) {
	eng := sim.New(3)
	c := New(eng, smallConfig(ModeRio, optane1()...))
	type ev struct {
		stream int
		seq    uint64
	}
	var delivered []ev
	const n = 20
	for s := 0; s < 2; s++ {
		s := s
		eng.Go("app", func(p *sim.Proc) {
			var reqs []*blockdev.Request
			for i := 0; i < n; i++ {
				lba := uint64(s*1000 + i*4)
				reqs = append(reqs, c.Init(0).OrderedWrite(p, s, lba, 1, uint64(i), nil, true, false, false))
			}
			for _, r := range reqs {
				c.Init(0).Wait(p, r)
				delivered = append(delivered, ev{s, r.Ticket.Attr.SeqStart})
			}
		})
	}
	eng.Run()
	perStream := map[int]uint64{}
	count := 0
	for _, e := range delivered {
		if e.seq < perStream[e.stream] {
			t.Fatalf("stream %d delivered out of order: %d after %d", e.stream, e.seq, perStream[e.stream])
		}
		perStream[e.stream] = e.seq
		count++
	}
	if count != 2*n {
		t.Fatalf("delivered %d, want %d", count, 2*n)
	}
	eng.Shutdown()
}

func TestLinuxModeSerializesOrderedWrites(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, smallConfig(ModeLinux, flash1()...))
	var finished []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		eng.Go("app", func(p *sim.Proc) {
			r := c.Init(0).OrderedWrite(p, i, uint64(i*100), 1, uint64(i), nil, true, false, false)
			c.Init(0).Wait(p, r)
			finished = append(finished, p.Now())
		})
	}
	eng.Run()
	if len(finished) != 3 {
		t.Fatalf("finished = %d, want 3", len(finished))
	}
	// Each ordered write on flash pays a sync round trip plus a FLUSH;
	// with global single-in-flight semantics the three must be spaced by
	// at least the flush base cost.
	fl := ssd.FlashConfig().FlushBase
	for i := 1; i < 3; i++ {
		if finished[i]-finished[i-1] < fl {
			t.Fatalf("ordered writes not serialized: gaps %v", finished)
		}
	}
	// Flushes reached the device.
	if c.Target(0).SSD(0).Stats().Flushes != 3 {
		t.Fatalf("flushes = %d, want 3", c.Target(0).SSD(0).Stats().Flushes)
	}
	eng.Shutdown()
}

func TestLinuxModeSkipsFlushOnPLP(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, smallConfig(ModeLinux, optane1()...))
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 0, 1, 1, nil, true, false, false)
		c.Init(0).Wait(p, r)
	})
	eng.Run()
	if c.Target(0).SSD(0).Stats().Flushes != 0 {
		t.Fatal("PLP device should not receive FLUSH from the Linux ordered path")
	}
	eng.Shutdown()
}

func TestHoraeControlPathPrecedesData(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, smallConfig(ModeHorae, optane1()...))
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 8, 1, 7, nil, true, false, false)
		c.Init(0).Wait(p, r)
	})
	eng.Run()
	ts := c.Target(0).Stats()
	if ts.CtrlOps != 1 {
		t.Fatalf("control ops = %d, want 1", ts.CtrlOps)
	}
	if ts.PMRAppends != 1 {
		t.Fatalf("PMR appends = %d, want 1 (from control path)", ts.PMRAppends)
	}
	// Data completion marked the control entry persistent.
	entries := core.ScanRegion(c.Target(0).SSD(0).PMRBytes())
	if len(entries) != 1 || !entries[0].Persist {
		t.Fatalf("entries = %+v", entries)
	}
	eng.Shutdown()
}

func TestHoraeSubmitLatencyIncludesControlRTT(t *testing.T) {
	engR := sim.New(1)
	cr := New(engR, smallConfig(ModeRio, optane1()...))
	var rioSpent sim.Time
	engR.Go("app", func(p *sim.Proc) {
		r := cr.Init(0).OrderedWrite(p, 0, 8, 1, 7, nil, true, false, false)
		rioSpent = r.SubmitSpent
		cr.Init(0).Wait(p, r)
	})
	engR.Run()
	engR.Shutdown()

	engH := sim.New(1)
	ch := New(engH, smallConfig(ModeHorae, optane1()...))
	var horaeSpent sim.Time
	engH.Go("app", func(p *sim.Proc) {
		r := ch.Init(0).OrderedWrite(p, 0, 8, 1, 7, nil, true, false, false)
		horaeSpent = r.SubmitSpent
		ch.Init(0).Wait(p, r)
	})
	engH.Run()
	engH.Shutdown()

	// This is the essence of Fig. 14: Rio dispatches in ~1µs, Horae's
	// synchronous control path costs a network round trip plus wakeup.
	if rioSpent > 3*sim.Microsecond {
		t.Fatalf("rio submit spent %v, want ~1µs", rioSpent)
	}
	if horaeSpent < 10*sim.Microsecond {
		t.Fatalf("horae submit spent %v, want >= 10µs (control RTT)", horaeSpent)
	}
}

func TestRioMergingReducesCommands(t *testing.T) {
	run := func(merge bool) (msgs, cmds, fused int64) {
		eng := sim.New(1)
		cfg := smallConfig(ModeRio, optane1()...)
		cfg.MergeEnabled = merge
		c := New(eng, cfg)
		eng.Go("app", func(p *sim.Proc) {
			var last *blockdev.Request
			// 16 consecutive single-block groups, submitted back-to-back so
			// they plug together.
			for i := 0; i < 16; i++ {
				last = c.Init(0).OrderedWrite(p, 0, uint64(i), 1, uint64(i), nil, true, false, false)
			}
			c.Init(0).Wait(p, last)
		})
		eng.Run()
		st := c.Init(0).Stats()
		eng.Shutdown()
		return st.WireMessages, st.WireCmds, st.FusedCmds
	}
	_, cmdsOff, fusedOff := run(false)
	_, cmdsOn, fusedOn := run(true)
	if fusedOff != 0 {
		t.Fatalf("fused with merging disabled: %d", fusedOff)
	}
	if fusedOn == 0 {
		t.Fatal("no fusion with merging enabled")
	}
	if cmdsOn >= cmdsOff {
		t.Fatalf("merging did not reduce wire commands: %d vs %d", cmdsOn, cmdsOff)
	}
}

func TestStripedWriteSplitsAcrossTargets(t *testing.T) {
	eng := sim.New(1)
	cfg := smallConfig(ModeRio, OptaneTarget(), OptaneTarget())
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		// 4 blocks with chunk=1 over 2 devices: 2 extents per device? No:
		// devices alternate per block -> extents per contiguous device run.
		r := c.Init(0).OrderedWrite(p, 0, 0, 4, 9, nil, true, false, false)
		c.Init(0).Wait(p, r)
	})
	eng.Run()
	// Both targets got data and PMR entries with split fragments.
	for i := 0; i < 2; i++ {
		entries := core.ScanRegion(c.Target(i).SSD(0).PMRBytes())
		if len(entries) == 0 {
			t.Fatalf("target %d has no PMR entries", i)
		}
		for _, e := range entries {
			if !e.Split {
				t.Errorf("target %d entry not marked split: %v", i, e.Attr)
			}
		}
	}
	eng.Shutdown()
}

func TestInOrderSubmissionGateWithoutAffinity(t *testing.T) {
	eng := sim.New(5)
	cfg := smallConfig(ModeRio, optane1()...)
	cfg.StreamAffinity = false // scatter a stream across QPs: reorder likely
	c := New(eng, cfg)
	const n = 60
	eng.Go("app", func(p *sim.Proc) {
		var last *blockdev.Request
		for i := 0; i < n; i++ {
			last = c.Init(0).OrderedWrite(p, 0, uint64(i*8), 1, uint64(i), nil, true, false, false)
		}
		c.Init(0).Wait(p, last)
	})
	eng.Run()
	// The gate must have parked at least one command (reordering) and all
	// writes still completed.
	if c.Init(0).Stats().Completed != n {
		t.Fatalf("completed = %d, want %d", c.Init(0).Stats().Completed, n)
	}
	t.Logf("holdbacks without affinity: %d", c.Target(0).Stats().Holdbacks)
	eng.Shutdown()
}

func TestAffinityAvoidsHoldbacks(t *testing.T) {
	eng := sim.New(5)
	cfg := smallConfig(ModeRio, optane1()...)
	cfg.StreamAffinity = true
	c := New(eng, cfg)
	const n = 60
	eng.Go("app", func(p *sim.Proc) {
		var last *blockdev.Request
		for i := 0; i < n; i++ {
			last = c.Init(0).OrderedWrite(p, 0, uint64(i*8), 1, uint64(i), nil, true, false, false)
		}
		c.Init(0).Wait(p, last)
	})
	eng.Run()
	if hb := c.Target(0).Stats().Holdbacks; hb != 0 {
		t.Fatalf("holdbacks with stream affinity = %d, want 0 (Principle 2)", hb)
	}
	eng.Shutdown()
}

func TestCPUUtilizationAccounting(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, smallConfig(ModeRio, optane1()...))
	u0 := c.InitiatorUtil()
	t0u := c.TargetUtil()
	eng.Go("app", func(p *sim.Proc) {
		var last *blockdev.Request
		for i := 0; i < 100; i++ {
			last = c.Init(0).OrderedWrite(p, 0, uint64(i*2), 1, uint64(i), nil, true, false, false)
		}
		c.Init(0).Wait(p, last)
	})
	eng.Run()
	u1 := c.InitiatorUtil()
	t1u := c.TargetUtil()
	iu := float64(u1.Busy-u0.Busy) / float64(u1.At-u0.At+1)
	tu := float64(t1u.Busy-t0u.Busy) / float64(t1u.At-t0u.At+1)
	if iu <= 0 || tu <= 0 {
		t.Fatalf("utilization integrals must be positive: init=%f target=%f", iu, tu)
	}
	eng.Shutdown()
}
