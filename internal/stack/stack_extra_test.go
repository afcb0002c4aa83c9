package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestPMRLogRecyclingUnderLoad drives far more ordered writes than the PMR
// log has slots, which only works if retire watermarks recycle entries
// (head-pointer advance, §4.3.2).
func TestPMRLogRecyclingUnderLoad(t *testing.T) {
	eng := sim.New(21)
	cfg := smallConfig(ModeRio, optane1()...)
	// Shrink the PMR to 64 slots so recycling is mandatory.
	cfg.Targets[0].SSDs[0].PMRSize = 64 * core.EntrySize
	c := New(eng, cfg)
	const n = 500
	done := 0
	eng.Go("app", func(p *sim.Proc) {
		var pending []*blockdev.Request
		for i := 0; i < n; i++ {
			pending = append(pending, c.Init(0).OrderedWrite(p, 0, uint64(i), 1, 0, nil, true, false, false))
			if len(pending) >= 16 {
				c.Init(0).Wait(p, pending[0])
				pending = pending[1:]
				done++
			}
		}
		for _, r := range pending {
			c.Init(0).Wait(p, r)
			done++
		}
	})
	eng.Run()
	if done != n {
		t.Fatalf("completed %d of %d with a 64-slot PMR log", done, n)
	}
	// Merging may compact several requests per entry, but the append count
	// must still far exceed the 64 slots — proof the log recycled.
	if got := c.Target(0).Stats().PMRAppends; got <= 64 || got > n {
		t.Fatalf("PMR appends = %d, want in (64, %d]", got, n)
	}
	eng.Shutdown()
}

// TestHoraeGroupBatchesControl verifies that a multi-request group issues
// one control capsule (at the boundary), not one per request.
func TestHoraeGroupBatchesControl(t *testing.T) {
	eng := sim.New(22)
	c := New(eng, smallConfig(ModeHorae, optane1()...))
	eng.Go("app", func(p *sim.Proc) {
		// Group of three requests: D, D, JM(boundary).
		c.Init(0).OrderedWrite(p, 0, 0, 1, 0, nil, false, false, false)
		c.Init(0).OrderedWrite(p, 0, 1, 1, 0, nil, false, false, false)
		r := c.Init(0).OrderedWrite(p, 0, 2, 1, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
	})
	eng.Run()
	ts := c.Target(0).Stats()
	if ts.CtrlOps != 3 {
		t.Fatalf("ctrl entries = %d, want 3 (one per request)", ts.CtrlOps)
	}
	if ts.Capsules != 2 {
		// One control capsule + one data capsule for the whole group.
		t.Fatalf("capsules = %d, want 2 (batched control + batched data)", ts.Capsules)
	}
	eng.Shutdown()
}

// TestHoraeNonBoundaryDataDeferred: data of a group must not reach the SSD
// before the group's control path has persisted its metadata.
func TestHoraeNonBoundaryDataDeferred(t *testing.T) {
	eng := sim.New(23)
	c := New(eng, smallConfig(ModeHorae, optane1()...))
	eng.Go("app", func(p *sim.Proc) {
		c.Init(0).OrderedWrite(p, 0, 0, 1, 0, nil, false, false, false)
		// Give the stack time: without the boundary nothing may move.
		p.Sleep(200 * sim.Microsecond)
		if got := c.Target(0).SSD(0).Stats().Writes; got != 0 {
			t.Errorf("%d writes reached the SSD before the control path ran", got)
		}
		r := c.Init(0).OrderedWrite(p, 0, 1, 1, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
	})
	eng.Run()
	if got := c.Target(0).SSD(0).Stats().Writes; got == 0 {
		t.Fatal("group never reached the SSD after the boundary")
	}
	eng.Shutdown()
}

// TestOrderlessCoexistsWithLinuxOrdered: orderless writes must bypass the
// Linux global ordered mutex.
func TestOrderlessCoexistsWithLinuxOrdered(t *testing.T) {
	eng := sim.New(24)
	c := New(eng, smallConfig(ModeLinux, flash1()...))
	var orderedDone, orderlessDone sim.Time
	eng.Go("ordered", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 0, 1, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
		orderedDone = p.Now()
	})
	eng.Go("orderless", func(p *sim.Proc) {
		r := c.Init(0).OrderlessWrite(p, 1, 100, 1, 0, nil)
		c.Init(0).Wait(p, r)
		orderlessDone = p.Now()
	})
	eng.Run()
	if orderlessDone == 0 || orderedDone == 0 {
		t.Fatal("writes incomplete")
	}
	if orderlessDone >= orderedDone {
		t.Fatalf("orderless (%v) should finish before the flush-bound ordered write (%v)",
			orderlessDone, orderedDone)
	}
	eng.Shutdown()
}

// TestSplitOversizedRequest: a 64-block ordered write must split for the
// 32-block transfer limit even on a single device, and recovery metadata
// must mark the fragments.
func TestSplitOversizedRequest(t *testing.T) {
	eng := sim.New(25)
	cfg := smallConfig(ModeRio, optane1()...)
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 0, 64, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
	})
	eng.Run()
	entries := core.ScanRegion(c.Target(0).SSD(0).PMRBytes())
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2 fragments", len(entries))
	}
	for _, e := range entries {
		if !e.Split || e.SplitCnt != 2 || e.Blocks != 32 {
			t.Fatalf("fragment = %+v", e.Attr)
		}
	}
	eng.Shutdown()
}

// TestDeterministicThroughput: identical seeds must yield identical
// results (the foundation of every measurement in this repo).
func TestDeterministicThroughput(t *testing.T) {
	run := func() (int64, sim.Time) {
		eng := sim.New(99)
		c := New(eng, smallConfig(ModeRio, optane1()...))
		eng.Go("app", func(p *sim.Proc) {
			var last *blockdev.Request
			for i := 0; i < 200; i++ {
				last = c.Init(0).OrderedWrite(p, i%4, uint64(i*7)%100000, 1, 0, nil, true, false, false)
			}
			c.Init(0).Wait(p, last)
		})
		eng.Run()
		n := c.Init(0).Stats().Completed
		at := eng.Now()
		eng.Shutdown()
		return n, at
	}
	n1, t1 := run()
	n2, t2 := run()
	if n1 != n2 || t1 != t2 {
		t.Fatalf("non-deterministic: (%d, %v) vs (%d, %v)", n1, t1, n2, t2)
	}
}

// TestIPURequestsSkipRollback: IPU entries beyond the prefix must be
// reported, not erased (§4.4.2).
func TestIPURequestsSkipRollback(t *testing.T) {
	eng := sim.New(26)
	cfg := smallConfig(ModeRio, optane1()...)
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		// Group 1 ordinary; groups 2..N in-place updates, in flight at cut.
		r := c.Init(0).OrderedWrite(p, 0, 0, 1, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
		for i := 0; i < 10; i++ {
			c.Init(0).OrderedWrite(p, 0, uint64(100+i), 1, 0, nil, true, false, true)
		}
		c.PowerCutAll()
	})
	eng.Run()
	var rep *core.Report
	eng.Go("rec", func(p *sim.Proc) { rep, _ = c.RecoverFull(p) })
	eng.Run()
	sr := rep.Stream(0, 0)
	if sr == nil {
		t.Fatal("no stream report")
	}
	for _, e := range sr.Discard {
		if e.IPU {
			t.Fatal("IPU entry in the roll-back list")
		}
	}
	eng.Shutdown()
}
