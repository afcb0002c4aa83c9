package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/nvmeof"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// crashHarness drives ordered writes on several streams, power-cuts the
// whole cluster at cutAt, recovers, and verifies the §4.8 prefix
// invariant against the durable media state.
func runCrashAndVerify(t *testing.T, seed int64, targets []TargetConfig, cutAt sim.Time, streams, groups int) {
	t.Helper()
	eng := sim.New(seed)
	cfg := smallConfig(ModeRio, targets...)
	cfg.Streams = streams
	c := New(eng, cfg)

	subs := make([][]*blockdev.Request, streams) // per stream, by group index
	for s := 0; s < streams; s++ {
		s := s
		eng.Go("app", func(p *sim.Proc) {
			for g := 0; g < groups; g++ {
				lba := uint64(s*100000 + g) // unique: out-of-place updates
				subs[s] = append(subs[s], c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, true, false, false))
				// Pace slightly so the crash lands mid-stream.
				p.Sleep(2 * sim.Microsecond)
			}
		})
	}
	eng.At(cutAt, func() { c.PowerCutAll() })
	eng.RunUntil(cutAt + sim.Millisecond)

	var report *core.Report
	var tm RecoveryTiming
	eng.Go("recovery", func(p *sim.Proc) {
		report, tm = c.RecoverFull(p)
	})
	eng.Run()
	if report == nil {
		t.Fatal("recovery did not run")
	}
	if tm.OrderRebuild <= 0 {
		t.Fatal("order rebuild took no time")
	}
	for s := 0; s < streams; s++ {
		for gi, r := range subs[s] {
			if g := uint64(gi + 1); g != r.Ticket.Attr.SeqStart {
				t.Fatalf("stream %d: group numbering broken (%d vs %d)", s, g, r.Ticket.Attr.SeqStart)
			}
		}
		checkPrefix(t, c, report, 0, s, subs[s])
	}
}

// checkPrefix is the strict §4.8 invariant for one stream against the media:
// there is a k, the report's prefix, such that every request of a group up to
// k holds (Cluster.Holds) and none of a group beyond k does.
func checkPrefix(t *testing.T, c *Cluster, rep *core.Report, init, stream int, reqs []*blockdev.Request) {
	t.Helper()
	prefix := rep.PrefixFor(uint16(init), uint16(stream))
	for _, r := range reqs {
		if g, holds := r.Ticket.Attr.SeqEnd, c.Holds(r); holds != (g <= prefix) {
			t.Fatalf("init %d stream %d: group %d against prefix %d: durable under its own identity = %v",
				init, stream, g, prefix, holds)
		}
	}
}

func TestCrashRecoveryPrefixOptane(t *testing.T) {
	runCrashAndVerify(t, 11, optane1(), 150*sim.Microsecond, 3, 50)
}

func TestCrashRecoveryPrefixFlash(t *testing.T) {
	runCrashAndVerify(t, 12, flash1(), 150*sim.Microsecond, 3, 50)
}

func TestCrashRecoveryPrefixMultiTarget(t *testing.T) {
	runCrashAndVerify(t, 13, []TargetConfig{OptaneTarget(), FlashTarget()}, 200*sim.Microsecond, 4, 40)
}

func TestCrashRecoverySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	for seed := int64(20); seed < 26; seed++ {
		cut := sim.Time(50+seed*17) * sim.Microsecond
		runCrashAndVerify(t, seed, []TargetConfig{OptaneTarget(), OptaneTarget()}, cut, 4, 30)
	}
}

func TestCrashWithFlushedGroupsSurvives(t *testing.T) {
	// Groups completed with an explicit FLUSH before the crash must be in
	// the durable prefix even on flash (no PLP).
	eng := sim.New(31)
	cfg := smallConfig(ModeRio, flash1()...)
	c := New(eng, cfg)
	var flushedAttr core.Attr
	eng.Go("app", func(p *sim.Proc) {
		r1 := c.Init(0).OrderedWrite(p, 0, 10, 1, 0, nil, true, false, false)
		r2 := c.Init(0).OrderedWrite(p, 0, 11, 1, 0, nil, true, true, false) // flush barrier
		c.Init(0).Wait(p, r2)
		flushedAttr = r1.Ticket.Attr
		_ = flushedAttr
		// Now a third group that will be in flight at the cut.
		c.Init(0).OrderedWrite(p, 0, 12, 1, 0, nil, true, false, false)
		c.PowerCutAll()
	})
	eng.Run()
	var report *core.Report
	eng.Go("recovery", func(p *sim.Proc) { report, _ = c.RecoverFull(p) })
	eng.Run()
	if report.Prefix(0) < 2 {
		t.Fatalf("prefix = %d, want >= 2 (groups 1-2 were flushed durable)", report.Prefix(0))
	}
	eng.Shutdown()
}

// TestTargetCutReplaysCompletedUndeliveredWrite: a write that completed at its
// initiator but waits behind an earlier group of its stream is still
// outstanding, so when its target is cut and roll-back erases it as beyond the
// prefix, the replay re-sends it (ROADMAP finding 1(g): it used to be
// delivered — and gone). Under PoisonRecycled too: the replayed copy's ack is a
// duplicate, and nothing may be recycled twice.
func TestTargetCutReplaysCompletedUndeliveredWrite(t *testing.T) {
	for _, poison := range []bool{false, true} {
		eng := sim.New(1)
		a, b := OptaneTarget(), OptaneTarget()
		a.SSDs[0].PMRSize, b.SSDs[0].PMRSize = 1<<10, 1<<10 // a scan shorter than the large write
		cfg := smallConfig(ModeRio, a, b)
		cfg.ChunkBlocks = 1 << 16 // LBA 0 is target A's, LBA 1<<16 target B's
		c := New(eng, cfg)
		if poison {
			c.PoisonRecycled()
		}
		var large, small *blockdev.Request
		eng.Go("app", func(p *sim.Proc) {
			large = c.Init(0).OrderedWrite(p, 0, 1<<16, 32, 0, nil, true, false, false)
			small = c.Init(0).OrderedWrite(p, 0, 0, 1, 0, nil, true, false, false)
		})
		for small == nil || small.CompleteAt == 0 {
			eng.RunUntil(eng.Now() + sim.Microsecond)
		}
		if large.CompleteAt != 0 || small.Done.Fired() {
			t.Fatalf("want group 2 complete behind group 1 in flight; group 1 completed at %v, group 2 delivered: %v",
				large.CompleteAt, small.Done.Fired())
		}
		c.PowerCutTarget(0)
		var rep *core.Report
		eng.Go("recovery", func(p *sim.Proc) { rep, _ = c.RecoverTarget(p, 0) })
		eng.Run()
		if rep.PrefixFor(0, 0) != 0 {
			t.Fatalf("prefix %d: the scan did not see group 1 in flight, and nothing was rolled back", rep.PrefixFor(0, 0))
		}
		for g, r := range []*blockdev.Request{large, small} {
			if !r.Done.Fired() || !c.Holds(r) {
				t.Errorf("poison %v: group %d: delivered %v, durable %v", poison, g+1, r.Done.Fired(), c.Holds(r))
			}
		}
		eng.Shutdown()
	}
}

func TestTargetCrashReplayConverges(t *testing.T) {
	eng := sim.New(41)
	cfg := smallConfig(ModeRio, OptaneTarget(), OptaneTarget())
	c := New(eng, cfg)
	const n = 40
	var reqs []*blockdev.Request
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			// Alternate blocks so both targets are hit (chunk=1 striping).
			r := c.Init(0).OrderedWrite(p, 0, uint64(i), 1, 0, nil, true, false, false)
			reqs = append(reqs, r)
			p.Sleep(time2(i))
		}
	})
	// Crash target 1 mid-run.
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
	// Every submitted request must eventually be delivered (replay is
	// transparent to the application).
	eng.Run()
	undelivered := 0
	for _, r := range reqs {
		if !r.Done.Fired() {
			undelivered++
		}
	}
	if undelivered != 0 {
		t.Fatalf("%d of %d requests never delivered after target recovery", undelivered, len(reqs))
	}
	// And their data is durable on the right devices.
	for i, r := range reqs {
		if !c.Holds(r) {
			t.Fatalf("request %d (lba %d) not durable after replay", i, i)
		}
	}
	eng.Shutdown()
}

func time2(i int) sim.Time { return sim.Time(1+i%3) * sim.Microsecond }

// replayMergedBurst is the merge-ON target-crash schedule: one stream
// bursts 64 one-block ordered writes over two targets — chunk-1 striping
// leaves a device's neighbours LBA-contiguous but sequence-discontinuous,
// so the scheduler vector-fuses them — target 1 is cut at cutAt and
// recovered. RecoverTarget must return (the run is bounded, so a replay
// that never completes fails instead of spinning), every request must be
// delivered with its block durable on the mapped device under the request's
// own identity, and both in-order gates must audit clean. Returns the
// fused-command count and the recovery's timing.
func replayMergedBurst(t *testing.T, seed int64, cutAt sim.Time) (int64, RecoveryTiming) {
	t.Helper()
	eng := sim.New(seed)
	c := New(eng, smallConfig(ModeRio, OptaneTarget(), OptaneTarget()))
	c.PoisonRecycled()
	const n = 64
	var reqs []*blockdev.Request
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			reqs = append(reqs, c.Init(0).OrderedWrite(p, 0, uint64(i), 1, 0, nil, true, false, false))
		}
	})
	eng.At(cutAt, func() { c.PowerCutTarget(1) })
	eng.RunUntil(400 * sim.Microsecond)

	var tm RecoveryTiming
	returned := false
	eng.Go("recovery", func(p *sim.Proc) {
		_, tm = c.RecoverTarget(p, 1)
		returned = true
	})
	eng.RunUntil(2 * sim.Second)
	if !returned {
		t.Fatalf("cut at %v: RecoverTarget did not return within 2 simulated seconds", cutAt)
	}
	for i, r := range reqs {
		if !r.Done.Fired() {
			t.Fatalf("cut at %v: request %d never delivered after target recovery", cutAt, i)
		}
		if !c.Holds(r) {
			t.Fatalf("cut at %v: request %d (lba %d) not durable under its own identity after replay", cutAt, i, i)
		}
	}
	if err := c.Audit().Err(); err != nil {
		t.Fatalf("cut at %v: %v", cutAt, err)
	}
	fused := c.Init(0).Stats().FusedCmds
	eng.Shutdown()
	return fused, tm
}

// TestTargetReplayWithVectorFusedCommands: target replay must re-stamp the
// chain the target gate actually reads. With merging on, the in-flight
// commands of this burst are vector-fused; a replay that re-mints only the
// head attribute leaves the constituents on the dead chain, and the fresh
// gate parks them forever.
func TestTargetReplayWithVectorFusedCommands(t *testing.T) {
	for _, us := range []sim.Time{8, 15, 25, 40} {
		fused, tm := replayMergedBurst(t, 41, us*sim.Microsecond)
		if fused == 0 {
			t.Fatalf("cut at %d us: no command was fused: the schedule does not exercise vector-fused replay", us)
		}
		if tm.Replayed == 0 {
			t.Fatalf("cut at %d us: nothing was replayed", us)
		}
	}
}

func TestRecoveryTimingScalesWithPMRSize(t *testing.T) {
	// Order rebuild is dominated by the PMR sweep: a 2 MB region at the
	// calibrated scan cost lands in the tens of milliseconds, matching
	// §6.5 (55 ms for Rio).
	eng := sim.New(51)
	cfg := smallConfig(ModeRio, optane1()...)
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 0, 1, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
		c.PowerCutAll()
	})
	eng.Run()
	var tm RecoveryTiming
	eng.Go("recovery", func(p *sim.Proc) { _, tm = c.RecoverFull(p) })
	eng.Run()
	region := len(c.Target(0).SSD(0).PMRBytes())
	wantMin := sim.Time(region/core.EntrySize) * 26 * core.EntrySize / 2
	if tm.OrderRebuild < wantMin {
		t.Fatalf("order rebuild %v, want >= %v (full region sweep)", tm.OrderRebuild, wantMin)
	}
	if tm.OrderRebuild > 200*sim.Millisecond {
		t.Fatalf("order rebuild %v unreasonably slow", tm.OrderRebuild)
	}
	eng.Shutdown()
}

func TestClusterUsableAfterRecovery(t *testing.T) {
	eng := sim.New(61)
	cfg := smallConfig(ModeRio, optane1()...)
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		c.Init(0).OrderedWrite(p, 0, 0, 1, 0, nil, true, false, false)
		c.PowerCutAll()
	})
	eng.Run()
	eng.Go("recovery", func(p *sim.Proc) { c.RecoverFull(p) })
	eng.Run()
	done := false
	eng.Go("app2", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 500, 1, 0, nil, true, true, false)
		c.Init(0).Wait(p, r)
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("cluster unusable after recovery")
	}
	eng.Shutdown()
}

func TestErasedBlocksReportedInStats(t *testing.T) {
	eng := sim.New(71)
	cfg := smallConfig(ModeRio, optane1()...)
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < 30; i++ {
			c.Init(0).OrderedWrite(p, 0, uint64(i), 1, 0, nil, true, false, false)
		}
	})
	// Cut very early: most requests in flight, some durable out of order.
	eng.At(30*sim.Microsecond, func() { c.PowerCutAll() })
	eng.RunUntil(200 * sim.Microsecond)
	var tm RecoveryTiming
	eng.Go("recovery", func(p *sim.Proc) { _, tm = c.RecoverFull(p) })
	eng.Run()
	t.Logf("discarded %d entries, data recovery %v", tm.Discarded, tm.DataRecovery)
	if tm.Discarded > 0 && tm.DataRecovery == 0 {
		t.Fatal("discards must cost data-recovery time")
	}
	eng.Shutdown()
}

// TestDeadEpochCoalescedCapsuleDroppedWhole is the regression test for
// completion-path epoch handling: a coalesced response capsule minted
// before a power cut but arriving after recovery must be dropped WHOLE —
// no partial delivery, no wireState resurrection, no retire-watermark
// advance from a dead incarnation, and no accounting as a live
// completion message.
func TestDeadEpochCoalescedCapsuleDroppedWhole(t *testing.T) {
	eng := sim.New(83)
	cfg := smallConfig(ModeRio, optane1()...)
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		for i := 0; i < 20; i++ {
			c.Init(0).OrderedWrite(p, 0, uint64(i*3), 1, 0, nil, true, false, false)
		}
	})
	// Snapshot the outstanding ids AT the cut: these are the genuine
	// dead-epoch commands a late capsule would ack. (PowerCutAll replaces
	// the outstanding map, so they must be read before it runs.)
	var deadIDs []uint64
	var deadEpoch int
	eng.At(30*sim.Microsecond, func() {
		deadEpoch = c.inits[0].epoch
		for id := range c.inits[0].outstanding {
			deadIDs = append(deadIDs, id)
		}
		c.PowerCutAll()
	})
	eng.RunUntil(200 * sim.Microsecond)
	if len(deadIDs) == 0 {
		t.Fatal("cut landed with nothing in flight; adjust timing")
	}
	eng.Go("recovery", func(p *sim.Proc) { c.RecoverFull(p) })
	eng.Run()

	// Forge the late arrival: a well-formed coalesced capsule of the dead
	// epoch (as the fabric would deliver had the cut raced the flush).
	cqes := make([]nvmeof.CQE, 0, len(deadIDs))
	for _, id := range deadIDs {
		cqes = append(cqes, nvmeof.NewCQE(id))
	}
	nvmeof.EncodeCQEVector(cqes)
	before := c.Init(0).Stats()
	retireBefore := c.inits[0].retireMarksSet()
	c.inits[0].shards[0].cplQ.Push(&completionMsg{cqes: cqes, qp: 0, epoch: deadEpoch})
	eng.Run()
	after := c.Init(0).Stats()
	if d := after.Completed - before.Completed; d != 0 {
		t.Fatalf("dead-epoch capsule delivered %d completions", d)
	}
	if after.CplBatch.Rings != before.CplBatch.Rings {
		t.Fatal("dead-epoch capsule counted as a live completion message")
	}
	if c.inits[0].retireMarksSet() != retireBefore {
		t.Fatal("dead-epoch capsule advanced a retire watermark")
	}
	// The cluster must remain fully usable after swallowing it.
	done := false
	eng.Go("app2", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 900, 1, 0, nil, true, true, false)
		c.Init(0).Wait(p, r)
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("cluster wedged after dead-epoch capsule")
	}
	eng.Shutdown()
}

var _ = ssd.BlockSize

// TestCrashRecoveryMultiSSDTarget is the regression test for namespace
// provenance: a target with TWO SSDs must roll back beyond-prefix blocks
// on the right device (the attribute's NS field, carried in the NSID
// dword, locates them after a crash).
func TestCrashRecoveryMultiSSDTarget(t *testing.T) {
	eng := sim.New(97)
	cfg := smallConfig(ModeRio, TargetConfig{
		SSDs: []ssd.Config{ssd.OptaneConfig(), ssd.OptaneConfig()},
	})
	c := New(eng, cfg)
	var subs []*blockdev.Request
	eng.Go("app", func(p *sim.Proc) {
		for g := 0; g < 40; g++ {
			lba := uint64(g) // chunk=1 alternates the two SSDs
			r := c.Init(0).OrderedWrite(p, 0, lba, 1, 0, nil, true, false, false)
			if r.Ticket == nil {
				break // the power cut landed mid-submission: died un-staged
			}
			subs = append(subs, r)
			p.Sleep(2 * sim.Microsecond)
		}
	})
	eng.At(40*sim.Microsecond, func() { c.PowerCutAll() })
	eng.RunUntil(sim.Millisecond)
	var rep *core.Report
	eng.Go("rec", func(p *sim.Proc) { rep, _ = c.RecoverFull(p) })
	eng.Run()
	if rep.Prefix(0) == uint64(len(subs)) {
		t.Skip("crash landed after all writes; rerun with different timing")
	}
	checkPrefix(t, c, rep, 0, 0, subs) // a miss on either side is a wrong-namespace roll-back
	eng.Shutdown()
}

// mixedDeviceCrash loads 2 targets × (flash + Optane) with 8 sequential
// ordered streams, each pinned to one device (stripe chunk = stream
// region, two streams per device), 8 writes outstanding per stream and
// every 4th write a commit carrying the FLUSH; power-cuts the cluster at
// cutAt, recovers, and returns how many writes break the §4.8 prefix
// invariant on the media, counted from both sides: inside the recovered
// prefix but not durable with its own stamp, or beyond it and surviving.
func mixedDeviceCrash(t *testing.T, seed int64, cutAt sim.Time) (lost, survived int) {
	t.Helper()
	const streams, window, commitEvery = 8, 8, 4
	const region = uint64(1 << 20)
	mixed := TargetConfig{SSDs: []ssd.Config{ssd.FlashConfig(), ssd.OptaneConfig()}}
	cfg := DefaultConfig(ModeRio, mixed, mixed)
	cfg.Streams, cfg.QPs, cfg.Fabric.NumQPs = streams, streams, streams
	cfg.KeepHistory = true
	cfg.ChunkBlocks = int(region)
	cfg.Seed = seed
	eng := sim.New(seed)
	c := New(eng, cfg)
	in := c.Init(0)
	subs := make([][]*blockdev.Request, streams)
	for s := 0; s < streams; s++ {
		s := s
		eng.Go("load", func(p *sim.Proc) {
			var pending []*blockdev.Request
			for n := 0; in.Alive(); n++ {
				r := in.OrderedWrite(p, s, uint64(s)*region+uint64(n), 1, 0, nil, true, (n+1)%commitEvery == 0, false)
				if r.Ticket == nil || !in.Alive() {
					return // the cut landed mid-submission
				}
				subs[s] = append(subs[s], r)
				if pending = append(pending, r); len(pending) == window {
					in.Wait(p, pending[0])
					pending = pending[1:]
				}
			}
		})
	}
	eng.RunUntil(cutAt)
	c.PowerCutAll()
	eng.RunFor(sim.Millisecond) // the dead epoch's stragglers die out
	var report *core.Report
	eng.Go("recover", func(p *sim.Proc) { report, _ = c.RecoverFull(p) })
	eng.Run()
	if report == nil {
		t.Fatal("recovery did not finish")
	}
	for s, reqs := range subs {
		prefix := report.Prefix(uint16(s))
		for _, req := range reqs {
			switch g, ours := req.Ticket.Attr.SeqEnd, c.Holds(req); {
			case g <= prefix && !ours:
				lost++
				t.Logf("stream %d: write %d inside prefix %d never reached the media", s, g, prefix)
			case g > prefix && ours:
				survived++
			}
		}
	}
	eng.Shutdown()
	return lost, survived
}

// TestMixedDeviceTargetRecoversPerDeviceRule: recovery must choose the
// §4.3.2 durability rule per entry from the device the entry landed on.
// Taking it from the target's first device applied the FLUSH-certification
// rule of the flash SSD to the Optane SSD behind it, whose commits persist
// at completion without draining the writes before them: this schedule
// then recovered stream 7 to prefix 932 while write 929 never reached the
// media.
func TestMixedDeviceTargetRecoversPerDeviceRule(t *testing.T) {
	lost, survived := mixedDeviceCrash(t, 231, 4407*sim.Microsecond)
	if lost != 0 || survived != 0 {
		t.Fatalf("§4.8 broken on the media: %d writes inside a recovered prefix lost, %d beyond one survived", lost, survived)
	}
}
