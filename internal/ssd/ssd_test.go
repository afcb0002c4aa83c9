package ssd

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testFlash() Config {
	c := FlashConfig()
	c.KeepHistory = true
	return c
}

func testOptane() Config {
	c := OptaneConfig()
	c.KeepHistory = true
	return c
}

func write(e *sim.Engine, s *SSD, lba uint64, blocks uint32, stamp uint64, done func(*Command)) *Command {
	stamps := make([]uint64, blocks)
	for i := range stamps {
		stamps[i] = stamp
	}
	cmd := &Command{Op: OpWrite, LBA: lba, Blocks: blocks, Stamps: stamps, Done: done}
	e.At(0, func() { s.Submit(cmd) })
	return cmd
}

func TestOptaneWriteDurableOnCompletion(t *testing.T) {
	e := sim.New(1)
	s := New(e, testOptane())
	var doneAt sim.Time
	write(e, s, 100, 1, 7, func(c *Command) {
		doneAt = e.Now()
		rec, ok := s.Durable(100)
		if !ok || rec.Stamp != 7 {
			t.Errorf("block not durable at completion: %+v ok=%v", rec, ok)
		}
	})
	e.Run()
	if doneAt == 0 {
		t.Fatal("write never completed")
	}
	if doneAt < s.cfg.MediaWriteLat {
		t.Fatalf("completion at %v, faster than media latency %v", doneAt, s.cfg.MediaWriteLat)
	}
	e.Shutdown()
}

func TestFlashWriteCompletesBeforeDurable(t *testing.T) {
	e := sim.New(1)
	s := New(e, testFlash())
	var completionT sim.Time
	var durableAtCompletion bool
	write(e, s, 5, 1, 9, func(c *Command) {
		completionT = e.Now()
		_, durableAtCompletion = s.Durable(5)
	})
	e.Run()
	if completionT == 0 {
		t.Fatal("write never completed")
	}
	if durableAtCompletion {
		t.Fatal("flash write should complete from volatile cache, before media program")
	}
	// After the run drains, background destage has made it durable.
	if rec, ok := s.Durable(5); !ok || rec.Stamp != 9 {
		t.Fatalf("block should be destaged eventually: %+v ok=%v", rec, ok)
	}
	if completionT > s.cfg.MediaWriteLat {
		t.Fatalf("flash cached write completed at %v, expected faster than media %v",
			completionT, s.cfg.MediaWriteLat)
	}
	e.Shutdown()
}

func TestFlashFlushDrainsCacheAndStalls(t *testing.T) {
	e := sim.New(1)
	s := New(e, testFlash())
	var flushDone sim.Time
	e.Go("seq", func(p *sim.Proc) {
		// Write 16 blocks, then flush, then verify all durable.
		sig := sim.NewSignal(e)
		write(e, s, 0, 16, 1, func(*Command) { sig.Fire() })
		sig.Wait(p)
		fsig := sim.NewSignal(e)
		s.Submit(&Command{Op: OpFlush, Done: func(*Command) { fsig.Fire() }})
		fsig.Wait(p)
		flushDone = p.Now()
		for lba := uint64(0); lba < 16; lba++ {
			if rec, ok := s.Durable(lba); !ok || rec.Stamp != 1 {
				t.Errorf("lba %d not durable after FLUSH: %+v ok=%v", lba, rec, ok)
			}
		}
	})
	e.Run()
	if flushDone == 0 {
		t.Fatal("flush never completed")
	}
	if flushDone < s.cfg.FlushBase {
		t.Fatalf("flush at %v, cheaper than FlushBase %v", flushDone, s.cfg.FlushBase)
	}
	if s.Stats().Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1", s.Stats().Flushes)
	}
	e.Shutdown()
}

func TestOptaneFlushIsCheap(t *testing.T) {
	e := sim.New(1)
	s := New(e, testOptane())
	var done sim.Time
	e.At(0, func() {
		s.Submit(&Command{Op: OpFlush, Done: func(*Command) { done = e.Now() }})
	})
	e.Run()
	if done != s.cfg.OptaneFlushLat {
		t.Fatalf("optane flush at %v, want %v", done, s.cfg.OptaneFlushLat)
	}
	e.Shutdown()
}

func TestPowerCutLosesCacheKeepsMedia(t *testing.T) {
	e := sim.New(1)
	s := New(e, testFlash())
	// First write + flush makes stamp 1 durable. Then stamp 2 sits in cache
	// when the power cut hits.
	e.Go("seq", func(p *sim.Proc) {
		sig := sim.NewSignal(e)
		write(e, s, 0, 1, 1, func(*Command) { sig.Fire() })
		sig.Wait(p)
		f := sim.NewSignal(e)
		s.Submit(&Command{Op: OpFlush, Done: func(*Command) { f.Fire() }})
		f.Wait(p)
		s2 := sim.NewSignal(e)
		write(e, s, 0, 1, 2, func(*Command) { s2.Fire() })
		s2.Wait(p)
		// Completed but not yet destaged: cut power immediately.
		if _, ok := s.cache[0]; !ok {
			t.Error("stamp 2 should still be dirty in cache")
		}
		s.PowerCut()
	})
	e.Run()
	rec, ok := s.Durable(0)
	if !ok || rec.Stamp != 1 {
		t.Fatalf("durable content = %+v ok=%v, want stamp 1", rec, ok)
	}
	if s.Stats().LostOnCut != 1 {
		t.Fatalf("LostOnCut = %d, want 1", s.Stats().LostOnCut)
	}
	s.Restart()
	// Device usable again after restart.
	var after bool
	write(e, s, 9, 1, 3, func(*Command) { after = true })
	e.Run()
	if !after {
		t.Fatal("write after Restart never completed")
	}
	e.Shutdown()
}

func TestPowerCutSuppressesInflightCompletions(t *testing.T) {
	e := sim.New(1)
	s := New(e, testOptane())
	completed := false
	write(e, s, 0, 1, 1, func(*Command) { completed = true })
	// Cut power long before the media write latency elapses.
	e.At(1000, func() { s.PowerCut() })
	e.Run()
	if completed {
		t.Fatal("completion should be suppressed by power cut")
	}
	if _, ok := s.Durable(0); ok {
		t.Fatal("block programmed mid-cut should not be durable")
	}
	e.Shutdown()
}

func TestPMRSurvivesPowerCut(t *testing.T) {
	e := sim.New(1)
	s := New(e, testFlash())
	copy(s.PMRBytes(), []byte("ordering-attrs"))
	s.PowerCut()
	s.Restart()
	if string(s.PMRBytes()[:14]) != "ordering-attrs" {
		t.Fatal("PMR content lost across power cut")
	}
	e.Shutdown()
}

func TestReadSeesLatestWrite(t *testing.T) {
	e := sim.New(1)
	s := New(e, testOptane())
	e.Go("seq", func(p *sim.Proc) {
		sig := sim.NewSignal(e)
		write(e, s, 42, 2, 5, func(*Command) { sig.Fire() })
		sig.Wait(p)
		rd := &Command{Op: OpRead, LBA: 42, Blocks: 2}
		done := sim.NewSignal(e)
		rd.Done = func(*Command) { done.Fire() }
		s.Submit(rd)
		done.Wait(p)
		for i, rec := range rd.Out {
			if rec.Stamp != 5 {
				t.Errorf("block %d stamp = %d, want 5", i, rec.Stamp)
			}
		}
	})
	e.Run()
	e.Shutdown()
}

func TestFlashReadFromCacheIsFast(t *testing.T) {
	e := sim.New(1)
	s := New(e, testFlash())
	var readLat sim.Time
	e.Go("seq", func(p *sim.Proc) {
		sig := sim.NewSignal(e)
		write(e, s, 7, 1, 1, func(*Command) { sig.Fire() })
		sig.Wait(p)
		start := p.Now()
		done := sim.NewSignal(e)
		s.Submit(&Command{Op: OpRead, LBA: 7, Blocks: 1, Done: func(*Command) { done.Fire() }})
		done.Wait(p)
		readLat = p.Now() - start
	})
	e.Run()
	if readLat == 0 || readLat >= s.cfg.MediaReadLat {
		t.Fatalf("cached read latency %v, want < media read %v", readLat, s.cfg.MediaReadLat)
	}
	e.Shutdown()
}

// stampIs is the ownership test of a roll-back that erases one write.
func stampIs(stamp uint64) func(uint64) bool {
	return func(s uint64) bool { return s == stamp }
}

func TestDiscardRollsBackHistory(t *testing.T) {
	e := sim.New(1)
	s := New(e, testOptane())
	e.Go("seq", func(p *sim.Proc) {
		for stamp := uint64(1); stamp <= 3; stamp++ {
			sig := sim.NewSignal(e)
			write(e, s, 0, 1, stamp, func(*Command) { sig.Fire() })
			sig.Wait(p)
		}
	})
	e.Run()
	if got := len(s.History(0)); got != 3 {
		t.Fatalf("history length = %d, want 3", got)
	}
	if !s.Discard(0, stampIs(3)) {
		t.Fatal("Discard(stamp 3) should succeed")
	}
	rec, _ := s.Durable(0)
	if rec.Stamp != 2 {
		t.Fatalf("after discard, durable stamp = %d, want 2", rec.Stamp)
	}
	if s.Discard(0, stampIs(99)) {
		t.Fatal("Discard of unknown stamp should fail")
	}
	// An older version goes from under the current one; the last one
	// takes the block with it.
	if h := s.History(0); !s.Discard(0, stampIs(1)) || len(h) != 2 || h[0].Stamp != 1 || len(s.History(0)) != 1 {
		t.Fatalf("history %v before and %v after discarding the oldest version", h, s.History(0))
	}
	if rec, _ := s.Durable(0); rec.Stamp != 2 || !s.Discard(0, stampIs(2)) {
		t.Fatalf("durable stamp = %d after discarding an older version, want 2 and discardable", rec.Stamp)
	}
	if _, ok := s.Durable(0); ok || s.History(0) != nil || len(s.DurableLBAs()) != 0 {
		t.Fatalf("block still present after its last version was discarded: %v", s.History(0))
	}
	e.Shutdown()
}

// An erase removes what its ownership test accepts and nothing else: every
// retained version of a block it owns (a merged entry owns a range of
// identities; a replayed write left two records under one), not only the
// current one, and no block outside the command.
func TestEraseRemovesEveryOwnedVersion(t *testing.T) {
	e := sim.New(1)
	s := New(e, testOptane())
	e.Go("seq", func(p *sim.Proc) {
		for _, w := range []struct{ lba, stamp uint64 }{{0, 10}, {0, 21}, {0, 30}, {0, 21}, {1, 22}, {2, 21}} {
			sig := sim.NewSignal(e)
			write(e, s, w.lba, 1, w.stamp, func(*Command) { sig.Fire() })
			sig.Wait(p)
		}
		sig := sim.NewSignal(e)
		s.Submit(&Command{Op: OpErase, LBA: 0, Blocks: 2, Done: func(*Command) { sig.Fire() },
			Owns: func(stamp uint64) bool { return 20 <= stamp && stamp < 30 }})
		sig.Wait(p)
	})
	e.Run()
	if h := s.History(0); len(h) != 2 || h[0].Stamp != 10 || h[1].Stamp != 30 {
		t.Fatalf("block 0 history = %v, want stamps 10 then 30", h)
	}
	if _, ok := s.Durable(1); ok || s.History(1) != nil {
		t.Fatalf("block 1 kept %v: its only version was owned", s.History(1))
	}
	if rec, ok := s.Durable(2); !ok || rec.Stamp != 21 {
		t.Fatalf("block 2 = %+v %v: outside the erased range, must be untouched", rec, ok)
	}
	e.Shutdown()
}

// Without KeepHistory an overwrite replaces the block: one version, ever.
func TestNoHistoryKeepsOnlyCurrentVersion(t *testing.T) {
	e := sim.New(1)
	s := New(e, OptaneConfig())
	write(e, s, 0, 1, 1, nil)
	e.Run()
	write(e, s, 0, 1, 2, nil)
	e.Run()
	if h := s.History(0); len(h) != 1 || h[0].Stamp != 2 || s.Discard(0, stampIs(1)) || !s.Discard(0, stampIs(2)) {
		t.Fatalf("history = %v, want only stamp 2, discardable by that stamp alone", h)
	}
	if lbas := s.DurableLBAs(); len(lbas) != 0 {
		t.Fatalf("durable LBAs = %v after the only version was discarded", lbas)
	}
	e.Shutdown()
}

func TestWriteThroughputMatchesChannelModel(t *testing.T) {
	e := sim.New(1)
	cfg := testOptane()
	s := New(e, cfg)
	const n = 2000
	completed := 0
	e.At(0, func() {
		for i := 0; i < n; i++ {
			lba := uint64(i)
			stamps := []uint64{uint64(i)}
			s.Submit(&Command{Op: OpWrite, LBA: lba, Blocks: 1, Stamps: stamps,
				Done: func(*Command) { completed++ }})
		}
	})
	e.Run()
	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
	// n blocks over ch channels at MediaWriteLat each.
	ideal := sim.Time(n) * cfg.MediaWriteLat / sim.Time(cfg.Channels)
	if e.Now() < ideal || e.Now() > ideal*12/10 {
		t.Fatalf("makespan %v, want within 20%% above ideal %v", e.Now(), ideal)
	}
	e.Shutdown()
}

func TestFlashCacheBackpressure(t *testing.T) {
	e := sim.New(1)
	cfg := testFlash()
	cfg.CacheCap = 8 // tiny cache
	s := New(e, cfg)
	const n = 64
	completed := 0
	e.At(0, func() {
		for i := 0; i < n; i++ {
			lba := uint64(i)
			s.Submit(&Command{Op: OpWrite, LBA: lba, Blocks: 1,
				Stamps: []uint64{1}, Done: func(*Command) { completed++ }})
		}
	})
	e.Run()
	if completed != n {
		t.Fatalf("completed %d of %d", completed, n)
	}
	// With an 8-block cache, sustained rate is destage-bound:
	// n blocks / channels * MediaWriteLat, far slower than pure cache inserts.
	destageBound := sim.Time(n) * cfg.MediaWriteLat / sim.Time(cfg.Channels)
	if e.Now() < destageBound/2 {
		t.Fatalf("makespan %v suspiciously fast; cache backpressure not applied", e.Now())
	}
	if s.Stats().MaxDirtySeen > cfg.CacheCap {
		t.Fatalf("dirty exceeded cache cap: %d > %d", s.Stats().MaxDirtySeen, cfg.CacheCap)
	}
	e.Shutdown()
}

func TestSubmitOversizedPanics(t *testing.T) {
	e := sim.New(1)
	s := New(e, testOptane())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized command")
		}
		e.Shutdown()
	}()
	s.Submit(&Command{Op: OpWrite, LBA: 0, Blocks: 33, Stamps: make([]uint64, 33)})
}

// Property: after any sequence of single-block writes to a small LBA space
// followed by a FLUSH, the durable state equals the last write per LBA.
func TestFlushConvergenceProperty(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		if len(ops) > 60 {
			ops = ops[:60]
		}
		e := sim.New(seed)
		s := New(e, testFlash())
		last := map[uint64]uint64{}
		ok := true
		e.Go("seq", func(p *sim.Proc) {
			for i, op := range ops {
				lba := uint64(op % 16)
				stamp := uint64(i + 1)
				last[lba] = stamp
				sig := sim.NewSignal(e)
				st := []uint64{stamp}
				s.Submit(&Command{Op: OpWrite, LBA: lba, Blocks: 1, Stamps: st,
					Done: func(*Command) { sig.Fire() }})
				sig.Wait(p)
			}
			f := sim.NewSignal(e)
			s.Submit(&Command{Op: OpFlush, Done: func(*Command) { f.Fire() }})
			f.Wait(p)
			for lba, stamp := range last {
				rec, found := s.Durable(lba)
				if !found || rec.Stamp != stamp {
					ok = false
				}
			}
		})
		e.Run()
		e.Shutdown()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A submitter may share one Done across commands, find its per-command
// state in Ctx, and reuse a command record from its Done on: the device
// holds no reference past the callback.
func TestCommandCtxAndReuseFromDone(t *testing.T) {
	e := sim.New(1)
	s := New(e, testOptane())
	type tag struct{ id int }
	var order []int
	rounds := 0
	var onDone func(*Command)
	onDone = func(c *Command) {
		order = append(order, c.Ctx.(*tag).id)
		if rounds++; rounds < 3 {
			// Same record, new command.
			c.LBA, c.Stamps = uint64(100+rounds), []uint64{uint64(100 + rounds)}
			c.Ctx.(*tag).id += 10
			s.Submit(c)
		}
	}
	e.At(0, func() {
		s.Submit(&Command{Op: OpWrite, LBA: 100, Blocks: 1, Stamps: []uint64{100}, Done: onDone, Ctx: &tag{id: 1}})
	})
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 11 || order[2] != 21 {
		t.Fatalf("completions = %v, want [1 11 21]", order)
	}
	for lba := uint64(100); lba <= 102; lba++ {
		if rec, ok := s.Durable(lba); !ok || rec.Stamp != lba {
			t.Fatalf("lba %d durable = %+v/%v after reuse", lba, rec, ok)
		}
	}
	e.Shutdown()
}

// A command submitted in the instant before a power cut — its start event
// still queued behind the cut — must die with the device: at the parent an
// Optane write in that position was stamped with the post-cut epoch,
// programmed 12 µs into the outage and counted in Stats.Writes, though its
// Done never ran.
func TestPowerCutInSubmitInstantAbortsCommand(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		op   Op
	}{
		{"optane write", testOptane(), OpWrite},
		{"optane read", testOptane(), OpRead},
		{"optane flush", testOptane(), OpFlush},
		{"flash write", testFlash(), OpWrite},
		{"flash read", testFlash(), OpRead},
		{"flash flush", testFlash(), OpFlush},
	} {
		e := sim.New(1)
		s := New(e, tc.cfg)
		done := false
		cmd := &Command{Op: tc.op, LBA: 3, Blocks: 1, Stamps: []uint64{9}, Done: func(*Command) { done = true }}
		e.At(0, func() {
			s.Submit(cmd)
			s.PowerCut()
		})
		e.Run()
		_, durable := s.Durable(3)
		st := s.Stats()
		if done || durable || st.Writes+st.Reads+st.Flushes != 0 || st.AbortedCmds != 1 {
			t.Errorf("%s: done=%v durable=%v stats=%+v, want nothing done, nothing durable, AbortedCmds 1", tc.name, done, durable, st)
		}
		if busy := s.ChannelBusy(); busy != 0 {
			t.Errorf("%s: channels were busy for %v inside the outage", tc.name, busy)
		}
		e.Shutdown()
	}
}

// A segment on a channel when power is cut is not in the channel's queue
// any more: PowerCut removes what still waits, and the one being programmed
// is discarded, stale, when its media time ends — without becoming durable,
// and giving its channel back. Both commands were in flight, so both count
// as aborted.
func TestPowerCutDiscardsSegmentInServiceWhenItFinishes(t *testing.T) {
	e := sim.New(1)
	s := New(e, testOptane())
	completed := 0
	chans := uint64(s.cfg.Channels)
	write(e, s, 0, 1, 1, func(*Command) { completed++ })     // programming at the cut
	write(e, s, chans, 1, 2, func(*Command) { completed++ }) // same channel, queued behind it
	var atCut Stats
	e.At(1000, func() {
		s.PowerCut()
		atCut = s.Stats()
	})
	e.Run()
	if st := s.Stats(); atCut.AbortedCmds != 2 || atCut.StaleSegs != 0 || st.AbortedCmds != 2 || st.StaleSegs != 1 {
		t.Errorf("at the cut %+v, in the end %+v; want both commands aborted at the cut and the programmed segment stale at its finish", atCut, st)
	}
	if _, ok := s.Durable(0); ok || completed != 0 || len(s.DurableLBAs()) != 0 {
		t.Errorf("durable(0)=%v completed=%d media=%v after a cut mid-program", ok, completed, s.DurableLBAs())
	}
	if s.chanBusy.InUse() != 0 || s.ChannelBusy() != s.cfg.MediaWriteLat {
		t.Errorf("channel units in use %d, busy integral %v; want 0 and one media write (%v)", s.chanBusy.InUse(), s.ChannelBusy(), s.cfg.MediaWriteLat)
	}
	e.Shutdown()
}

// flashMix drives a flash device (FrontWidth 2, CacheCap 8) through every
// wait a command has, on a schedule in which the cache never overfills:
//
//	 0 µs  writes w1 (4 blocks), w2 and w3 (2 each): w3 waits for a front unit;
//	       an erase and a media read
//	17 µs  w4, 1 block, with 8 dirty: waits for cache space
//	40 µs  FLUSH f1; at 41 µs w5 waits behind it, at 42 µs FLUSH f2 queues
//	       on flushMu; at 45 µs a read of a cached block
//
// With cut > 0 power fails at cut, and 5 µs later the device restarts and
// takes a write and a FLUSH. It returns each Done in order as name@time/n,
// n the events scheduled so far (which pins the order of same-instant
// events), the device state at the cut, and the events and the counters at
// the end (AbortedCmds aside).
func flashMix(e *sim.Engine, cut sim.Time) []string {
	cfg := testFlash()
	cfg.CacheCap = 8
	s := New(e, cfg)
	var log []string
	submit := func(at sim.Time, name string, cmd *Command) {
		cmd.Done = func(*Command) {
			events, _ := e.Counts()
			log = append(log, fmt.Sprintf("%s@%v/%d", name, e.Now(), events))
		}
		e.At(at*sim.Microsecond, func() { s.Submit(cmd) })
	}
	w := func(lba uint64, blocks uint32) *Command {
		return &Command{Op: OpWrite, LBA: lba, Blocks: blocks, Stamps: make([]uint64, blocks)}
	}
	submit(0, "w1", w(0, 4))
	submit(0, "w2", w(4, 2))
	submit(0, "w3", w(8, 2))
	submit(0, "erase", &Command{Op: OpErase, LBA: 200, Blocks: 1, Owns: stampIs(0)})
	submit(0, "r1", &Command{Op: OpRead, LBA: 100, Blocks: 1})
	submit(17, "w4", w(16, 1))
	submit(40, "f1", &Command{Op: OpFlush})
	submit(41, "w5", w(20, 1))
	submit(42, "f2", &Command{Op: OpFlush})
	submit(45, "r2", &Command{Op: OpRead, LBA: 16, Blocks: 1})
	if cut > 0 {
		e.At(cut, func() {
			log = append(log, fmt.Sprintf("cut@%v flushing=%v dirty=%d", e.Now(), s.flushing, s.dirty))
			s.PowerCut()
		})
		e.At(cut+5*sim.Microsecond, func() {
			s.Restart()
			submit(0, "w6", w(300, 1))
			submit(0, "f3", &Command{Op: OpFlush})
		})
	}
	e.Run()
	events, _ := e.Counts()
	st := s.Stats()
	st.AbortedCmds = 0
	return append(log, fmt.Sprintf("events=%d %+v", events, st))
}

// TestFlashScheduleGolden pins, for flashMix and for cuts during a FLUSH's
// drain and during an insert sleep, every Done's time, the engine's event
// count and the counters, as recorded when flash writes and FLUSHes were
// procs: a device command written as steps spends seq exactly as the proc
// did.
func TestFlashScheduleGolden(t *testing.T) {
	for _, tc := range []struct {
		cut  sim.Time
		want string
	}{
		{0, `w2@8.000us/34
w1@12.000us/41
w3@16.000us/42
erase@25.000us/45
w4@39.000us/49
r2@47.000us/55
r1@60.000us/59
f1@351.500us/70
w5@357.500us/73
f2@601.500us/74
events=74 {Writes:5 WrittenBlks:10 Reads:2 Flushes:2 FlushBusy:561.500us Destaged:10 LostOnCut:0 AbortedCmds:0 StaleSegs:0 MaxDirtySeen:8 SatStall:0ns}`},
		{50 * sim.Microsecond, `w2@8.000us/36
w1@12.000us/43
w3@16.000us/44
erase@25.000us/47
w4@39.000us/51
r2@47.000us/57
cut@50.000us flushing=true dirty=5
w6@61.000us/69
f3@305.000us/70
events=70 {Writes:5 WrittenBlks:10 Reads:1 Flushes:1 FlushBusy:250.000us Destaged:5 LostOnCut:5 AbortedCmds:0 StaleSegs:3 MaxDirtySeen:8 SatStall:0ns}`},
		{3 * sim.Microsecond, `cut@3.000us flushing=false dirty=0
w6@14.000us/39
r2@105.000us/48
f3@258.000us/55
w4@264.000us/60
w5@264.000us/61
f1@508.000us/64
f2@758.000us/65
events=65 {Writes:3 WrittenBlks:3 Reads:1 Flushes:3 FlushBusy:750.000us Destaged:3 LostOnCut:0 AbortedCmds:0 StaleSegs:2 MaxDirtySeen:2 SatStall:0ns}`},
	} {
		e := sim.New(1)
		log := flashMix(e, tc.cut)
		if got := strings.Join(log, "\n"); got != tc.want {
			t.Errorf("cut at %v:\n%s\nwant\n%s", tc.cut, got, tc.want)
		}
		e.Shutdown()
	}
}

// Channels are sim.Servers and every command a sim.Step: a device creates
// no coroutine, and no op of either profile resumes one — an Optane write,
// FLUSH, read and erase, and flashMix's flash commands through every wait.
func TestDeviceOwnsNoProc(t *testing.T) {
	base := runtime.NumGoroutine()
	e := sim.New(1)
	done := 0
	onDone := func(*Command) { done++ }
	s := New(e, testOptane())
	e.At(0, func() {
		s.Submit(&Command{Op: OpWrite, LBA: 1, Blocks: 2, Stamps: []uint64{5, 5}, Done: onDone})
		s.Submit(&Command{Op: OpFlush, Done: onDone})
		s.Submit(&Command{Op: OpRead, LBA: 1, Blocks: 2, Done: onDone})
		s.Submit(&Command{Op: OpErase, LBA: 1, Blocks: 1, Owns: stampIs(5), Done: onDone})
	})
	log := flashMix(e, 0)
	if _, resumes := e.Counts(); done != 4 || len(log) != 11 || resumes != 0 {
		t.Errorf("completed %d of 4 Optane and %d of 10 flash commands with %d proc resumes, want 0", done, len(log)-1, resumes)
	}
	// A leak is more goroutines than at the start; fewer is an earlier test's
	// coroutines still exiting when the baseline was read.
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("two devices + traffic left %d goroutines, started with %d", n, base)
	}
	e.Shutdown()
}

// Writes that other front-end units admitted during an insert sleep count
// against the cache: two 4-block writes at once into a 4-block cache land
// one after the other, not together (8 dirty, had the check counted landed
// blocks alone).
func TestFlashCacheCapHoldsAcrossInsertSleeps(t *testing.T) {
	e := sim.New(1)
	cfg := testFlash()
	cfg.FrontWidth, cfg.CacheCap = 2, 4
	s := New(e, cfg)
	done := 0
	write(e, s, 0, 4, 1, func(*Command) { done++ })
	write(e, s, 4, 4, 2, func(*Command) { done++ })
	e.Run()
	if st := s.Stats(); done != 2 || st.MaxDirtySeen > cfg.CacheCap {
		t.Errorf("%d of 2 writes done, %d blocks dirty at most; want both, at most %d", done, st.MaxDirtySeen, cfg.CacheCap)
	}
	e.Shutdown()
}

// AbortedCmds counts the commands in flight at a power cut — submitted, and
// their Done not yet run — and nothing else: not destage segments of writes
// already done, and not fewer for a command that is waiting at the cut.
func TestAbortedCmdsCountsCommandsInFlight(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		cut  sim.Time
		cmds func(e *sim.Engine, s *SSD)
		want int64
	}{
		{"six flash writes done, destages queued", testFlash(), 40 * sim.Microsecond, func(e *sim.Engine, s *SSD) {
			for i := uint64(0); i < 6; i++ {
				write(e, s, i*uint64(s.cfg.Channels), 1, i, nil)
			}
		}, 0},
		{"two 4-block Optane writes on the same channels", testOptane(), sim.Microsecond, func(e *sim.Engine, s *SSD) {
			write(e, s, 0, 4, 1, nil)
			write(e, s, uint64(s.cfg.Channels), 4, 2, nil)
		}, 2},
		{"flash write waiting for cache space", testFlash(), 14 * sim.Microsecond, func(e *sim.Engine, s *SSD) {
			s.cfg.CacheCap = 4
			write(e, s, 0, 4, 1, nil)
			e.At(13*sim.Microsecond, func() { s.Submit(&Command{Op: OpWrite, LBA: 8, Blocks: 1, Stamps: []uint64{2}}) })
		}, 1},
		{"flash FLUSH waiting for the drain", testFlash(), 10 * sim.Microsecond, func(e *sim.Engine, s *SSD) {
			write(e, s, 0, 1, 1, nil)
			e.At(7*sim.Microsecond, func() { s.Submit(&Command{Op: OpFlush}) })
		}, 1},
		// The write aborted at the first cut ends after it, and must not
		// be taken off the second cut's count.
		{"a write waiting at one cut, a FLUSH at the next", testFlash(), 14 * sim.Microsecond, func(e *sim.Engine, s *SSD) {
			s.cfg.CacheCap = 4
			write(e, s, 0, 4, 1, nil)
			e.At(13*sim.Microsecond, func() { s.Submit(&Command{Op: OpWrite, LBA: 8, Blocks: 1, Stamps: []uint64{2}}) })
			e.At(15*sim.Microsecond, s.Restart)
			e.At(16*sim.Microsecond, func() { s.Submit(&Command{Op: OpWrite, LBA: 24, Blocks: 1, Stamps: []uint64{3}}) })
			e.At(23*sim.Microsecond, func() { s.Submit(&Command{Op: OpFlush}) })
			e.At(30*sim.Microsecond, s.PowerCut)
		}, 2},
	} {
		e := sim.New(1)
		s := New(e, tc.cfg)
		tc.cmds(e, s)
		e.At(tc.cut, s.PowerCut)
		e.Run()
		if got := s.Stats().AbortedCmds; got != tc.want {
			t.Errorf("%s: AbortedCmds %d, want %d", tc.name, got, tc.want)
		}
		e.Shutdown()
	}
}
