package stack

import (
	"fmt"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
)

// Tests of the target's flush combiner (Target.flushers): one device FLUSH
// certifies every durability barrier that queued behind the running one.

// barrierConfig is one flash target with one device, one stream per QP, a
// PMR small enough to scan at every poll, and a cache front wide enough that
// four writes arriving together are all landing when the first completes: a
// write that has not started landing when a FLUSH starts stalls behind it,
// so only carriers already landing can queue their barriers behind that FLUSH.
func barrierConfig(mode Mode) Config {
	cfg := smallConfig(mode, flash1()...)
	cfg.Targets[0].SSDs[0].PMRSize = 64 * core.EntrySize
	cfg.Targets[0].SSDs[0].FrontWidth = 4
	return cfg
}

// writeAt submits one 1-block ordered write on (init, stream) after delay —
// a commit when flush is set — and stores the request.
func writeAt(c *Cluster, init, stream int, delay sim.Time, flush bool, out **blockdev.Request) {
	c.Eng.Go(fmt.Sprintf("app%d.%d", init, stream), func(p *sim.Proc) {
		p.Sleep(delay)
		lba := uint64(init*8+stream)<<16 + uint64(p.Now())
		*out = c.Init(init).OrderedWrite(p, stream, lba, 1, 0, nil, true, flush, false)
	})
}

// persisted counts the PMR entries of initiator init whose persist bit is set.
func persisted(c *Cluster, init int) int {
	n := 0
	for _, e := range core.ScanRegion(c.Target(0).PMRPartition(init)) {
		if e.Persist {
			n++
		}
	}
	return n
}

// runUntilQueued advances the simulation until a FLUSH is running on device 0
// of target 0 with at least n barriers waiting behind it.
func runUntilQueued(t *testing.T, c *Cluster, n int) {
	t.Helper()
	fc := &c.Target(0).flushers[0]
	for step := 0; step < 2000; step++ {
		queued := 0
		for b := fc.wait; b != nil; b = b.next {
			queued++
		}
		if fc.busy && queued >= n {
			return
		}
		c.Eng.RunUntil(c.Eng.Now() + 500)
	}
	t.Fatalf("no FLUSH with %d barriers queued behind it", n)
}

// TestFlushCombinerSharesOneFlush: four streams commit at once on one flash
// device. The first completion's barrier finds the device idle and takes a
// FLUSH of its own; the other three carriers land while it runs, queue, and
// are certified by ONE shared FLUSH — whose completion, not the first one's,
// is what sets their persist bits.
func TestFlushCombinerSharesOneFlush(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, barrierConfig(ModeRio))
	reqs := make([]*blockdev.Request, 4)
	for s := range reqs {
		writeAt(c, 0, s, 0, true, &reqs[s])
	}
	dev := c.Target(0).SSD(0)
	for eng.Now() < sim.Millisecond {
		eng.RunUntil(eng.Now() + 500)
		// The leader's bit needs the first FLUSH done, a covered barrier's
		// the second: at no instant may more bits be set than that allows.
		if n, done := persisted(c, 0), dev.Stats().Flushes; (n > 0 && done < 1) || (n > 1 && done < 2) {
			t.Fatalf("at %v: %d persist bits set with %d device FLUSHes complete", eng.Now(), n, done)
		}
	}
	for s, r := range reqs {
		if !r.Done.Fired() {
			t.Fatalf("stream %d: commit never delivered", s)
		}
	}
	if got := dev.Stats().Flushes; got != 2 {
		t.Fatalf("device FLUSHes = %d, want exactly 2 (one lone, one shared by three barriers)", got)
	}
	if st := c.Target(0).Stats(); st.Barriers != 4 || st.Flushes != 2 {
		t.Fatalf("target counted %d barriers over %d FLUSHes, want 4 over 2", st.Barriers, st.Flushes)
	}
	if n := persisted(c, 0); n != 4 {
		t.Fatalf("%d persist bits set after both FLUSHes, want 4", n)
	}
	eng.Shutdown()
}

// loneCommitLatency is what each of three back-to-back flush-carrying 4 KB
// ordered writes costs on an otherwise idle flash target under barrierConfig,
// submission to delivery, in simulated ns — measured at the commit before the
// combiner existed. The combiner holds nothing back (no timer, no
// anticipation), so none may move.
var loneCommitLatency = [...]sim.Time{291301, 292461, 292193}

// TestFlushCombinerLoneCommitUnchanged: commits that never overlap each pay
// exactly their own FLUSH, at the parent's instant.
func TestFlushCombinerLoneCommitUnchanged(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, barrierConfig(ModeRio))
	eng.Go("app", func(p *sim.Proc) {
		for i, want := range loneCommitLatency {
			r := c.Init(0).OrderedWrite(p, 0, uint64(i*8), 1, 0, nil, true, true, false)
			c.Init(0).Wait(p, r)
			if got := r.DeliverAt - r.SubmitAt; got != want {
				t.Errorf("commit %d: submit→deliver = %d ns, want %d", i, got, want)
			}
			p.Sleep(10 * sim.Microsecond)
		}
	})
	eng.Run()
	const n = int64(len(loneCommitLatency))
	st := c.Target(0).Stats()
	if st.Barriers != n || st.Flushes != n || c.Target(0).SSD(0).Stats().Flushes != n {
		t.Fatalf("%d barriers over %d FLUSHes (%d at the device), want %d each",
			st.Barriers, st.Flushes, c.Target(0).SSD(0).Stats().Flushes, n)
	}
	eng.Shutdown()
}

// TestFlushCombinerDeadLeaderServesOthers: initiator 0's barrier leads the
// running FLUSH, initiator 1's waits behind it, and initiator 0 dies. The
// leader's completion must still advance the chain — initiator 1's barrier
// gets its FLUSH, its persist bit and its CQE — while nothing of the dead
// initiator is toggled, and the combiner is left idle for the next commit.
func TestFlushCombinerDeadLeaderServesOthers(t *testing.T) {
	eng := sim.New(1)
	cfg := barrierConfig(ModeRio)
	cfg.Initiators = 2
	c := New(eng, cfg)
	var r0, r1, later *blockdev.Request
	writeAt(c, 0, 0, 0, true, &r0)
	writeAt(c, 1, 0, 3*sim.Microsecond, true, &r1)
	runUntilQueued(t, c, 1)
	tg := c.Target(0)
	if w := tg.flushers[0].wait; w.ws.init != 1 || w.next != nil || tg.Stats().Flushes != 1 {
		t.Fatalf("want initiator 0 leading and initiator 1 alone behind it; waiting barrier is initiator %d, %d FLUSHes issued",
			w.ws.init, tg.Stats().Flushes)
	}
	c.PowerCutInitiator(0)
	eng.Run()
	if r0.Done.Fired() {
		t.Fatal("the dead initiator's commit was delivered")
	}
	if n := persisted(c, 0); n != 0 {
		t.Fatalf("%d persist bits toggled in the dead initiator's partition", n)
	}
	if !r1.Done.Fired() || persisted(c, 1) != 1 {
		t.Fatalf("initiator 1's commit behind the dead leader: delivered %v, persist bits %d", r1.Done.Fired(), persisted(c, 1))
	}
	if fc := tg.flushers[0]; fc.busy || fc.wait != nil {
		t.Fatalf("combiner not idle after the chain drained: %+v", fc)
	}
	writeAt(c, 1, 1, 0, true, &later)
	eng.Run()
	if !later.Done.Fired() || tg.SSD(0).Stats().Flushes != 3 {
		t.Fatalf("later commit: delivered %v, device FLUSHes %d (want 3)", later.Done.Fired(), tg.SSD(0).Stats().Flushes)
	}
	if st := tg.Stats(); st.Barriers != 2 || st.Flushes != 3 {
		t.Fatalf("%d barriers certified over %d FLUSHes, want 2 over 3 (the dead leader's is not certified)", st.Barriers, st.Flushes)
	}
	eng.Shutdown()
}

// TestFlushCombinerTargetCutDropsQueue: a target power cut with a FLUSH
// running and barriers queued acknowledges none of them (the device lost the
// FLUSH), clears the combiner, and leaves every write outstanding for
// RecoverTarget's replay, after which all are delivered and durable.
func TestFlushCombinerTargetCutDropsQueue(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, barrierConfig(ModeRio))
	c.PoisonRecycled()
	reqs := make([]*blockdev.Request, 4)
	for s := range reqs {
		writeAt(c, 0, s, 0, true, &reqs[s])
	}
	runUntilQueued(t, c, 2)
	c.PowerCutTarget(0)
	tg := c.Target(0)
	if fc := tg.flushers[0]; fc.busy || fc.wait != nil {
		t.Fatalf("combiner survived the power cut: %+v", fc)
	}
	eng.RunUntil(eng.Now() + sim.Millisecond)
	for s, r := range reqs {
		if r.Done.Fired() {
			t.Fatalf("stream %d: commit acknowledged although its FLUSH died with the target", s)
		}
	}
	eng.Go("recover", func(p *sim.Proc) { c.RecoverTarget(p, 0) })
	eng.Run()
	for s, r := range reqs {
		if !r.Done.Fired() {
			t.Fatalf("stream %d: commit not delivered after replay", s)
		}
		if !c.Holds(r) {
			t.Fatalf("stream %d: delivered commit is not durable", s)
		}
	}
	if v := tg.GateAudit(); v != 0 {
		t.Fatalf("gate audit after replay: %d violations", v)
	}
	if st := tg.Stats(); st.Barriers != 4 || st.Barriers < tg.SSD(0).Stats().Flushes {
		t.Fatalf("%d barriers certified over %d completed device FLUSHes, want 4 and no fewer than the FLUSHes",
			st.Barriers, tg.SSD(0).Stats().Flushes)
	}
	eng.Shutdown()
}

// TestFlushCombinerHoraeCertifiesLateSlots: in Horae mode a FLUSH certifies
// every completed-but-unflushed slot on the device. The list is taken when
// the shared FLUSH is SUBMITTED, so a plain write that completes after a
// barrier queued — but before the running FLUSH finished — is certified by
// the FLUSH that barrier shares (it drains that write too).
func TestFlushCombinerHoraeCertifiesLateSlots(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, barrierConfig(ModeHorae))
	var lead, queued, plain *blockdev.Request
	writeAt(c, 0, 0, 0, true, &lead)
	writeAt(c, 0, 1, 2*sim.Microsecond, true, &queued)
	writeAt(c, 0, 2, 4*sim.Microsecond, false, &plain)
	runUntilQueued(t, c, 1)
	dev := c.Target(0).SSD(0)
	if plain.Done.Fired() {
		t.Fatal("the plain write completed before the second barrier queued: the schedule does not test the late slot")
	}
	for !plain.Done.Fired() {
		eng.RunUntil(eng.Now() + 500)
	}
	if dev.Stats().Flushes != 0 || c.Target(0).Stats().Flushes != 1 {
		t.Fatalf("the plain write must complete while the first FLUSH runs and before the shared one is submitted: %d complete, %d issued",
			dev.Stats().Flushes, c.Target(0).Stats().Flushes)
	}
	eng.Run()
	if !lead.Done.Fired() || !queued.Done.Fired() {
		t.Fatal("commits not delivered")
	}
	if got := dev.Stats().Flushes; got != 2 {
		t.Fatalf("device FLUSHes = %d, want 2", got)
	}
	if n := persisted(c, 0); n != 3 {
		t.Fatalf("%d persist bits set, want 3: the shared FLUSH certifies the plain write that completed before its submission", n)
	}
	eng.Shutdown()
}

// TestFlushCombinerCutDuringCarrierCompletion: the target loses power while
// a flush-carrying write's completion is inside its CplHandle grant. The
// straddling handler must not queue the barrier: the combiner it would mark
// busy was just cleared, the FLUSH would go to a dead device and never come
// back, and every commit after the recovery would wait behind it forever.
func TestFlushCombinerCutDuringCarrierCompletion(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, barrierConfig(ModeRio))
	c.PoisonRecycled()
	var r, later *blockdev.Request
	writeAt(c, 0, 0, 0, true, &r)
	tg := c.Target(0)
	for tg.SSD(0).Stats().Writes == 0 { // the device reports the write done: its handler starts
		eng.RunUntil(eng.Now() + 100)
	}
	if tg.Stats().Flushes != 0 {
		t.Fatal("the barrier was submitted before the cut: the schedule does not straddle the completion handler")
	}
	c.PowerCutTarget(0)
	eng.RunUntil(eng.Now() + sim.Millisecond)
	if fc := tg.flushers[0]; fc.busy || fc.wait != nil {
		t.Fatalf("the straddling completion handler touched the cleared combiner: %+v", fc)
	}
	eng.Go("recover", func(p *sim.Proc) { c.RecoverTarget(p, 0) })
	eng.Run()
	writeAt(c, 0, 1, 0, true, &later)
	eng.Run()
	if !r.Done.Fired() || !later.Done.Fired() {
		t.Fatalf("after recovery: replayed commit delivered %v, later commit delivered %v", r.Done.Fired(), later.Done.Fired())
	}
	eng.Shutdown()
}
