package crash

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
)

// Outcome is what a run did, for the coverage floors and for comparing two
// runs of one seed: same seed, same Outcome.
type Outcome struct {
	Writes  int64    // requests submitted
	Fused   int64    // commands the scheduler fused away
	Queued  bool     // the cut landed with barriers queued behind a running FLUSH
	Relayed int64    // capsules the relay head had forwarded when it was cut
	Reads   int      // reads checked against their one correct answer
	Strict  bool     // the prefix invariant was checked two-sided
	Log     []string // every cut and recovery, with its timing
}

func (o Outcome) String() string {
	return fmt.Sprintf("%d writes, %d fused, barriers queued at the cut: %v, %d relayed before the head cut, %d reads checked, strict prefix: %v",
		o.Writes, o.Fused, o.Queued, o.Relayed, o.Reads, o.Strict)
}

// run is the state of one plan's execution.
type run struct {
	pl  Plan
	eng *sim.Engine
	c   *stack.Cluster
	out Outcome

	// live[i][s] holds, in submission order, the requests of initiator i's
	// current incarnation on stream s; a cut of the initiator moves them to
	// frozen, which the recovery that brings it back is checked against. gen
	// counts incarnations, so a writer never files a request under a new one.
	live, frozen [][][]*blockdev.Request
	gen          []int

	paused, stopped bool // writers only: readers run through every phase
	dark            int  // odd while some set has no live in-sync member, bumped at both edges
	recovered       bool // some recovery has run: evidence may have been formatted
	holes           bool // an initiator came back on evidence that may have holes (finding 1(h), see check)
	stale           int
}

// Run executes the plan — traffic, cut, quiesce, recover under whatever
// traffic survives, resume, optionally the final whole-cluster cut and the
// same again, drain — and checks the whole contract at every step. Which form
// of a clause applies is decided from what the run did, never from what kind
// of plan it is: the prefix is checked two-sided while no PMR ring wrapped and
// nothing was recovered before, one-sided after; writes must complete without
// the recovery while every set kept a write quorum, with it otherwise.
func (pl Plan) Run() (out Outcome, err error) {
	eng := sim.New(pl.Seed)
	c, err := stack.Open(eng, pl.Cfg)
	if err != nil {
		return out, err
	}
	c.PoisonRecycled()
	h := &run{pl: pl, eng: eng, c: c, gen: make([]int, pl.Inits)}
	for i := range h.gen {
		h.live, h.frozen = append(h.live, make([][]*blockdev.Request, pl.Cfg.Streams)), append(h.frozen, nil)
		for s := range pl.Cfg.Streams {
			eng.Go(fmt.Sprintf("crash/wr%d.%d", i, s), func(p *sim.Proc) { h.writer(p, i, s) })
			if pl.Cache > 0 {
				eng.Go(fmt.Sprintf("crash/rd%d.%d", i, s), func(p *sim.Proc) { h.reader(p, i, s) })
			}
		}
	}
	defer func() {
		if r := recover(); r != nil { // a poisoned record, a torn capsule: the plan failed, and says how
			err = fmt.Errorf("panic: %v", r)
			return
		}
		eng.Shutdown()
	}()

	queued := func() bool {
		return slices.ContainsFunc(h.seq(c.Targets()), func(t int) bool { return c.Target(t).BarriersQueued(0) })
	}
	if eng.RunUntil(sim.Time(pl.At) * sim.Microsecond); pl.Queued { // late enough that FLUSHes run back to back
		eng.RunUntil(5 * eng.Now())
	}
	for step := 0; pl.Queued && !queued() && step < 4000; step++ {
		eng.RunUntil(eng.Now() + 250)
	}
	h.out.Queued = queued()
	if err = h.cutAndRecover(pl.Cut); err == nil && pl.Final {
		eng.RunUntil(eng.Now() + sim.Time(pl.FinalAt)*sim.Microsecond)
		err = h.cutAndRecover("cluster")
	}
	if err != nil {
		return h.out, err
	}
	h.stopped = true
	eng.Run()
	st := c.StatsAll()
	h.out.Writes, h.out.Fused = st.Submitted, st.FusedCmds
	if h.stale > 0 {
		return h.out, fmt.Errorf("%d of %d reads returned a stale or lost block", h.stale, h.out.Reads+h.stale)
	}
	return h.out, h.settled("at the end", pl.Mode != "linux") // linux: see the end of cutAndRecover
}

func (h *run) seq(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// writer submits bursts of never-repeated blocks of its region until stopped,
// polling its completions (a cut drops them, and must not strand it) and
// sitting out its initiator's death.
func (h *run) writer(p *sim.Proc, i, s int) {
	rng := rand.New(rand.NewSource(h.pl.Seed<<8 + int64(i*h.pl.Cfg.Streams+s)))
	base := uint64(i*h.pl.Cfg.Streams+s) * region
	var pending []*blockdev.Request
	for n, g := uint64(0), 0; !h.stopped; {
		in := h.c.Init(i)
		if g != h.gen[i] {
			pending, g = pending[:0], h.gen[i] // the dead incarnation's never fire
		}
		for len(pending) > 0 && pending[0].Done.Fired() {
			pending = pending[1:]
		}
		if !in.Alive() || h.paused || len(pending) >= 24 {
			p.Sleep(5 * sim.Microsecond)
			continue
		}
		k, oneGroup := 1+rng.Intn(h.pl.Burst), h.pl.Plug && rng.Intn(2) == 0
		if h.pl.Plug {
			in.StartPlug(s)
		}
		for ; k > 0 && in.Alive() && !h.stopped; k-- {
			n++
			r := in.OrderedWrite(p, s, base+n, 1, 0, nil, !oneGroup || k == 1, h.pl.Commit > 0 && n%uint64(h.pl.Commit) == 0, false)
			pending = append(pending, r)
			if g == h.gen[i] && r.Ticket != nil {
				h.live[i][s] = append(h.live[i][s], r)
			}
		}
		if h.pl.Plug && in.Alive() {
			in.FinishPlug(p, s)
		}
		p.Sleep(2 * sim.Microsecond)
	}
}

// reader reads back delivered writes of its stream. A block is written once,
// so while it must be durable — every device has PLP — and its set stayed up,
// a read has one correct answer: anything else is a stale hit or a lost block.
func (h *run) reader(p *sim.Proc, i, s int) {
	rng := rand.New(rand.NewSource(h.pl.Seed*100 + int64(i*h.pl.Cfg.Streams+s)))
	rec := make([]ssd.Rec, 1)
	for ; !h.stopped; p.Sleep(5 * sim.Microsecond) {
		in, list := h.c.Init(i), h.live[i][s]
		if !in.Alive() || len(list) == 0 {
			continue
		}
		r := list[rng.Intn(len(list))]
		if !r.Done.Fired() {
			continue
		}
		g, dark := h.gen[i], h.dark
		in.ReadStream(p, s, r.LBA, 1, rec)
		if g != h.gen[i] || dark != h.dark || dark%2 == 1 || !h.pl.plp() || h.stopped {
			continue
		}
		if rec[0].Stamp == core.AttrStamp(r.Ticket.Attr) {
			h.out.Reads++
		} else {
			h.stale++
		}
	}
}

// cutAndRecover is one fault of the schedule, start to finish.
func (h *run) cutAndRecover(kind string) error {
	c, eng := h.c, h.eng
	targets, inits := []int{h.pl.Victim}, []int{h.pl.VInit} // both
	switch kind {
	case "cluster":
		targets, inits = h.seq(c.Targets()), h.seq(c.Initiators())
	case "initiator":
		targets = nil
	case "target", "member", "head":
		inits = nil
	case "members": // every member in turn, 50 µs apart, starting at the victim
		targets, inits = append(h.seq(c.Targets())[h.pl.Victim:], h.seq(h.pl.Victim)...), nil
	}
	// The strict prefix form needs every group's evidence: no ring wrapped (so
	// no retired entry was overwritten) and no earlier recovery formatted any.
	strict := !h.recovered
	for t := range c.Targets() {
		strict = strict && c.Target(t).Stats().PMRAppends < int64(len(c.Target(t).PMRPartition(0))/core.EntrySize)
	}
	if kind == "head" {
		h.out.Relayed = c.Target(h.pl.Victim).Stats().Relays
	}
	for _, i := range inits {
		c.PowerCutInitiator(i)
		h.frozen[i], h.live[i] = h.live[i], make([][]*blockdev.Request, h.pl.Cfg.Streams)
		h.gen[i]++
	}
	for k, t := range targets {
		if c.PowerCutTarget(t); kind == "members" && k < len(targets)-1 {
			eng.RunUntil(eng.Now() + 50*sim.Microsecond)
		}
	}
	// quorate: every set still has a write quorum of live in-sync members, so
	// nothing may wait for the recovery; lit: every set has at least one.
	quorate, lit, darkAt := true, true, eng.Now()
	for set := range c.SetCount() {
		up := len(c.SetMembers(set)) - len(slices.DeleteFunc(c.SetMembers(set), c.InSync))
		quorate, lit = quorate && up >= c.WriteQuorum(), lit && up > 0
	}
	if !lit {
		h.dark++
	}
	h.log("%v: cut %s: targets %v, initiators %v", darkAt, kind, targets, inits)
	a := h.quiesce()
	if a.Trace = 0; len(inits) > 0 { // what the cut stranded stays open until its replay
		a.Diverged = 0 // what a dead initiator left on some members only, its recovery rolls back
	}
	if err := a.Err(); err != nil {
		return fmt.Errorf("after the cut: %w", err)
	}
	if quorate {
		if err := h.check("with every set still at quorum after the cut", h.live, nil, false); err != nil {
			return err
		}
	}

	// Recover. Servers cut together come back in one run; members of a set
	// cut one after another come back last cut first, each from its own proc,
	// because the last in-sync member's replay completes only when a peer's
	// resync lands the quorum's second copy (ROADMAP item 9(b)). A peer
	// resync drains only while writers stop dirtying its backlog, so on a
	// replicated cluster they stay paused; everywhere else survivors write on.
	h.paused = c.Replicas() > 1
	runs := [][]int{targets}
	if kind == "members" {
		slices.Reverse(targets)
		runs = slices.Collect(slices.Chunk(targets, 1))
	}
	reports, pending := make([]*core.Report, len(runs)), len(runs)
	for k, ts := range runs {
		eng.Go("crash/recover", func(p *sim.Proc) {
			rep, tm := c.Recover(p, ts, inits)
			h.log("%v: recovered targets %v, initiators %v: order rebuild %v, data recovery %v, %d discarded, %d replayed",
				p.Now(), ts, inits, tm.OrderRebuild, tm.DataRecovery, tm.Discarded, tm.Replayed)
			reports[k], pending = rep, pending-1
		})
		eng.RunUntil(eng.Now() + 100*sim.Microsecond)
	}
	for ms := 0; pending > 0; ms++ {
		if ms == 400 {
			return fmt.Errorf("recovery of targets %v, initiators %v did not complete in 400 ms", targets, inits)
		}
		eng.RunUntil(eng.Now() + sim.Millisecond)
	}
	if h.recovered = true; !lit {
		h.dark++
	}
	if t := slices.IndexFunc(targets, func(t int) bool { return !c.InSync(t) }); t >= 0 {
		return fmt.Errorf("target %d is not back in sync after its recovery", targets[t])
	}
	if len(inits) > 0 {
		if err := h.check("the incarnation the cut ended", h.frozen, reports[0], strict); err != nil {
			return err
		}
		clear(h.frozen)
		h.out.Strict, h.holes = h.out.Strict || strict, h.holes || !strict && !h.pl.allows("1h")
	}

	// Resume, then quiesce again: whatever waited for the recovery is
	// delivered now. Linux mode stays stopped after its cut: the dead
	// incarnation's synchronous submitters still hold the one-in-flight device
	// mutex (the simulation does not model thread death) — and one of them may
	// resume into the recovered initiator, open a span and block there for good.
	if h.stopped = h.pl.Mode == "linux"; h.stopped {
		return nil
	}
	h.paused = false
	eng.RunUntil(eng.Now() + 300*sim.Microsecond)
	err := h.settled("after the recovery", false)
	h.paused = false
	return err
}

// quiesce stops the writers, lets what they submitted land — until no
// initiator has seen a completion for 500 µs, 2 ms where a flash FLUSH of a
// full cache takes 1.5 — and audits. Once a prefix may have stopped at a hole
// each member rolled back what its own ring still held, and a set may differ.
func (h *run) quiesce() stack.AuditReport {
	h.paused = true
	for last, idle := int64(-1), 0; idle < 5 || !h.pl.plp() && idle < 20; {
		h.eng.RunUntil(h.eng.Now() + 100*sim.Microsecond)
		if n := h.c.StatsAll().Completed; n == last {
			idle++
		} else {
			last, idle = n, 0
		}
	}
	a := h.c.Audit()
	if h.holes {
		a.Diverged = 0
	}
	return a
}

// settled is the quiescent-point check of the surviving incarnations; the
// trace ledger balances only once nothing waits for a replay any more.
func (h *run) settled(when string, ledger bool) error {
	a := h.quiesce()
	if err := h.check(when, h.live, nil, false); err != nil {
		return err
	}
	if !ledger {
		a.Trace = 0
	}
	if err := a.Err(); err != nil {
		return fmt.Errorf("%s: %w", when, err)
	}
	return nil
}

// check holds incarnations to the contract, stream by stream. One a cut ended
// (rep is the report of the recovery that brought it back) obeys the §4.8
// prefix invariant — inside the prefix durable, beyond it gone (strict) or at
// least not an undelivered survivor: a wrapped ring or an earlier recovery
// leaves the prefix conservative, and delivered media rightly survives beyond
// it. One that is alive (rep is nil) has every request delivered. And what
// delivery promised holds: the unit is the group, delivered when its boundary
// request and every request before it is; if it carried a commit, or on a
// cluster of PLP devices in any case, everything up to it is durable.
//
// ROADMAP finding 1(h) limits that last clause, and the first on flash, to
// strict reports: the prefix stops at any hole in a stream's merged evidence
// and rolls back every delivered group beyond it, and below the oldest
// surviving entry it takes every group as durable because it was retired —
// on a non-PLP device at delivery, out of the cache. `-set allow=1h` checks
// both regardless.
func (h *run) check(when string, incarnations [][][]*blockdev.Request, rep *core.Report, strict bool) error {
	sound := rep == nil || strict || h.pl.allows("1h")
	for i, streams := range incarnations {
		for s, list := range streams {
			fail := func(r *blockdev.Request, what string) error {
				return fmt.Errorf("%s: initiator %d stream %d: group %d %s", when, i, s, r.Ticket.Attr.SeqStart, what)
			}
			prefix, owed := uint64(0), false
			if rep != nil {
				prefix = rep.PrefixFor(uint16(i), uint16(s))
			}
			for k := len(list) - 1; k >= 0; k-- {
				r := list[k]
				g, delivered := r.Ticket.Attr.SeqStart, r.Done.Fired()
				if !owed && r.Boundary {
					whole, commit := true, false
					for j := k; j >= 0 && list[j].Ticket.Attr.SeqStart == g; j-- {
						whole, commit = whole && list[j].Done.Fired(), commit || list[j].Flush
					}
					owed = sound && whole && (commit || h.pl.plp())
				}
				switch {
				case owed && !h.c.Holds(r):
					return fail(r, "is at or below a delivered group that promised durability, but is not durable")
				case rep == nil && !delivered && h.c.Init(i).Alive():
					return fail(r, "never delivered")
				case rep != nil && g <= prefix && (sound || h.pl.plp()) && !h.c.Holds(r):
					return fail(r, fmt.Sprintf("inside prefix %d but not durable", prefix))
				case rep != nil && g > prefix && (strict || !delivered) && h.c.Holds(r):
					return fail(r, fmt.Sprintf("beyond prefix %d but survived (strict %v, delivered %v)", prefix, strict, delivered))
				}
			}
		}
	}
	return nil
}

func (h *run) log(format string, args ...any) {
	h.out.Log = append(h.out.Log, fmt.Sprintf(format, args...))
}
