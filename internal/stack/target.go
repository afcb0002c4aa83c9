package stack

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/nvmeof"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// TargetStats counts target-side events (aggregated over all initiators).
type TargetStats struct {
	Capsules   int64
	Commands   int64
	CtrlOps    int64
	Holdbacks  int64 // in-order submission stalls (§4.3.1)
	PMRAppends int64
	PMRFull    int64 // appends that found their log partition full and parked
	PMRToggles int64
	Responses  int64 // messages posted to initiators (post; coalescing lowers this)
	CQEs       int64 // completion entries those capsules carried
	HeldCQEs   int64 // completions (CQEs or relay acks) that waited for an older one to commit: no hold timer
	Flushes    int64 // device FLUSHes issued
	Barriers   int64 // flush barriers certified (a combined FLUSH certifies several)

	// GovSwitches counts adaptive-governor operating-point transitions on
	// this target (0 with the governor disabled).
	GovSwitches int64

	// Replication fast-path counters (all 0 unless cfg.ReplRelay):
	// Relays counts relayed capsules this target forwarded to followers as
	// a set head, RelayAcks counts completions this target routed to its
	// head instead of the initiator, RelayAckMsgs the ack capsules that
	// carried them, AggFires counts aggregated CQEs emitted at quorum (or
	// flushed by a degrade).
	Relays       int64
	RelayAcks    int64
	RelayAckMsgs int64
	AggFires     int64
}

// Sub returns the counter deltas s - old (for measurement windows).
func (s TargetStats) Sub(old TargetStats) TargetStats { return metrics.Delta(s, old) }

// Add returns the counter sums s + o (for fleet-wide aggregation).
func (s TargetStats) Add(o TargetStats) TargetStats { return metrics.Sum(s, o) }

// tDone is one SSD completion routed to the target's completion context,
// with the SSD command it completes embedded: the device holds &d.cmd from
// Submit until it calls Done, which queues d for the completion context.
// Instances recycle through the target's free list — the completion context
// owns the put (cplEnd), after the device has let go — so steady-state
// completion traffic allocates nothing.
// A command a power cut strands never completes and is never recycled.
type tDone struct {
	cmd   ssd.Command // Done and Ctx stay bound to (t.ssdDone, d) for the record's life
	free  bool        // on the free list (or, poisoned, dead for good)
	ws    *wireState
	slots []uint64 // PMR entries of this command (vector commands: several)
	// isFlush marks a flush-carrying ordered write's record once its
	// completion made it the group's durability barrier; next links the
	// barriers one FLUSH covers, leader first.
	isFlush    bool
	next       *tDone
	flushSlots []order.SlotRef // additional slots the led FLUSH certifies (Horae)
	// lane, when non-nil, makes this a CQE hold-timer expiry: no SSD
	// completion, just "flush that lane's pending responses". Routed
	// through doneQ so the flush runs in completion-context (the timer
	// itself fires in engine context, where no CPU can be charged).
	lane  *qpLane
	epoch int

	// Stage-tracing stamps carried from the device's Done callback into
	// completion context: when the device reported the command done, and
	// how much of its service time was saturation-knee inflation.
	doneAt  sim.Time
	satWait sim.Time
}

// flushCombiner is one device's durability-barrier station (after Linux's
// blk-flush.c): at most one barrier FLUSH is at the device, and the barriers
// that arrive meanwhile go as ONE FLUSH once its completion is handled.
type flushCombiner struct {
	busy bool   // a barrier FLUSH is at the device, or its completion not handled yet
	wait *tDone // the barriers behind it in arrival order, linked through tDone.next
}

// parkedCmd is one held-back command at an in-order gate, together with
// the attribute chain it arrived with (this member's chain record of the
// command) and when it parked (a traced request's gate-park wait). It is
// the payload type the ordering engine's parked rings hold for this target.
type parkedCmd struct {
	ws    *wireState
	attrs []core.Attr
	at    sim.Time
}

// qpLane is everything a target holds for one (initiator, queue pair): the
// receive queue its rx worker drains serially and the response capsule being
// coalesced toward that initiator on that QP. One record per lane means
// a link death clears it in one place (reset): the pending CQEs belong to
// the dead epoch and must never be flushed into the next incarnation, and
// the armed flag must go with them — left set, it would strand the next
// incarnation's sub-threshold batch with no timer behind it. A relay
// follower's ack capsule toward its head is a lane too (relayState.out):
// acks instead of CQEs, and no receive queue.
//
// An entry is held (commit) when its command sits behind an older command
// of its ordering domain that has not responded: the initiator cannot
// deliver it before that one, so it waits for the completion that moves
// the domain's completion frontier past it, not for a hold timer of its
// own. held counts them; the hold timer backs only the rest.
type qpLane struct {
	t        *Target
	init, qp int
	rxQ      *sim.Queue[*capsule]

	// The pending response capsule: its entries (one kind per lane: CQEs,
	// or a follower's acks) and, on the relay route, the late-ack records
	// it will piggyback.
	entries    []cplEntry
	resolved   []aggResolved
	first      sim.Time // when the oldest entry not held entered: the hold timer ships a batch only once it is cqeHold old
	held       int      // pending entries held for commit
	armed      bool     // a hold-timer event is outstanding
	inflight   int      // commands submitted to an SSD and not yet responded
	askRetires bool     // the next response capsule asks for watermarks (logFull)
}

// push appends one entry to the pending response capsule, stamped with
// the instant it joined.
func (l *qpLane) push(e cplEntry) {
	e.at = l.t.c.Eng.Now()
	l.stampFirst(e.at)
	l.entries = append(l.entries, e)
}

// stampFirst starts the batch age at now if the entry about to join is the
// first the hold timer backs (every pending one is held, or none is
// pending).
func (l *qpLane) stampFirst(now sim.Time) {
	if len(l.entries) == l.held {
		l.first = now
	}
}

// backed reports whether the hold timer backs a pending entry.
func (l *qpLane) backed() bool { return len(l.entries) > l.held }

// reset drops everything volatile the lane holds when the link it serves
// dies (either side's power cut). In-flight SSD commands complete into a
// dead epoch and are dropped in doneOne; stale timers that fire later
// clear the armed flag again, which is benign.
func (l *qpLane) reset() {
	l.rxQ.Drain()
	*l = qpLane{t: l.t, init: l.init, qp: l.qp, rxQ: l.rxQ}
}

// Target is one target server: CPU cores, an RDMA connection per
// initiator, SSDs, and (for Rio/Horae) the PMR ordering-attribute log on
// its first SSD, partitioned into one region per initiator so each
// initiator's ordering domain appends, retires and recovers
// independently. All gate/chain/retire/flush-certification state lives
// in the ordering engine (internal/order): one dense Domain per
// (initiator, stream), indexed without hashing on the per-command path.
type Target struct {
	c     *Cluster
	id    int
	cores *sim.Resource
	conns []*fabric.Conn // one per initiator
	ssds  []*ssd.SSD

	logs     []*core.Log // per-initiator PMR partitions
	logSpace []*sim.Cond // per-initiator append backpressure
	logFull  []bool      // per-initiator: an append parked and asked the owner for watermarks
	ord      *order.Engine[parkedCmd]
	pol      order.Policy

	lanes    []qpLane // one per (initiator, QP), index init*QPs+qp: see lane
	rx       []tctx   // the lanes' receive contexts, same index
	doneQ    *sim.Queue[*tDone]
	cpl      [2]tctx         // the completion contexts, both consuming doneQ
	flushers []flushCombiner // one per SSD

	// Completion-event free lists: tDone structs and the PMR slot bursts
	// they carry.
	// timerFree holds fired CQE hold-timer events.
	doneFree  []*tDone
	slotsFree [][]uint64
	timerFree sim.FreeList[cqeTimer]
	ssdDone   func(*ssd.Command) // t.onSSDDone, bound once

	// gov holds the CQE hold time and flush threshold (adapted to the
	// completion arrival rate when Config.Governor is enabled; see
	// governor.go).
	gov *governor

	// relay is the relay-route state (nil unless cfg.ReplRelay; relay.go).
	relay *relayState

	alive bool
	epoch int
	stats TargetStats
}

func newTarget(c *Cluster, id int, tc TargetConfig) *Target {
	t := &Target{
		c:     c,
		id:    id,
		cores: sim.NewResource(c.Eng, c.cfg.TargetCores),
		pol:   c.cfg.Mode.Policy(),
		alive: true,
		doneQ: sim.NewQueue[*tDone](c.Eng),
		gov:   newGovernor(c.cfg, c.Eng.Now()),
	}
	t.ssdDone = t.onSSDDone
	nInit := c.cfg.Initiators
	t.lanes = make([]qpLane, nInit*c.cfg.QPs)
	t.rx = make([]tctx, len(t.lanes))
	for k := range t.lanes {
		t.lanes[k] = qpLane{t: t, init: k / c.cfg.QPs, qp: k % c.cfg.QPs, rxQ: sim.NewQueue[*capsule](c.Eng)}
	}
	for _, sc := range tc.SSDs {
		sc.KeepHistory = c.cfg.KeepHistory
		t.ssds = append(t.ssds, ssd.New(c.Eng, sc))
	}
	t.flushers = make([]flushCombiner, len(t.ssds))
	t.ord = order.NewEngine[parkedCmd](t.pol, nInit, c.cfg.Streams, len(t.ssds), c.cfg.MaxPlug)
	for i := 0; i < nInit; i++ {
		t.logs = append(t.logs, core.NewLog(t.pmrRegion(i)))
		t.logSpace = append(t.logSpace, sim.NewCond(c.Eng))
	}
	t.logFull = make([]bool, nInit)
	// One connection (with its own QP set) per initiator, and one receive
	// context per QP: arrivals on a queue pair are handled serially (as on
	// real hardware, where a QP maps to one completion queue), which is
	// what makes stream→QP affinity deliver commands to the in-order gate
	// without holdbacks (§4.5 Principle 2). Contexts are Runner records,
	// not procs (tctx): a target owns no coroutine.
	for i := 0; i < nInit; i++ {
		i := i
		conn := fabric.NewConn(c.Eng, c.cfg.Fabric)
		conn.SetHandler(fabric.Target, func(m fabric.Message) {
			if cp, ok := m.Payload.(*capsule); ok {
				t.recvCapsule(i, m.QP, cp)
			}
		})
		conn.SetHandler(fabric.Initiator, func(m fabric.Message) {
			if cm, ok := m.Payload.(*completionMsg); ok {
				c.inits[i].reapShard(cm.qp).cplQ.Push(cm)
			}
		})
		t.conns = append(t.conns, conn)
		for qp := 0; qp < c.cfg.QPs; qp++ {
			k := i*c.cfg.QPs + qp
			t.rx[k].t, t.rx[k].l = t, &t.lanes[k]
			t.rx[k].Start(c.Eng, t.cores, &t.rx[k], (*tctx).rxPop)
		}
	}
	for i := range t.cpl {
		t.cpl[i].t = t
		t.cpl[i].Start(c.Eng, t.cores, &t.cpl[i], (*tctx).cplPop)
	}
	return t
}

// recvCapsule is the NIC receive handler for one command capsule of
// initiator init, from the initiator's conn or — a forwarded copy — from
// the set head's relay conn. Retire watermarks are processed here, in
// interrupt context: they free PMR log space and must not queue behind
// commands that may be blocked waiting for that very space. A head-cut
// re-ask gets its first answer here too: a command that finished must not
// wait behind the lane's backlog for its second ack.
func (t *Target) recvCapsule(init, qp int, cp *capsule) {
	mustBeLive(cp.free, "capsule")
	l := t.lane(init, qp)
	if t.alive && cp.epoch == t.initEpoch(init) {
		for _, r := range cp.retires {
			t.retireUpTo(init, r.stream, r.upTo)
		}
		if len(cp.cmds) == 0 && len(cp.ctrl) == 0 && len(cp.reask) == 0 {
			t.c.putCapsule(cp) // watermarks only (Initiator.sendRetires)
			return
		}
		if len(cp.reask) > 0 && t.answerReask(l, cp) {
			t.routeFlush(l)
		}
	}
	l.rxQ.Push(cp)
}

// pmrRegion returns initiator init's partition of this target's PMR
// region: the region is divided into equal, entry-aligned slices so each
// initiator's circular log (and its recovery scan and post-recovery
// format) is independent of every other initiator's.
func (t *Target) pmrRegion(init int) []byte {
	region := t.ssds[0].PMRBytes()
	per := (len(region) / t.c.cfg.Initiators / core.EntrySize) * core.EntrySize
	return region[init*per : (init+1)*per]
}

// resetInitiatorState reinitializes ONE initiator's ordering state — its
// PMR log partition and its engine domains (gates, slots, watermarks) —
// leaving every other initiator's untouched.
func (t *Target) resetInitiatorState(init int) {
	t.logs[init] = core.NewLog(t.pmrRegion(init))
	t.logFull[init] = false
	// Wake every appender parked on the old log's space: it notices its log
	// was replaced and drops the dead-incarnation attribute instead of
	// leaking it into the fresh evidence.
	t.logSpace[init].Broadcast()
	t.ord.ResetInitiator(init)
}

// Stats returns the target counters.
func (t *Target) Stats() TargetStats { return t.stats }

// RetiredTo returns the retire watermark of one (initiator, stream)
// ordering domain at this target (0 if it never advanced) — exposed so
// benches and tests can verify per-initiator PMR recycling.
func (t *Target) RetiredTo(init int, stream uint16) uint64 {
	return t.ord.RetiredTo(init, stream)
}

// GateAudit verifies the dense-ServerIdx-chain invariant of every
// in-order submission gate via the ordering engine's audit: a parked
// command always waits for a genuine predecessor (its index is strictly
// beyond the gate's frontier). A parked index at or below the frontier
// means the chain skipped or duplicated an entry — exactly the
// corruption that colliding ordering domains (e.g. two initiators
// sharing a gate) would produce. Returns the number of violations (0 on
// a healthy target).
func (t *Target) GateAudit() int { return t.ord.Audit() }

// SSD returns device i of this target.
func (t *Target) SSD(i int) *ssd.SSD { return t.ssds[i] }

// Alive reports whether the server is powered.
func (t *Target) Alive() bool { return t.alive }

// PMRPartition exposes one initiator's PMR log partition on this target
// (inspection tools, tests).
func (t *Target) PMRPartition(init int) []byte { return t.pmrRegion(init) }

// lane returns the (initiator, queue pair) lane.
func (t *Target) lane(init, qp int) *qpLane { return &t.lanes[init*t.c.cfg.QPs+qp] }

// initEpoch returns the current epoch of initiator init (the incarnation
// counter in-flight work is validated against).
func (t *Target) initEpoch(init int) int { return t.c.inits[init].epoch }

// getDone checks a completion event out of the free list.
func (t *Target) getDone() *tDone {
	if n := len(t.doneFree); n > 0 {
		d := t.doneFree[n-1]
		t.doneFree = t.doneFree[:n-1]
		d.free = false
		return d
	}
	d := &tDone{}
	d.cmd.Done, d.cmd.Ctx = t.ssdDone, d
	return d
}

// putDone recycles a consumed completion event and the slot burst it
// owns.
func (t *Target) putDone(d *tDone) {
	if d.free {
		panic("stack: completion event recycled twice")
	}
	t.putSlots(d.slots)
	*d = tDone{cmd: ssd.Command{Done: t.ssdDone, Ctx: d}, free: true}
	if !t.c.poison {
		t.doneFree = append(t.doneFree, d)
	}
}

// onSSDDone is every embedded command's Done: hand the event to the
// completion context, a write's with its stage-tracing stamps.
func (t *Target) onSSDDone(sc *ssd.Command) {
	d := sc.Ctx.(*tDone)
	if d.free {
		panic("stack: SSD completion for a recycled completion event")
	}
	if sc.Op == ssd.OpWrite {
		d.doneAt = t.c.Eng.Now()
		d.satWait = sc.SatWait
	}
	t.doneQ.Push(d)
}

// getSlots checks a PMR slot burst out of the free list (capacity hint
// n: the command's attribute count).
func (t *Target) getSlots(n int) []uint64 {
	if ln := len(t.slotsFree); ln > 0 {
		s := t.slotsFree[ln-1]
		t.slotsFree = t.slotsFree[:ln-1]
		return s[:0]
	}
	return make([]uint64, 0, n)
}

// putSlots returns a slot burst to the free list (nil: none was taken).
func (t *Target) putSlots(s []uint64) {
	if s != nil {
		t.slotsFree = append(t.slotsFree, s[:0])
	}
}

// rxPop takes the next capsule of the lane: the top of the receive context
// of one (initiator, QP). It consumes capsules (two-sided SENDs cost target
// CPU — the asymmetry Lesson 3 is about), fetches non-inline data with
// one-sided READs, and routes commands through the policy-specific
// submission path. The context is a capsule's last reader: every path
// through it ends here, where the capsule goes back to the pool, and so
// does a capsule it drops as stale.
func (x *tctx) rxPop() bool {
	t := x.t
	if x.cp != nil {
		t.c.putCapsule(x.cp)
		x.cp, x.log = nil, nil
	}
	cp, ok := x.l.rxQ.Take(x)
	if !ok {
		return false
	}
	mustBeLive(cp.free, "capsule")
	if cp.epoch != t.initEpoch(x.l.init) || !t.alive {
		t.c.putCapsule(cp)
		return true
	}
	x.cp = cp
	t.stats.Capsules++
	return x.Charge(t.c.costs.RecvMsg, (*tctx).rxRecv)
}

func (x *tctx) rxRecv() bool {
	if len(x.cp.forward) > 0 {
		// Relay route: this is a head capsule — forward the followers'
		// capsules over the relay conns before processing the head's own
		// slice.
		x.t.relayFanOut(x.cp, x.l.init, x.l.qp)
		x.i = 0
		return x.To((*tctx).rxForward)
	}
	return x.To((*tctx).rxCtrl)
}

// rxCtrl is handleCtrl: it persists Horae control-path ordering metadata to
// PMR and acks. This happens before the corresponding data is even
// dispatched at the initiator — the control path is synchronous. The ack
// returns on the queue pair (and connection) the control capsule arrived
// on, so it is reaped by the same shard of the same initiator that posted
// it.
func (x *tctx) rxCtrl() bool {
	if len(x.cp.ctrl) == 0 {
		return x.To((*tctx).rxReask)
	}
	x.i = 0
	return x.To((*tctx).rxCtrlAppend)
}

func (x *tctx) rxCtrlAppend() bool {
	if ctrl := x.cp.ctrl; x.i < len(ctrl) {
		a := ctrl[x.i]
		x.i++
		x.t.stats.CtrlOps++
		return x.appendPMR(a, (*tctx).rxCtrlAppend)
	}
	x.resume = (*tctx).rxCtrlAck
	return x.To((*tctx).rxPersist)
}

// rxCtrlAck acks the control capsule: the ack carries the capsule's
// signal, so the capsule can be recycled while the ack is in flight.
func (x *tctx) rxCtrlAck() bool {
	msg := x.t.c.getMsg(x.l.qp, x.cp.epoch, x.t.id)
	msg.ctrlAck = x.cp.ack
	return x.post(x.l, msg, nvmeof.ResponseSize, (*tctx).rxReask)
}

func (x *tctx) rxReask() bool {
	// Head-cut re-ask, second answer: everything that arrived before it
	// has been taken, so what is still not held never arrived and goes on
	// below as this member's copy.
	if len(x.cp.reask) > 0 && x.t.answerReask(x.l, x.cp) {
		return x.flushOrArm(x.l, (*tctx).rxCheck)
	}
	return x.To((*tctx).rxCheck)
}

func (x *tctx) rxCheck() bool {
	t, cp := x.t, x.cp
	// A command capsule is one member's copy of a batch: verify dispatch
	// split it exactly on a set boundary — every entry is addressed to
	// this member of the set the command stripes to.
	for i, ws := range cp.cmds {
		if cp.member != t.id || t.c.setOf[t.id] != ws.target || ws.q.Pos(cp.member) < 0 {
			panic(fmt.Sprintf("stack: vectored batch misrouted: entry %d for set %d member %d arrived at target %d",
				i, ws.target, cp.member, t.id))
		}
	}
	// Fetch any non-inline payload in one shot (one-sided READ: no
	// initiator CPU).
	x.bytes, x.i = 0, 0
	for _, ws := range cp.cmds {
		if !ws.wc.Flush && ws.wc.InlineBytes(inlineThreshold) == 0 {
			x.bytes += ws.wc.PayloadBytes()
		}
	}
	if x.bytes > 0 {
		return x.To((*tctx).rxFetch)
	}
	return x.To((*tctx).rxCmd)
}

func (x *tctx) rxFetch() bool {
	if !x.t.conns[x.l.init].BulkRead(x, &x.bulk, fabric.Target, x.bytes) {
		return false
	}
	if !x.bulk.OK() {
		return x.To((*tctx).rxPop) // connection died mid-read
	}
	return x.To((*tctx).rxCmd)
}

// rxCmd walks the capsule's commands, then the parked successors a
// submission took (rxSubmitted), in gate order: an ordered command the
// gate admits appends its attributes to the burst, and so does every
// parked successor it releases (rioAttr); any other command just joins
// the burst. The walk ends in the burst's one read-back (rxPersist).
func (x *tctx) rxCmd() bool {
	t, cp := x.t, x.cp
	if x.i < len(cp.cmds) {
		ws := cp.cmds[x.i]
		if !t.alive || ws.epoch != t.initEpoch(x.l.init) {
			return x.dropBurst()
		}
		x.i++
		t.stats.Commands++
		x.arrived(ws)
		if !ws.wc.Flush && ws.wc.Ordered && t.pol.Gated() {
			return x.rioAdmit(ws, ws.chain[ws.q.Pos(cp.member)].attrs)
		}
		x.run = append(x.run, burstCmd{ws: ws})
		return x.To((*tctx).rxCmd)
	}
	if x.li < len(x.later) {
		p := x.later[x.li]
		x.li++
		return x.rioProcess(p.ws, p.attrs, t.ord.Domain(int(p.attrs[0].Initiator), p.attrs[0].Stream))
	}
	x.later, x.li = x.later[:0], 0
	if len(x.run) == 0 {
		return x.To((*tctx).rxPop)
	}
	x.resume = (*tctx).rxCmd
	return x.To((*tctx).rxPersist)
}

// arrived records where a command came from as the walk reaches it: its
// transit stamps and, on a relayed copy, the route its completion takes
// to the head (before submission, so the completion cannot outrun it).
func (x *tctx) arrived(ws *wireState) {
	cp := x.cp
	if cp.relayed {
		// The relay conn restamped sentAt at the head's forward, so
		// it marks the relay hop, not the initiator send (which the
		// head capsule's MSent records).
		markWire(ws, trace.MRelayed, cp.sentAt)
		markWire(ws, trace.MRxDeliver, cp.deliveredAt)
		x.t.relay.pend[ws.init].Put(ws.id, relayRoute{qp: x.l.qp, epoch: cp.epoch})
		x.t.relay.recount()
		return
	}
	// A direct capsule has no relay hop: MRelayed at delivery makes
	// the relay stage zero-width and leaves the transit to wire.
	markWire(ws, trace.MSent, cp.sentAt)
	markWire(ws, trace.MRelayed, cp.deliveredAt)
	markWire(ws, trace.MRxDeliver, cp.deliveredAt)
}

// rioAdmit enforces per-(initiator, stream) in-order submission (§4.3.1):
// a request may only go to the SSD after every smaller ServerIdx of its
// ordering domain has. attrs is this member's chain of the command —
// every member of a set runs its own dense chain, so the gate's invariant
// holds per replica independently. A command ahead of the context's
// frontier parks — even with stream→QP affinity, once a stream spans two
// targets: a dispatch posts its per-target batches one by one, so two
// dispatches can reach a target in the reverse of their mint order (8.8 %
// of blk_rand4k's commands park, 23.5 % of kv_mixed's; ROADMAP item 21).
func (x *tctx) rioAdmit(ws *wireState, attrs []core.Attr) bool {
	t := x.t
	d := t.ord.Domain(int(attrs[0].Initiator), attrs[0].Stream)
	if attrs[0].ServerIdx != x.frontier(d) {
		t.stats.Holdbacks++
		d.Park(attrs[0].ServerIdx, parkedCmd{ws: ws, attrs: attrs, at: t.c.Eng.Now()})
		return x.To((*tctx).rxCmd)
	}
	return x.rioProcess(ws, attrs, d)
}

// frontier is domain d's next index as this context sees it: past the
// last command of d its burst holds, else the gate's. The gate moves only
// at submission, so another lane never admits a successor of a command
// in the burst: it parks, and this context takes it.
func (x *tctx) frontier(d *order.Domain[parkedCmd]) uint64 {
	for k := len(x.run) - 1; k >= 0; k-- {
		if e := &x.run[k]; e.dom == d {
			return e.attrs[len(e.attrs)-1].ServerIdx + 1
		}
	}
	return d.Frontier()
}

func (x *tctx) rioProcess(ws *wireState, attrs []core.Attr, d *order.Domain[parkedCmd]) bool {
	x.cur = burstCmd{ws: ws, attrs: attrs, slots: x.t.getSlots(len(attrs)), dom: d, start: x.t.c.Eng.Now()}
	return x.To((*tctx).rioAttr)
}

// rioAttr appends the command's next attribute; once all are, the command
// joins the burst and its parked successor, if any, follows it.
func (x *tctx) rioAttr() bool {
	c := x.cur
	if n := len(c.slots); n < len(c.attrs) {
		return x.appendPMR(c.attrs[n], (*tctx).rioAttr)
	}
	x.run, x.cur = append(x.run, c), burstCmd{}
	next, ok := c.dom.TakeAt(c.attrs[len(c.attrs)-1].ServerIdx + 1)
	if !ok {
		return x.To((*tctx).rxCmd)
	}
	addWaitWire(next.ws, trace.WaitPark, x.t.c.Eng.Now()-next.at)
	return x.rioProcess(next.ws, next.attrs, c.dom)
}

// appendPMR appends one ordering attribute (step 5 of Fig. 4) to the
// burst in the owning initiator's log partition, records its slot in the
// attribute's engine domain (completions and retirement find it there
// without hashing) and in the command the walk is at, if any, and returns
// to ret. The core is held from the burst's first append to the end of its
// read-back (rxPersist): while x.pending > 0. A full partition parks the
// append — backpressure on one initiator's log never stalls another
// initiator's appends — once what the burst holds is read back and
// submitted, so a burst never waits on space only its own submissions
// could free. A power cut, or a FORMAT of the partition (its owner
// crash-recovered and the log object was replaced) while the append
// waited, drops the burst (dropBurst): it belongs to a dead incarnation
// and must not leak into fresh evidence.
func (x *tctx) appendPMR(a core.Attr, ret tstep) bool {
	x.a, x.Ret = a, ret
	if x.log == nil {
		x.log = x.t.logs[a.Initiator]
	}
	if x.pending > 0 {
		return x.pmrIssue()
	}
	return x.Acquire((*tctx).pmrIssue)
}

func (x *tctx) pmrIssue() bool { return x.Sleep(x.t.c.costs.PMRAppendCPU, (*tctx).pmrAppend) }

func (x *tctx) pmrAppend() bool {
	t, a := x.t, x.a
	if !t.alive || t.logs[a.Initiator] != x.log {
		t.cores.Release()
		x.pending = 0
		return x.dropBurst()
	}
	if slot, ok := x.log.Append(a); ok {
		t.ord.Domain(int(a.Initiator), a.Stream).RecordSlot(a.ServerIdx, slot)
		if x.cur.ws != nil {
			x.cur.slots = append(x.cur.slots, slot)
		}
		x.pending++
		return x.Back()
	}
	if x.pending > 0 {
		x.resume = (*tctx).pmrRetry
		return x.To((*tctx).rxPersist)
	}
	// Log full: wait for retirement (backpressure). Rio's watermarks travel
	// on the owner's command capsules, and an owner with nothing more to
	// post would never send them, so ask for them: the lane's next
	// response capsule carries the logFull mark (flushCQEs), shipped
	// without a CQE if none is pending. The initiator answers with the
	// watermarks no capsule has carried yet (sendRetires). Each retirement
	// clears logFull and wakes the parked appends, so one that finds the
	// log still full (the head entry is not retired yet) asks again.
	t.cores.Release()
	t.stats.PMRFull++
	if init := int(a.Initiator); t.pol.Gated() && !t.logFull[init] {
		t.logFull[init] = true
		l := t.lane(init, x.l.qp)
		l.askRetires = true
		t.routeFlush(l)
	}
	x.To((*tctx).pmrRetry)
	return t.logSpace[a.Initiator].Wait(x)
}

func (x *tctx) pmrRetry() bool { return x.Acquire((*tctx).pmrAppend) }

// rxPersist reads the burst back: one PMRWriteLat, the core still held,
// makes every attribute appended since the last read-back durable (a
// non-posted read flushes the posted writes before it:
// ssd.Config.PMRWriteLat is one MMIO burst's). rxSubmit then submits.
func (x *tctx) rxPersist() bool {
	if x.pending == 0 {
		return x.To((*tctx).rxSubmit)
	}
	return x.Sleep(x.t.ssds[0].PMRWriteLat(), (*tctx).rxPersisted)
}

func (x *tctx) rxPersisted() bool {
	t := x.t
	if !t.alive || t.logs[x.a.Initiator] != x.log {
		return x.dropBurst()
	}
	t.cores.Release()
	t.stats.PMRAppends += int64(x.pending)
	x.pending = 0
	for _, e := range x.run {
		if e.attrs != nil {
			addWaitWire(e.ws, trace.WaitPMR, t.c.Eng.Now()-e.start)
		}
	}
	return x.To((*tctx).rxSubmit)
}

// rxSubmit charges CmdProcess per command of the burst, in walk order,
// and submits it (an ordered one moves its gate first), then goes on at
// x.resume.
func (x *tctx) rxSubmit() bool {
	t := x.t
	if x.sub == len(x.run) {
		clear(x.run)
		x.run, x.sub = x.run[:0], 0
		return x.To(x.resume)
	}
	if ws := x.run[x.sub].ws; !t.alive || ws.epoch != t.initEpoch(x.l.init) {
		return x.dropBurst()
	}
	return x.Charge(t.c.costs.CmdProcess, (*tctx).rxSubmitted)
}

func (x *tctx) rxSubmitted() bool {
	t, e := x.t, &x.run[x.sub]
	x.sub++
	switch {
	case e.ws.wc.Flush:
		t.submitFlushCmd(e.ws)
	case e.attrs == nil:
		t.submitWrite(e.ws, t.horaeSlot(e.ws))
	default:
		e.dom.Advance(e.attrs[len(e.attrs)-1].ServerIdx)
		t.submitWrite(e.ws, e.slots)
		// A successor another lane parked behind the burst is this
		// context's to submit, in its next burst.
		if next, ok := e.dom.TakeNext(); ok {
			addWaitWire(next.ws, trace.WaitPark, t.c.Eng.Now()-next.at)
			x.later = append(x.later, next)
		}
	}
	return x.To((*tctx).rxSubmit)
}

// dropBurst abandons the capsule and the burst to a dead incarnation (a
// power cut, or the owner's crash and its partition's format): no command
// of the burst not yet submitted ever is. Its appended entries stay in the
// partition with no write behind them, as a cut mid-persist leaves one.
func (x *tctx) dropBurst() bool {
	t := x.t
	if x.pending > 0 {
		t.cores.Release()
	}
	// The slot lists of the commands not submitted go back to the pool.
	for _, e := range x.run[x.sub:] {
		t.putSlots(e.slots)
	}
	t.putSlots(x.cur.slots)
	clear(x.run)
	clear(x.later)
	x.run, x.later, x.sub, x.li, x.cur, x.pending = x.run[:0], x.later[:0], 0, 0, burstCmd{}, 0
	return x.To((*tctx).rxPop)
}

// horaeSlot looks up the control-path entry of every constituent of a Horae
// data command (wc.Attr, then the attributes fused into it): completion or
// the command's barrier certifies them all.
func (t *Target) horaeSlot(ws *wireState) []uint64 {
	if !t.pol.ControlPersisted() || !ws.wc.Ordered {
		return nil
	}
	slots := t.getSlots(1 + len(ws.more))
	add := func(a core.Attr) {
		if slot, ok := t.ord.Domain(int(a.Initiator), a.Stream).Slot(a.ServerIdx); ok {
			slots = append(slots, slot)
		}
	}
	add(ws.wc.Attr)
	for _, a := range ws.more {
		add(a)
	}
	return slots
}

// submitWrite hands a write to its SSD, each block under the identity the
// initiator gave it (buildWires); the completion flows to the completion
// context (cplPop). The device reads the command's stamps until it
// completes, and the wire command outlives every member's completion.
func (t *Target) submitWrite(ws *wireState, slots []uint64) {
	d := t.getDone()
	d.ws, d.slots, d.epoch = ws, slots, t.initEpoch(ws.init)
	t.lane(ws.init, ws.qp).inflight++
	markWire(ws, trace.MSSDSubmit, t.c.Eng.Now())
	d.cmd.Op, d.cmd.LBA, d.cmd.Blocks = ssd.OpWrite, ws.wc.LBA, ws.wc.Blocks
	d.cmd.Stamps, d.cmd.Data = ws.wc.Stamps, ws.wc.Data
	t.ssds[ws.ssdIdx].Submit(&d.cmd)
}

func (t *Target) submitFlushCmd(ws *wireState) {
	d := t.getDone()
	d.ws, d.epoch = ws, t.initEpoch(ws.init)
	t.lane(ws.init, ws.qp).inflight++
	t.stats.Flushes++
	d.cmd.Op = ssd.OpFlush
	t.ssds[ws.ssdIdx].Submit(&d.cmd)
}

// cplPop takes the next event of the target completion context:
// persist-bit maintenance (step 7), durability barriers for flush-carrying
// ordered writes, and completion responses back to the initiators. Consumed
// events and their slot bursts recycle through the free lists, in cplEnd
// (a barrier that followed a FLUSH's leader, in certified).
func (x *tctx) cplPop() bool {
	d, ok := x.t.doneQ.Take(x)
	if !ok {
		return false
	}
	if d.free {
		panic("stack: recycled completion event in the completion queue")
	}
	x.d = d
	return x.doneOne()
}

func (x *tctx) cplEnd() bool {
	x.t.putDone(x.d)
	x.d = nil
	return x.To((*tctx).cplPop)
}

// doneOne handles one completion-context event. The completion context
// waits for CPU grants, so a power cut (and even the subsequent recovery)
// can land MID-EVENT: the target incarnation is captured on entry and
// re-validated after every wait — a straddling event must neither toggle
// persist bits in the freshly formatted logs nor ack a wiped write into the
// next incarnation (it must stay outstanding so target recovery replays
// it).
func (x *tctx) doneOne() bool {
	t, d := x.t, x.d
	if !t.alive {
		return x.To((*tctx).cplEnd)
	}
	x.tEpoch = t.epoch
	if d.lane != nil {
		// CQE hold-timer expiry: flush the pending response capsule.
		if d.lane.init == headLane || d.epoch == t.initEpoch(d.lane.init) {
			return x.flushCQEs(d.lane, (*tctx).cplEnd)
		}
		return x.To((*tctx).cplEnd)
	}
	if d.epoch != t.initEpoch(d.ws.init) && !d.isFlush {
		return x.To((*tctx).cplEnd) // a barrier FLUSH may serve several initiators: flushDone checks each
	}
	return x.Charge(t.c.costs.CplHandle, (*tctx).cplHandled)
}

func (x *tctx) cplHandled() bool {
	t, d := x.t, x.d
	if d.isFlush {
		return x.flushDone()
	}
	if d.doneAt > 0 {
		markWire(d.ws, trace.MSSDDone, d.doneAt)
		addWaitWire(d.ws, trace.WaitSat, d.satWait)
	}
	ordered := d.ws.wc.Ordered && t.pol.Tracked()
	plp := t.ssds[d.ws.ssdIdx].HasPLP()
	init := d.ws.init

	if !ordered || d.ws.wc.Flush {
		return x.respond(d.ws, (*tctx).cplEnd)
	}

	attrFlush := t.orderedFlushWanted(d.ws)
	switch {
	case plp:
		// Completion implies durability: toggle persist now.
		x.b, x.k = d, 0
		return x.To((*tctx).persist)
	case attrFlush:
		// The group's durability barrier: drain the device, then mark. A cut
		// during the wait above cleared the combiners: stay outstanding for replay.
		if !t.alive || t.epoch != x.tEpoch {
			return x.To((*tctx).cplEnd)
		}
		// The carrier's record is its barrier, slots and all, until the
		// FLUSH that covers it is served.
		d.isFlush = true
		fc := &t.flushers[d.ws.ssdIdx]
		tail := &fc.wait
		for *tail != nil {
			tail = &(*tail).next
		}
		*tail = d
		if !fc.busy { // idle device: a lone commit costs exactly its own FLUSH
			t.submitBarriers(d.ws.ssdIdx)
		}
		x.d = nil
		return x.To((*tctx).cplPop)
	default:
		// Non-PLP, no flush: leave persist=0 (a later FLUSH-carrying
		// entry certifies it during recovery, §4.3.2).
		if t.pol.CertifyPeers() {
			for _, s := range d.slots {
				t.ord.AddUnflushed(d.ws.ssdIdx, order.SlotRef{Init: init, Slot: s, Epoch: d.epoch})
			}
		}
		return x.respond(d.ws, (*tctx).cplEnd)
	}
}

// submitBarriers sends every barrier waiting at a device as ONE FLUSH, led
// by the first. The invariant that makes sharing safe: this runs no earlier
// than each covered barrier's own FLUSH would have been submitted (after its
// carrier's completion was processed), and a FLUSH covers every write that
// completed before its submission (a flash FLUSH drains to dirty == 0 with
// landings blocked) — so it drains a superset of what each own FLUSH would.
func (t *Target) submitBarriers(ssdIdx int) {
	fc := &t.flushers[ssdIdx]
	lead := fc.wait
	fc.wait, fc.busy = nil, lead != nil
	if lead == nil {
		return
	}
	if t.pol.CertifyPeers() { // a FLUSH drains every initiator's writes on the device
		lead.flushSlots = t.ord.TakeUnflushed(ssdIdx)
	}
	t.stats.Flushes++
	lead.cmd = ssd.Command{Op: ssd.OpFlush, Done: t.ssdDone, Ctx: lead} // drops the write's payload
	t.ssds[ssdIdx].Submit(&lead.cmd)
}

// flushDone handles the completion of the FLUSH that barrier d led, after its
// one CplHandle: the next FLUSH for whatever queued meanwhile, then every
// covered barrier on its own terms — its own initiator's epoch (a dead leader
// still serves the others), its own persist toggles, its own CQE.
func (x *tctx) flushDone() bool {
	t := x.t
	if !t.alive || t.epoch != x.tEpoch {
		return x.To((*tctx).cplEnd) // cut mid-wait: the combiners belong to the next incarnation
	}
	t.submitBarriers(x.d.ws.ssdIdx)
	x.k = 0
	return x.To((*tctx).flushCertify)
}

func (x *tctx) flushCertify() bool {
	t, d := x.t, x.d
	for x.k < len(d.flushSlots) {
		s := d.flushSlots[x.k]
		x.k++
		// A certified slot may belong to ANOTHER initiator: skip it if that one
		// crashed (and possibly reformatted its partition) while the FLUSH ran.
		if s.Epoch == t.initEpoch(s.Init) {
			return x.markPersist(s.Init, s.Slot, s.Epoch, (*tctx).flushCertify)
		}
	}
	x.b = d
	return x.To((*tctx).certify)
}

// certify serves record x.b and the records linked behind it: the barriers
// one FLUSH covered, leader first, each on its own initiator's epoch (a
// dead leader still serves the others).
func (x *tctx) certify() bool {
	b := x.b
	if b == nil {
		return x.To((*tctx).cplEnd)
	}
	if b.epoch != x.t.initEpoch(b.ws.init) {
		return x.To((*tctx).certified)
	}
	x.k = 0
	return x.To((*tctx).persist)
}

// persist is the one persist walk: it toggles every PMR entry of record
// x.b, then queues its CQE — a PLP write at its completion, a barrier once
// its FLUSH is served.
func (x *tctx) persist() bool {
	b := x.b
	if x.k < len(b.slots) {
		s := b.slots[x.k]
		x.k++
		return x.markPersist(b.ws.init, s, b.epoch, (*tctx).persist)
	}
	if b.isFlush {
		x.t.stats.Barriers++
	}
	return x.respond(b.ws, (*tctx).certified)
}

// certified goes on to the next record, recycling a served barrier behind
// the leader (cplEnd recycles the record the context took).
func (x *tctx) certified() bool {
	b := x.b
	if x.b = b.next; b != x.d {
		x.t.putDone(b)
	}
	return x.To((*tctx).certify)
}

// orderedFlushWanted reports whether this ordered command carries the
// group durability barrier.
func (t *Target) orderedFlushWanted(ws *wireState) bool {
	if ws.wc.Attr.Flush {
		return true
	}
	for _, a := range ws.more {
		if a.Flush {
			return true
		}
	}
	return false
}

// markPersist toggles one entry's persist bit and returns to ret. The CPU
// grant waits, so the target incarnation (tEpoch) and the slot owner's
// incarnation (initEpoch) are re-validated before touching the log: a
// toggle that straddled a crash+recovery would otherwise write into a
// freshly formatted partition whose slot ids it no longer owns.
func (x *tctx) markPersist(init int, slot uint64, initEpoch int, ret tstep) bool {
	x.mark, x.Ret = order.SlotRef{Init: init, Slot: slot, Epoch: initEpoch}, ret
	return x.Charge(x.t.c.costs.PMRToggleCPU, (*tctx).persistMarked)
}

func (x *tctx) persistMarked() bool {
	t, m := x.t, x.mark
	if t.alive && t.epoch == x.tEpoch && t.initEpoch(m.Init) == m.Epoch {
		t.logs[m.Init].MarkPersist(m.Slot)
		t.stats.PMRToggles++
	}
	return x.Back()
}

// respond queues one completion toward the owning initiator and returns to
// ret: the CQE joins its lane's pending response capsule, flushed when
// CQEBatch entries accumulate or the hold timer expires (flushOrArm), or
// when commit says so.
func (x *tctx) respond(ws *wireState, ret tstep) bool {
	t := x.t
	if !t.alive || t.epoch != x.tEpoch {
		// A completion context that was mid-iteration when the power cut
		// hit must not touch coalescing state crash cleanup just cleared
		// — not even after a recovery revived the target (t.epoch moved):
		// the response died with the NIC, and acking a write the cut
		// wiped into the next incarnation would falsely complete it —
		// the command must stay outstanding so recovery replays it.
		return x.To(ret)
	}
	l := t.lane(ws.init, ws.qp)
	if l.inflight > 0 {
		l.inflight--
	}
	if t.gov.observe(t.c.Eng.Now()) {
		t.stats.GovSwitches++
	}
	// own is the lane the completion joins: its (initiator, QP) lane, or,
	// on the relay route, a follower's ack lane toward the head; at the
	// head, a relayed command's own completion feeds its quorum record
	// instead (the aggregated CQE carries the command id), and joins l only
	// if that fires it (own is nil otherwise).
	own, mark := l, heldOnLane
	if t.relay != nil && t.relayRespond(ws) {
		own, mark = &t.relay.out, heldOnAck
	} else if as := t.openAgg(ws); as != nil {
		own = t.ackMember(aggKey{ws.init, ws.id}, as, t.id)
	} else {
		l.push(cplEntry{init: ws.init, qp: ws.qp, id: ws.id, epoch: ws.epoch})
	}
	return x.commit(ws, own, mark, ret)
}

// Marks a held completion leaves at its domain's completion frontier
// (order.Domain.Respond): the lane it waits on.
const (
	heldOnLane uint8 = 1 << iota // its command's (initiator, QP) lane
	heldOnAck                    // the follower's ack lane toward its set head
)

// commit moves the completion frontier of a gated ordered command's domain
// as it responds, then applies the flush rule to own (the lane the
// completion joined, nil for none) and returns to ret. When its stream
// keeps to one QP, commit order decides two things before the usual rule
// (flushOrArm), whatever the quorum:
//
//   - a completion behind an older, unresponded command of its domain is
//     held: it arms no hold timer (it still ships on a full batch, an idle
//     lane or any other flush of its lane), since the initiator cannot
//     deliver it before that older one anyway; on a majority set other
//     members' CQEs may let it deliver before this member's older one
//     arrives, so there a hold can delay delivery, which the capsules it
//     saves outweigh;
//   - a completion that moves the frontier past held ones flushes their
//     lane at once: its own, inline; another (its route differs from
//     theirs: a head's quorum record took it, or it left the relay route),
//     through routeFlush.
//
// Anything else — an unordered write, a FLUSH, a stream spread over QPs,
// Horae and Linux — keeps the flush rule alone.
func (x *tctx) commit(ws *wireState, own *qpLane, mark uint8, ret tstep) bool {
	t := x.t
	if !ws.wc.Ordered || ws.wc.Flush || !t.pol.Gated() {
		return x.flushOrArm(own, ret)
	}
	attrs := ws.chain[ws.q.Pos(t.id)].attrs
	d := t.ord.Domain(ws.init, attrs[0].Stream)
	first := attrs[0].ServerIdx
	hold := own != nil && t.c.cfg.StreamAffinity && d.Behind(first)
	held := uint8(0)
	if hold {
		held = mark
		own.held++
		t.stats.HeldCQEs++
	}
	passed := d.Respond(first, attrs[len(attrs)-1].ServerIdx, held)
	if l := t.lane(ws.init, ws.qp); passed&heldOnLane != 0 && l != own && l.held > 0 {
		t.routeFlush(l)
	}
	if passed&heldOnAck != 0 && &t.relay.out != own && t.relay.out.held > 0 {
		t.routeFlush(&t.relay.out)
	}
	if own != nil && passed&mark != 0 {
		return x.flushCQEs(own, ret)
	}
	return x.flushOrArm(own, ret)
}

// flushOrArm applies the response flush policy to one lane's pending
// batch, then returns to ret: ship when the capsule is full — or when the
// queue pair has no command left in flight, so a CQE only ever waits while
// more completions are coming to amortize against and an idle QP responds
// immediately (no hold-timer latency on the application's critical path).
// Otherwise the hold timer is the backstop for commands that stay in
// flight longer than the hold — for entries not held (commit). A nil lane
// (the completion joined none) just returns to ret.
func (x *tctx) flushOrArm(l *qpLane, ret tstep) bool {
	t := x.t
	switch {
	case l == nil:
	case len(l.entries) >= t.gov.batch() || l.inflight == 0:
		return x.flushCQEs(l, ret)
	case !l.armed && l.backed():
		t.armCQETimer(l, t.gov.hold())
	}
	return x.To(ret)
}

// cqeTimer is one hold-timer event of a lane, armed under target
// incarnation epoch. Only the event queue holds it: it recycles as it fires.
type cqeTimer struct {
	l     *qpLane
	epoch int
}

// armCQETimer schedules a hold-timer check for one lane's pending response
// capsule. Engine events cannot be cancelled, so the timer checks batch age
// when it fires: a batch younger than the hold (the one this timer was
// armed for was consumed by a threshold flush) re-arms for the remainder
// instead of shipping early, keeping occupancy honest.
func (t *Target) armCQETimer(l *qpLane, d sim.Time) {
	l.armed = true
	tm := t.timerFree.Get()
	tm.l, tm.epoch = l, t.epoch
	t.c.Eng.Schedule(d, tm)
}

func (tm *cqeTimer) Run() {
	l, epoch := tm.l, tm.epoch
	t := l.t
	t.timerFree.Put(tm)
	// This timer event is spent, whatever happens next: the armed
	// flag must never be true without a live timer behind it, or a
	// sub-threshold batch strands forever (the deadlock is real — a
	// replayed command's hwDone would never fire). A stale timer
	// clearing the flag while a younger chain is live only costs a
	// redundant re-arm on the next completion.
	l.armed = false
	if epoch != t.epoch || !t.alive {
		return
	}
	if !l.backed() {
		// Held entries wait for their release (commit). Resolution
		// records pending beside them or on an idle QP (relay route) ship
		// now, so the initiator reaches full resolution without waiting
		// for unrelated completions.
		if len(l.resolved) == 0 {
			return
		}
	} else if wait := l.first + t.gov.hold() - t.c.Eng.Now(); wait > 0 {
		// The batch this timer was armed for was consumed by a
		// threshold flush; re-arm for the younger one now pending.
		t.armCQETimer(l, wait)
		return
	}
	t.routeFlush(l)
}

// routeFlush asks the completion context to flush one lane's pending
// response capsule: timers and crash sweeps run in engine context, where
// no CPU can be charged.
func (t *Target) routeFlush(l *qpLane) {
	fd := t.getDone()
	fd.lane = l
	if l.init != headLane { // an ack lane's entries each carry their own epoch
		fd.epoch = t.initEpoch(l.init)
	}
	t.doneQ.Push(fd)
}

// flushCQEs ships one lane's pending completions as a single vectored
// response capsule, then returns to ret: one shared framing, one PostMsg,
// each entry naming its command by id — CQEs toward an initiator, or, on a
// follower's ack lane, acks toward its set head (a lane carries one kind
// only). A batch of one needs no vector framing and ships as a bare
// 16-byte capsule.
func (x *tctx) flushCQEs(l *qpLane, ret tstep) bool {
	t := x.t
	if len(l.entries) == 0 && len(l.resolved) == 0 && !l.askRetires {
		return x.To(ret)
	}
	// Detach before charging CPU: the charge waits, and the other
	// completion context may append (or flush) meanwhile. The lane swaps
	// its buffers with the message's empty ones.
	msg := t.c.getMsg(l.qp, 0, t.id)
	msg.entries, l.entries = l.entries, msg.entries
	msg.resolved, l.resolved = l.resolved, msg.resolved
	msg.logFull, l.askRetires = l.askRetires, false
	l.held = 0
	if len(msg.entries) > 0 {
		msg.epoch = msg.entries[0].epoch // the oldest entry's
	} else {
		// Resolution-only or log-full capsule (never an ack lane's): no
		// entry names the epoch, so stamp the initiator's current one.
		msg.epoch = t.initEpoch(l.init)
	}
	size := nvmeof.ResponseSize
	if n := len(msg.entries); n > 1 {
		size = nvmeof.CQEVectorCapsuleSize(n)
	}
	size += len(msg.resolved) * nvmeof.ResponseSize
	return x.post(l, msg, size, ret)
}

// post is the one step every message a target sends takes (response
// capsules, Horae control acks and log-full asks to an initiator; a
// follower's ack capsules to its head): it charges PostMsg, then sends msg,
// size bytes, on lane l's queue pair — to l's initiator, or, from an ack
// lane, to the set head — and returns to ret. A power cut during the
// charge drops the message with the NIC.
func (x *tctx) post(l *qpLane, msg *completionMsg, size int, ret tstep) bool {
	x.out, x.outLane, x.outSize, x.Ret = msg, l, size, ret
	return x.Charge(x.t.c.costs.PostMsg, (*tctx).posted)
}

func (x *tctx) posted() bool {
	t, l, msg := x.t, x.outLane, x.out
	x.out, x.outLane = nil, nil
	if !t.alive { // power cut while posting: the capsule dies with the NIC
		t.c.putMsg(msg)
		return x.Back()
	}
	m := fabric.Message{QP: l.qp, Size: x.outSize, Payload: msg}
	if l.init == headLane {
		t.stats.RelayAckMsgs++
		t.headConn().Send(fabric.Target, m)
	} else {
		t.stats.Responses++
		t.stats.CQEs += int64(len(msg.entries))
		t.conns[l.init].Send(fabric.Target, m)
	}
	return x.Back()
}

// retireUpTo recycles PMR entries whose completions the owning initiator
// has delivered (head-pointer advance of §4.3.2). Watermarks are per
// ordering domain: one initiator retiring entries frees space only in
// its own log partition.
func (t *Target) retireUpTo(init int, stream uint16, upTo uint64) {
	d := t.ord.Domain(init, stream)
	log := t.logs[init]
	if d.RetireUpTo(upTo, func(slot uint64) { log.Retire(slot) }) {
		t.logFull[init] = false
		t.logSpace[init].Broadcast()
	}
}
