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
	PMRToggles int64
	Responses  int64 // response capsules sent (coalescing lowers this)
	CQEs       int64 // completion entries those capsules carried
	Flushes    int64 // device FLUSHes issued
	Barriers   int64 // flush barriers certified (a combined FLUSH certifies several)
	Vectors    int64 // vectored command batches validated intact
	Reads      int64 // read commands served (demand misses and prefetches)

	// GovSwitches counts adaptive-governor operating-point transitions on
	// this target (0 with the governor disabled).
	GovSwitches int64

	// Replication fast-path counters (all 0 unless cfg.ReplRelay):
	// Relays counts relayed capsules this target forwarded to followers as
	// a set head, RelayAcks counts completions this target routed to its
	// head instead of the initiator, AggFires counts aggregated CQEs
	// emitted at quorum (or flushed by a degrade).
	Relays    int64
	RelayAcks int64
	AggFires  int64
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
	// isFlush marks the durability barrier of a flush-carrying ordered write
	// (ws is that write); next links the barriers one FLUSH covers, leader first.
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
// command). It is the payload type the ordering engine's parked rings hold
// for this target.
type parkedCmd struct {
	ws    *wireState
	attrs []core.Attr
}

// qpLane is everything a target holds for one (initiator, queue pair): the
// receive queue its rx worker drains serially and the response capsule being
// coalesced toward that initiator on that QP. One record per lane means
// a link death clears it in one place (reset): the pending CQEs belong to
// the dead epoch and must never be flushed into the next incarnation, and
// the armed flag must go with them — left set, it would strand the next
// incarnation's sub-threshold batch with no timer behind it.
type qpLane struct {
	t        *Target
	init, qp int
	rxQ      *sim.Queue[*capsule]

	// The pending response capsule. cqeT (the instant each CQE entered the
	// buffer; stays nil with the tracer off) and agg (relay annotations;
	// stays nil unless cfg.ReplRelay) are parallel to cqes; resolved holds
	// the late-ack records the capsule will piggyback (relay route).
	cqes     []nvmeof.CQE
	cqeT     []sim.Time
	agg      []aggCQE
	resolved []aggResolved
	epoch    int      // initiator epoch the oldest pending CQE was minted under
	first    sim.Time // when it entered: the hold timer ships a batch only once it is cqeHold old
	armed    bool     // a hold-timer event is outstanding
	inflight int      // commands submitted to an SSD and not yet responded
}

// push appends one CQE (and its parallel stamps) to the pending response
// capsule; the first entry of a batch mints the capsule's epoch and age.
func (l *qpLane) push(id uint64, epoch int, a aggCQE) {
	now := l.t.c.Eng.Now()
	if len(l.cqes) == 0 {
		l.epoch, l.first = epoch, now
	}
	l.cqes = append(l.cqes, nvmeof.NewCQE(id))
	if l.t.relay != nil {
		l.agg = append(l.agg, a)
	}
	if l.t.c.tracer != nil {
		l.cqeT = append(l.cqeT, now)
	}
}

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

	// gov, when non-nil, adapts the CQE hold time and flush threshold to
	// the completion arrival rate (one EWMA per target; see governor.go).
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
	if c.cfg.Governor.Enabled {
		t.gov = newGovernor(c.cfg.Governor, c.Eng.Now())
	}
	t.ord = order.NewEngine[parkedCmd](t.pol, nInit, c.cfg.Streams, len(t.ssds), c.cfg.MaxPlug)
	for i := 0; i < nInit; i++ {
		t.logs = append(t.logs, core.NewLog(t.pmrRegion(i)))
		t.logSpace = append(t.logSpace, sim.NewCond(c.Eng))
	}
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

// putDone recycles a consumed completion event and any slot burst it
// still owns (an event that handed its slots on — the flush-barrier path —
// cleared them first).
func (t *Target) putDone(d *tDone) {
	if d.free {
		panic("stack: completion event recycled twice")
	}
	if d.slots != nil {
		t.slotsFree = append(t.slotsFree, d.slots[:0])
	}
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
		x.cp = nil
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
		cr := ctrl[x.i]
		x.i++
		x.t.stats.CtrlOps++
		return x.appendPMR(cr.attr, (*tctx).rxCtrlAppend)
	}
	return x.Charge(x.t.c.costs.PostMsg, (*tctx).rxCtrlAck)
}

// rxCtrlAck acks the control entries: the ack takes the capsule's ctrl
// list (and leaves it the message's empty one), so the capsule can be
// recycled while the ack is in flight.
func (x *tctx) rxCtrlAck() bool {
	t, cp, qp := x.t, x.cp, x.l.qp
	t.stats.Responses++
	msg := t.c.getMsg(qp, cp.epoch, t.id)
	msg.ctrlAcks, cp.ctrl = cp.ctrl, msg.ctrlAcks
	t.conns[x.l.init].Send(fabric.Target, fabric.Message{QP: qp, Size: nvmeof.ResponseSize, Payload: msg})
	return x.To((*tctx).rxReask)
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
	// A command capsule is one member's copy of a vectored batch: verify
	// it arrived intact and was split exactly on a set boundary — every
	// entry is addressed to this member of the set the command stripes
	// to, and the member's SQEs run positions 0..n-1. (A re-ask is not a
	// vectored batch: its SQEs keep the marks of the capsule that first
	// carried them.)
	for i, ws := range cp.cmds {
		k := ws.q.Pos(cp.member)
		if cp.member != t.id || t.c.setOf[t.id] != ws.target || k < 0 {
			panic(fmt.Sprintf("stack: vectored batch misrouted: entry %d for set %d member %d arrived at target %d",
				i, ws.target, cp.member, t.id))
		}
		if pos, n := ws.chain[k].sqe.VectorPos(); len(cp.reask) == 0 && (pos != i || n != len(cp.cmds)) {
			panic(fmt.Sprintf("stack: torn vectored batch at target %d: entry %d carries pos %d/%d of %d",
				t.id, i, pos, n, len(cp.cmds)))
		}
	}
	if len(cp.cmds) > 0 && len(cp.reask) == 0 {
		t.stats.Vectors++
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

func (x *tctx) rxCmd() bool {
	t := x.t
	if x.i == len(x.cp.cmds) {
		return x.To((*tctx).rxPop)
	}
	if ws := x.cp.cmds[x.i]; !t.alive || ws.epoch != t.initEpoch(x.l.init) {
		return x.To((*tctx).rxPop)
	}
	t.stats.Commands++
	return x.Charge(t.c.costs.CmdProcess, (*tctx).rxSubmit)
}

func (x *tctx) rxSubmit() bool {
	t, cp := x.t, x.cp
	ws := cp.cmds[x.i]
	x.i++
	if cp.relayed {
		// The relay conn restamped sentAt at the head's forward, so
		// it marks the relay hop, not the initiator send (which the
		// head capsule's MSent records).
		markWire(ws, trace.MRelayed, cp.sentAt)
		markWire(ws, trace.MRxDeliver, cp.deliveredAt)
		// The completion goes to the head, not the initiator: recorded
		// before submission, so the completion cannot outrun the route.
		t.relay.pend[ws.init].Put(ws.id, relayRoute{qp: x.l.qp, epoch: cp.epoch})
	} else {
		markWire(ws, trace.MSent, cp.sentAt)
		if len(cp.forward) > 0 {
			markWire(ws, trace.MRelayed, cp.deliveredAt)
		}
		markWire(ws, trace.MRxDeliver, cp.deliveredAt)
	}
	if ws.wc.Flush {
		t.submitFlushCmd(ws)
		return x.To((*tctx).rxCmd)
	}
	if ws.wc.Ordered && t.pol.Gated() {
		return x.rioSubmitAttrs(ws, ws.chain[ws.q.Pos(cp.member)].attrs)
	}
	t.submitWrite(ws, t.horaeSlot(ws))
	return x.To((*tctx).rxCmd)
}

// appendPMR persists one ordering attribute (step 5 of Fig. 4) into the
// owning initiator's log partition: the CPU is held for the MMIO issue
// plus the persistence latency (write + read-back) and the append waits if
// that partition's circular log is full — backpressure on one initiator's
// log never stalls another initiator's appends. The slot is recorded in
// the attribute's engine domain so completions and retirement find it
// without hashing. It returns to ret with the outcome in x.slot, x.ok.
//
// ok=false means the partition was FORMATTED (its owner crash-recovered
// and the log object was replaced) while this append was parked on
// backpressure or mid-persist: the attribute belongs to a dead
// incarnation and was dropped rather than leaked into fresh evidence.
func (x *tctx) appendPMR(a core.Attr, ret tstep) bool {
	x.a, x.log, x.Ret = a, x.t.logs[a.Initiator], ret
	return x.Acquire((*tctx).pmrIssue)
}

func (x *tctx) pmrIssue() bool { return x.Sleep(x.t.c.costs.PMRAppendCPU, (*tctx).pmrAppend) }

func (x *tctx) pmrAppend() bool {
	t, init := x.t, int(x.a.Initiator)
	if t.logs[init] != x.log {
		t.cores.Release()
		x.log, x.ok = nil, false
		return x.Back()
	}
	slot, ok := x.log.Append(x.a)
	if ok {
		x.slot = slot
		return x.Sleep(t.ssds[0].PMRWriteLat(), (*tctx).pmrPersisted)
	}
	// Log full: wait for retirement (backpressure).
	t.cores.Release()
	x.To((*tctx).pmrSpace)
	return t.logSpace[init].Wait(x)
}

func (x *tctx) pmrSpace() bool { return x.Acquire((*tctx).pmrAppend) }

func (x *tctx) pmrPersisted() bool {
	t, a := x.t, x.a
	t.cores.Release()
	log := x.log
	x.log, x.ok = nil, false
	if t.logs[a.Initiator] != log {
		return x.Back() // formatted mid-persist: the slot is dead
	}
	t.ord.Domain(int(a.Initiator), a.Stream).RecordSlot(a.ServerIdx, x.slot)
	t.stats.PMRAppends++
	x.ok = true
	return x.Back()
}

// rioSubmitAttrs enforces per-(initiator, stream) in-order submission
// (§4.3.1): a request may only go to the SSD after every smaller ServerIdx
// of its ordering domain has. attrs is this member's chain of the command —
// every member of a set runs its own dense chain, so the gate's invariant
// holds per replica independently. With stream→QP affinity the network
// delivers in order and this gate almost never parks.
func (x *tctx) rioSubmitAttrs(ws *wireState, attrs []core.Attr) bool {
	t := x.t
	d := t.ord.Domain(int(attrs[0].Initiator), attrs[0].Stream)
	if !d.Admit(attrs[0].ServerIdx) {
		t.stats.Holdbacks++
		pc := parkedCmd{ws: ws, attrs: attrs}
		if t.c.tracer != nil {
			d.ParkAt(attrs[0].ServerIdx, pc, int64(t.c.Eng.Now()))
		} else {
			d.Park(attrs[0].ServerIdx, pc)
		}
		return x.To((*tctx).rxCmd)
	}
	x.dom = d
	return x.rioProcess(ws, attrs)
}

// rioDrain drains any parked successors, then goes on with the capsule.
func (x *tctx) rioDrain() bool {
	next, parkedAt, ok := x.dom.TakeNextAt()
	if !ok {
		x.dom = nil
		return x.To((*tctx).rxCmd)
	}
	if parkedAt != 0 {
		addWaitWire(next.ws, trace.WaitPark, x.t.c.Eng.Now()-sim.Time(parkedAt))
	}
	return x.rioProcess(next.ws, next.attrs)
}

// rioProcess appends each attribute of one admitted command, advancing the
// gate past it, then submits the write; it returns to rioDrain.
func (x *tctx) rioProcess(ws *wireState, attrs []core.Attr) bool {
	x.ws, x.attrs, x.j = ws, attrs, 0
	x.slots = x.t.getSlots(len(attrs))
	return x.To((*tctx).rioAttr)
}

func (x *tctx) rioAttr() bool {
	if x.j == len(x.attrs) {
		x.t.submitWrite(x.ws, x.slots)
		x.ws, x.attrs, x.slots = nil, nil, nil
		return x.To((*tctx).rioDrain)
	}
	x.pmrStart = x.t.c.Eng.Now()
	return x.appendPMR(x.attrs[x.j], (*tctx).rioAppended)
}

func (x *tctx) rioAppended() bool {
	t := x.t
	addWaitWire(x.ws, trace.WaitPMR, t.c.Eng.Now()-x.pmrStart)
	if !x.ok {
		// The command's ordering domain was reset while the append
		// waited (its owner crash-recovered): the command belongs to
		// the dead incarnation — drop it without touching the fresh
		// gate or submitting a stale media write.
		t.slotsFree = append(t.slotsFree, x.slots[:0])
		x.ws, x.attrs, x.slots = nil, nil, nil
		return x.To((*tctx).rioDrain)
	}
	x.slots = append(x.slots, x.slot)
	x.dom.Advance(x.a.ServerIdx)
	x.j++
	return x.To((*tctx).rioAttr)
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
// events (and the slot bursts they still own) recycle through the free
// lists, in cplEnd.
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
		if d.epoch == t.initEpoch(d.lane.init) {
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
		x.init, x.k = init, 0
		return x.To((*tctx).cplPersist)
	case attrFlush:
		// The group's durability barrier: drain the device, then mark. A cut
		// during the wait above cleared the combiners: stay outstanding for replay.
		if !t.alive || t.epoch != x.tEpoch {
			return x.To((*tctx).cplEnd)
		}
		fd := t.getDone()
		fd.ws, fd.slots, fd.isFlush, fd.epoch = d.ws, d.slots, true, d.epoch
		d.slots = nil // ownership moved to the barrier event
		fc := &t.flushers[d.ws.ssdIdx]
		tail := &fc.wait
		for *tail != nil {
			tail = &(*tail).next
		}
		*tail = fd
		if !fc.busy { // idle device: a lone commit costs exactly its own FLUSH
			t.submitBarriers(d.ws.ssdIdx)
		}
		return x.To((*tctx).cplEnd)
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

func (x *tctx) cplPersist() bool {
	d := x.d
	if x.k < len(d.slots) {
		s := d.slots[x.k]
		x.k++
		return x.markPersist(x.init, s, d.epoch, (*tctx).cplPersist)
	}
	return x.respond(d.ws, (*tctx).cplEnd)
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
	lead.cmd.Op = ssd.OpFlush
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
	return x.To((*tctx).flushBarrier)
}

// flushBarrier serves barrier x.b of the chain the FLUSH covered.
func (x *tctx) flushBarrier() bool {
	b := x.b
	if b == nil {
		return x.To((*tctx).cplEnd)
	}
	x.bnext = b.next // putDone wipes it
	if init := b.ws.init; b.epoch == x.t.initEpoch(init) {
		x.init, x.k = init, 0
		return x.To((*tctx).flushBarrierPersist)
	}
	return x.To((*tctx).flushBarrierDone)
}

func (x *tctx) flushBarrierPersist() bool {
	b := x.b
	if x.k < len(b.slots) {
		s := b.slots[x.k]
		x.k++
		return x.markPersist(x.init, s, b.epoch, (*tctx).flushBarrierPersist)
	}
	x.t.stats.Barriers++
	return x.respond(b.ws, (*tctx).flushBarrierDone)
}

func (x *tctx) flushBarrierDone() bool {
	if x.b != x.d {
		x.t.putDone(x.b) // cplEnd recycles the leader
	}
	x.b, x.bnext = x.bnext, nil
	return x.To((*tctx).flushBarrier)
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

// cqeHoldTime returns how long a lone completion may wait for companions
// before the coalescing buffer is flushed anyway (the reverse-path analog
// of the submission plug's hold timer): the static Config.CQEHold, or the
// governor's operating point when adaptive.
func (t *Target) cqeHoldTime() sim.Time {
	if t.gov != nil {
		return t.gov.hold()
	}
	return t.c.cfg.CQEHold
}

// cqeBatchSize returns the coalescing flush threshold in effect.
func (t *Target) cqeBatchSize() int {
	if t.gov != nil {
		return t.gov.batch()
	}
	return t.c.cfg.CQEBatch
}

// respond queues one completion toward the owning initiator and returns to
// ret: the CQE joins its lane's pending response capsule, flushed when
// CQEBatch entries accumulate or the hold timer expires.
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
	if t.gov != nil && t.gov.observe(t.c.Eng.Now()) {
		t.stats.GovSwitches++
	}
	if t.relay != nil {
		// Relay route: a follower's completion goes to the head; the head's
		// own completion of a relayed command feeds its quorum record
		// instead of shipping a CQE of its own (the aggregated CQE carries
		// the command id).
		if routed, goOn := x.relayRespond(ws, ret); routed {
			return goOn
		}
		if as, ok := t.relay.agg[ws.init].Get(ws.id); ok && as.epoch == ws.epoch {
			return x.aggAck(aggKey{ws.init, ws.id}, as, t.id, ret)
		}
	}
	l.push(ws.id, ws.epoch, aggCQE{})
	return x.flushOrArm(l, ret)
}

// flushOrArm applies the response flush policy to one lane's pending
// batch, then returns to ret: ship when the capsule is full — or when the
// queue pair has no command left in flight, so a CQE only ever waits while
// more completions are coming to amortize against and an idle QP responds
// immediately (no hold-timer latency on the application's critical path).
// Otherwise the hold timer is the backstop for commands that stay in
// flight longer than the hold.
func (x *tctx) flushOrArm(l *qpLane, ret tstep) bool {
	t := x.t
	if len(l.cqes) >= t.cqeBatchSize() || l.inflight == 0 {
		return x.flushCQEs(l, ret)
	}
	if !l.armed {
		t.armCQETimer(l, t.cqeHoldTime())
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
	if len(l.cqes) == 0 {
		// Only resolution records can be pending on an otherwise idle QP
		// (relay route): ship them in a CQE-less capsule so the
		// initiator reaches full resolution without waiting for
		// unrelated completions.
		if len(l.resolved) == 0 {
			return
		}
	} else if wait := l.first + t.cqeHoldTime() - t.c.Eng.Now(); wait > 0 {
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
	fd.lane, fd.epoch = l, t.initEpoch(l.init)
	t.doneQ.Push(fd)
}

// flushCQEs ships one lane's pending completions as a single vectored
// response capsule, then returns to ret: one shared framing, one PostMsg,
// entries vector-marked so the initiator can verify the capsule arrived
// whole. A batch of one needs no vector framing and ships as a bare 16-byte
// capsule.
func (x *tctx) flushCQEs(l *qpLane, ret tstep) bool {
	t := x.t
	if len(l.cqes) == 0 && len(l.resolved) == 0 {
		return x.To(ret)
	}
	// Detach before charging CPU: the charge waits, and the other
	// completion context may append (or flush) meanwhile. The lane swaps
	// its buffers with the message's empty ones.
	msg := t.c.getMsg(l.qp, l.epoch, t.id)
	msg.cqes, l.cqes = l.cqes, msg.cqes
	msg.respondAt, l.cqeT = l.cqeT, msg.respondAt
	msg.agg, l.agg = l.agg, msg.agg
	msg.resolved, l.resolved = l.resolved, msg.resolved
	if len(msg.cqes) == 0 {
		// Resolution-only capsule: no buffered CQE minted the epoch, so
		// stamp the initiator's current one.
		msg.epoch = t.initEpoch(l.init)
	}
	nvmeof.EncodeCQEVector(msg.cqes)
	x.outSize = nvmeof.ResponseSize
	if n := len(msg.cqes); n > 1 {
		x.outSize = nvmeof.CQEVectorCapsuleSize(n)
	}
	x.outSize += len(msg.resolved) * nvmeof.ResponseSize
	x.out, x.outLane, x.Ret = msg, l, ret
	return x.Charge(t.c.costs.PostMsg, (*tctx).cqesPosted)
}

func (x *tctx) cqesPosted() bool {
	t, l, msg := x.t, x.outLane, x.out
	x.out, x.outLane = nil, nil
	if !t.alive { // power cut while posting: the capsule dies with the NIC
		t.c.putMsg(msg)
		return x.Back()
	}
	t.stats.Responses++
	t.stats.CQEs += int64(len(msg.cqes))
	t.conns[l.init].Send(fabric.Target, fabric.Message{QP: l.qp, Size: x.outSize, Payload: msg})
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
		t.logSpace[init].Broadcast()
	}
}
