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

	// Coalescing hold-timer observability (the governor's decision trail):
	// CQETimerFlushes counts batches the hold timer shipped (completions
	// that waited the full hold without filling a capsule — the latency
	// cost of throughput bias), CQERearms counts timers that fired on an
	// already-consumed batch and re-armed for the younger one behind it.
	CQETimerFlushes int64
	CQERearms       int64
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
// Submit until it calls Done, which queues d for doneLoop. Instances
// recycle through the target's free list — doneLoop owns the put, after the
// device has let go — so steady-state completion traffic allocates nothing.
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
	doneQ    *sim.Queue[*tDone]
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
	// without holdbacks (§4.5 Principle 2).
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
			l := t.lane(i, qp)
			c.Eng.Go(fmt.Sprintf("tgt%d/rx%d.%d", id, i, qp), func(p *sim.Proc) { t.rxLoop(p, l) })
		}
	}
	for i := 0; i < 2; i++ {
		c.Eng.Go(fmt.Sprintf("tgt%d/cpl%d", id, i), func(p *sim.Proc) { t.doneLoop(p) })
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
	l := t.lane(init, qp)
	if t.alive && cp.epoch == t.initEpoch(init) {
		for _, r := range cp.retires {
			t.retireUpTo(init, r.stream, r.upTo)
		}
		if cp.reask != nil && t.answerReask(l, cp) {
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

// rxLoop is one receive worker for one (initiator, QP): it consumes
// capsules (two-sided SENDs cost target CPU — the asymmetry Lesson 3 is
// about), fetches non-inline data with one-sided READs, and routes
// commands through the policy-specific submission path.
func (t *Target) rxLoop(p *sim.Proc, l *qpLane) {
	init, qp := l.init, l.qp
	for {
		cp := l.rxQ.Pop(p)
		if cp.epoch != t.initEpoch(init) || !t.alive {
			continue
		}
		t.stats.Capsules++
		t.cores.Use(p, t.c.costs.RecvMsg)
		if cp.forward != nil {
			// Relay route: this is a head capsule — forward the followers'
			// capsules over the relay conns before processing the head's own
			// slice.
			t.relayFanOut(p, cp, init, qp)
			if !t.alive {
				continue
			}
		}
		if len(cp.ctrl) > 0 {
			t.handleCtrl(p, cp, init, qp)
		}
		// Head-cut re-ask, second answer: everything that arrived before it
		// has been taken, so what is still not held never arrived and goes on
		// below as this member's copy.
		if cp.reask != nil && t.answerReask(l, cp) {
			t.flushOrArm(p, l)
		}
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
			if pos, n := ws.chain[k].sqe.VectorPos(); cp.reask == nil && (pos != i || n != len(cp.cmds)) {
				panic(fmt.Sprintf("stack: torn vectored batch at target %d: entry %d carries pos %d/%d of %d",
					t.id, i, pos, n, len(cp.cmds)))
			}
		}
		if len(cp.cmds) > 0 && cp.reask == nil {
			t.stats.Vectors++
		}
		// Fetch any non-inline payload in one shot (one-sided READ: no
		// initiator CPU).
		var bulk int
		for _, ws := range cp.cmds {
			if !ws.wc.Flush && ws.wc.InlineBytes(inlineThreshold) == 0 {
				bulk += ws.wc.PayloadBytes()
			}
		}
		if bulk > 0 {
			if !t.conns[init].BulkRead(p, fabric.Target, bulk) {
				continue // connection died mid-read
			}
		}
		for _, ws := range cp.cmds {
			if !t.alive || ws.epoch != t.initEpoch(init) {
				break
			}
			t.stats.Commands++
			t.cores.Use(p, t.c.costs.CmdProcess)
			if cp.relayed {
				// The relay conn restamped sentAt at the head's forward, so
				// it marks the relay hop, not the initiator send (which the
				// head capsule's MSent records).
				markWire(ws, trace.MRelayed, cp.sentAt)
				markWire(ws, trace.MRxDeliver, cp.deliveredAt)
				// The completion goes to the head, not the initiator: recorded
				// before submission, so the completion cannot outrun the route.
				t.relay.pend[aggKey{ws.init, ws.id}] = relayRoute{qp: qp, epoch: cp.epoch}
			} else {
				markWire(ws, trace.MSent, cp.sentAt)
				if cp.forward != nil {
					markWire(ws, trace.MRelayed, cp.deliveredAt)
				}
				markWire(ws, trace.MRxDeliver, cp.deliveredAt)
			}
			if ws.wc.Flush {
				t.submitFlushCmd(ws)
				continue
			}
			if ws.wc.Ordered && t.pol.Gated() {
				t.rioSubmitAttrs(p, ws, ws.chain[ws.q.Pos(cp.member)].attrs)
			} else {
				t.submitWrite(ws, t.horaeSlot(ws))
			}
		}
	}
}

// handleCtrl persists Horae control-path ordering metadata to PMR and
// acks. This happens before the corresponding data is even dispatched at
// the initiator — the control path is synchronous. The ack returns on
// the queue pair (and connection) the control capsule arrived on, so it
// is reaped by the same shard of the same initiator that posted it.
func (t *Target) handleCtrl(p *sim.Proc, cp *capsule, init, qp int) {
	acks := make([]*ctrlReq, 0, len(cp.ctrl))
	for _, cr := range cp.ctrl {
		t.stats.CtrlOps++
		t.appendPMR(p, cr.attr)
		acks = append(acks, cr)
	}
	t.cores.Use(p, t.c.costs.PostMsg)
	t.stats.Responses++
	t.conns[init].Send(fabric.Target, fabric.Message{
		QP: qp, Size: nvmeof.ResponseSize,
		Payload: &completionMsg{ctrlAcks: acks, qp: qp, epoch: cp.epoch, from: t.id},
	})
}

// appendPMR persists one ordering attribute (step 5 of Fig. 4) into the
// owning initiator's log partition: the CPU is held for the MMIO issue
// plus the persistence latency (write + read-back) and blocks if that
// partition's circular log is full — backpressure on one initiator's log
// never stalls another initiator's appends. The slot is recorded in the
// attribute's engine domain so completions and retirement find it
// without hashing.
//
// ok=false means the partition was FORMATTED (its owner crash-recovered
// and the log object was replaced) while this append was parked on
// backpressure or mid-persist: the attribute belongs to a dead
// incarnation and was dropped rather than leaked into fresh evidence.
func (t *Target) appendPMR(p *sim.Proc, a core.Attr) (uint64, bool) {
	init := int(a.Initiator)
	log := t.logs[init]
	t.cores.Acquire(p)
	p.Sleep(t.c.costs.PMRAppendCPU)
	for {
		if t.logs[init] != log {
			t.cores.Release()
			return 0, false
		}
		slot, ok := log.Append(a)
		if ok {
			p.Sleep(t.ssds[0].PMRWriteLat())
			t.cores.Release()
			if t.logs[init] != log {
				return 0, false // formatted mid-persist: the slot is dead
			}
			t.ord.Domain(init, a.Stream).RecordSlot(a.ServerIdx, slot)
			t.stats.PMRAppends++
			return slot, true
		}
		// Log full: wait for retirement (backpressure).
		t.cores.Release()
		t.logSpace[init].Wait(p)
		t.cores.Acquire(p)
	}
}

// rioSubmitAttrs enforces per-(initiator, stream) in-order submission
// (§4.3.1): a request may only go to the SSD after every smaller ServerIdx
// of its ordering domain has. attrs is this member's chain of the command —
// every member of a set runs its own dense chain, so the gate's invariant
// holds per replica independently. With stream→QP affinity the network
// delivers in order and this gate almost never parks.
func (t *Target) rioSubmitAttrs(p *sim.Proc, ws *wireState, attrs []core.Attr) {
	d := t.ord.Domain(int(attrs[0].Initiator), attrs[0].Stream)
	if !d.Admit(attrs[0].ServerIdx) {
		t.stats.Holdbacks++
		pc := parkedCmd{ws: ws, attrs: attrs}
		if t.c.tracer != nil {
			d.ParkAt(attrs[0].ServerIdx, pc, int64(p.Now()))
		} else {
			d.Park(attrs[0].ServerIdx, pc)
		}
		return
	}
	t.rioProcess(p, ws, attrs, d)
	// Drain any parked successors.
	for {
		next, parkedAt, ok := d.TakeNextAt()
		if !ok {
			break
		}
		if parkedAt != 0 {
			addWaitWire(next.ws, trace.WaitPark, p.Now()-sim.Time(parkedAt))
		}
		t.rioProcess(p, next.ws, next.attrs, d)
	}
}

func (t *Target) rioProcess(p *sim.Proc, ws *wireState, attrs []core.Attr, d *order.Domain[parkedCmd]) {
	slots := t.getSlots(len(attrs))
	for _, a := range attrs {
		pmrStart := p.Now()
		slot, ok := t.appendPMR(p, a)
		addWaitWire(ws, trace.WaitPMR, p.Now()-pmrStart)
		if !ok {
			// The command's ordering domain was reset while the append
			// waited (its owner crash-recovered): the command belongs to
			// the dead incarnation — drop it without touching the fresh
			// gate or submitting a stale media write.
			t.slotsFree = append(t.slotsFree, slots[:0])
			return
		}
		slots = append(slots, slot)
		d.Advance(a.ServerIdx)
	}
	t.submitWrite(ws, slots)
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
// initiator gave it (buildWires); the completion flows to doneLoop. The
// device reads the command's stamps until it completes, and the wire
// command outlives every member's completion.
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

// doneLoop is the target completion context: persist-bit maintenance
// (step 7), durability barriers for flush-carrying ordered writes, and
// completion responses back to the initiators. Consumed events (and the
// slot bursts they still own) recycle through the free lists.
func (t *Target) doneLoop(p *sim.Proc) {
	for {
		d := t.doneQ.Pop(p)
		if d.free {
			panic("stack: recycled completion event in the completion queue")
		}
		t.doneOne(p, d)
		t.putDone(d)
	}
}

// doneOne handles one completion-context event. The completion context
// yields for CPU grants, so a power cut (and even the subsequent
// recovery) can land MID-EVENT: the target incarnation is captured on
// entry and re-validated after every yield — a straddling event must
// neither toggle persist bits in the freshly formatted logs nor ack a
// wiped write into the next incarnation (it must stay outstanding so
// target recovery replays it).
func (t *Target) doneOne(p *sim.Proc, d *tDone) {
	if !t.alive {
		return
	}
	tEpoch := t.epoch
	if d.lane != nil {
		// CQE hold-timer expiry: flush the pending response capsule.
		if d.epoch == t.initEpoch(d.lane.init) {
			t.flushCQEs(p, d.lane)
		}
		return
	}
	if d.epoch != t.initEpoch(d.ws.init) && !d.isFlush {
		return // a barrier FLUSH may serve several initiators: flushDone checks each
	}
	t.cores.Use(p, t.c.costs.CplHandle)
	if d.isFlush {
		t.flushDone(p, d, tEpoch)
		return
	}
	if d.doneAt > 0 {
		markWire(d.ws, trace.MSSDDone, d.doneAt)
		addWaitWire(d.ws, trace.WaitSat, d.satWait)
	}
	ordered := d.ws.wc.Ordered && t.pol.Tracked()
	plp := t.ssds[d.ws.ssdIdx].HasPLP()
	init := d.ws.init

	if !ordered || d.ws.wc.Flush {
		t.respond(p, d.ws, tEpoch)
		return
	}

	attrFlush := t.orderedFlushWanted(d.ws)
	switch {
	case plp:
		// Completion implies durability: toggle persist now.
		for _, s := range d.slots {
			t.markPersist(p, init, s, tEpoch, d.epoch)
		}
		t.respond(p, d.ws, tEpoch)
	case attrFlush:
		// The group's durability barrier: drain the device, then mark. A cut
		// during the yield above cleared the combiners: stay outstanding for replay.
		if !t.alive || t.epoch != tEpoch {
			return
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
	default:
		// Non-PLP, no flush: leave persist=0 (a later FLUSH-carrying
		// entry certifies it during recovery, §4.3.2).
		if t.pol.CertifyPeers() {
			for _, s := range d.slots {
				t.ord.AddUnflushed(d.ws.ssdIdx, order.SlotRef{Init: init, Slot: s, Epoch: d.epoch})
			}
		}
		t.respond(p, d.ws, tEpoch)
	}
}

// submitBarriers sends every barrier waiting at a device as ONE FLUSH, led
// by the first. The invariant that makes sharing safe: this runs no earlier
// than each covered barrier's own FLUSH would have been submitted (after its
// carrier's completion was processed), and a FLUSH covers every write that
// completed before its submission (ssd.execFlush drains to dirty == 0 with
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
func (t *Target) flushDone(p *sim.Proc, d *tDone, tEpoch int) {
	if !t.alive || t.epoch != tEpoch {
		return // cut mid-yield: the combiners belong to the next incarnation
	}
	t.submitBarriers(d.ws.ssdIdx)
	for _, s := range d.flushSlots {
		// A certified slot may belong to ANOTHER initiator: skip it if that one
		// crashed (and possibly reformatted its partition) while the FLUSH ran.
		if s.Epoch == t.initEpoch(s.Init) {
			t.markPersist(p, s.Init, s.Slot, tEpoch, s.Epoch)
		}
	}
	for b, next := d, d; b != nil; b = next {
		next = b.next // putDone wipes it
		if init := b.ws.init; b.epoch == t.initEpoch(init) {
			for _, s := range b.slots {
				t.markPersist(p, init, s, tEpoch, b.epoch)
			}
			t.stats.Barriers++
			t.respond(p, b.ws, tEpoch)
		}
		if b != d {
			t.putDone(b) // doneLoop recycles the leader
		}
	}
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

// markPersist toggles one entry's persist bit. The CPU grant yields, so
// the target incarnation (tEpoch) and the slot owner's incarnation
// (initEpoch) are re-validated before touching the log: a toggle that
// straddled a crash+recovery would otherwise write into a freshly
// formatted partition whose slot ids it no longer owns.
func (t *Target) markPersist(p *sim.Proc, init int, slot uint64, tEpoch, initEpoch int) {
	t.cores.Use(p, t.c.costs.PMRToggleCPU)
	if !t.alive || t.epoch != tEpoch || t.initEpoch(init) != initEpoch {
		return
	}
	t.logs[init].MarkPersist(slot)
	t.stats.PMRToggles++
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

// respond queues one completion toward the owning initiator: the CQE joins
// its lane's pending response capsule, flushed when CQEBatch entries
// accumulate or the hold timer expires.
func (t *Target) respond(p *sim.Proc, ws *wireState, tEpoch int) {
	if !t.alive || t.epoch != tEpoch {
		// A completion context that was mid-iteration when the power cut
		// hit must not touch coalescing state crash cleanup just cleared
		// — not even after a recovery revived the target (t.epoch moved):
		// the response died with the NIC, and acking a write the cut
		// wiped into the next incarnation would falsely complete it —
		// the command must stay outstanding so recovery replays it.
		return
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
		if t.relayRespond(p, ws) {
			return
		}
		key := aggKey{ws.init, ws.id}
		if as, ok := t.relay.agg[key]; ok && as.epoch == ws.epoch {
			t.aggAck(p, key, as, t.id)
			return
		}
	}
	l.push(ws.id, ws.epoch, aggCQE{})
	t.flushOrArm(p, l)
}

// flushOrArm applies the response flush policy to one lane's pending
// batch: ship when the capsule is full — or when the queue pair has no
// command left in flight, so a CQE only ever waits while more completions
// are coming to amortize against and an idle QP responds immediately (no
// hold-timer latency on the application's critical path). Otherwise the
// hold timer is the backstop for commands that stay in flight longer than
// the hold.
func (t *Target) flushOrArm(p *sim.Proc, l *qpLane) {
	if len(l.cqes) >= t.cqeBatchSize() || l.inflight == 0 {
		t.flushCQEs(p, l)
		return
	}
	if !l.armed {
		t.armCQETimer(l, t.cqeHoldTime())
	}
}

// cqeTimer is one hold-timer event of a lane, armed under target
// incarnation epoch. Only the event heap holds it: it recycles as it fires.
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
		t.stats.CQERearms++
		t.armCQETimer(l, wait)
		return
	}
	t.stats.CQETimerFlushes++
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
// response capsule: one shared framing, one PostMsg, entries vector-marked
// so the initiator can verify the capsule arrived whole. A batch of one
// needs no vector framing and ships as a bare 16-byte capsule.
func (t *Target) flushCQEs(p *sim.Proc, l *qpLane) {
	if len(l.cqes) == 0 && len(l.resolved) == 0 {
		return
	}
	// Detach before charging CPU: Use yields, and the other completion
	// context may append (or flush) concurrently.
	batch, batchT, agg, resolved, epoch := l.cqes, l.cqeT, l.agg, l.resolved, l.epoch
	l.cqes, l.cqeT, l.agg, l.resolved = nil, nil, nil, nil
	if len(batch) == 0 {
		// Resolution-only capsule: no buffered CQE minted the epoch, so
		// stamp the initiator's current one.
		epoch = t.initEpoch(l.init)
	}
	nvmeof.EncodeCQEVector(batch)
	size := nvmeof.ResponseSize
	if len(batch) > 1 {
		size = nvmeof.CQEVectorCapsuleSize(len(batch))
	}
	size += len(resolved) * nvmeof.ResponseSize
	t.cores.Use(p, t.c.costs.PostMsg)
	if !t.alive {
		return // power cut while posting: the capsule dies with the NIC
	}
	t.stats.Responses++
	t.stats.CQEs += int64(len(batch))
	t.conns[l.init].Send(fabric.Target, fabric.Message{
		QP: l.qp, Size: size,
		Payload: &completionMsg{cqes: batch, qp: l.qp, epoch: epoch, from: t.id, respondAt: batchT, agg: agg, resolved: resolved},
	})
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
