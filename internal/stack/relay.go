package stack

import (
	"slices"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/order"
	"repro/internal/sim"
)

// The relay route of the replicated write path (Config.ReplRelay; the
// route abstraction itself is in replica.go). On the direct route the
// initiator posts one member capsule per in-sync member and reaps one CQE
// stream per member. The relay route moves both costs to the set's head:
//
//	initiator ──head capsule + forward[]──▶ head ──forward[j]──▶ follower j
//	initiator ◀─aggregated CQE + late-ack records── head ◀─ack capsules─┘
//
//   - Fan-out: the initiator builds every member's capsule exactly as on
//     the direct route (buildMemberCapsule) but posts only the head's,
//     with the followers' ready-built capsules attached; the head forwards
//     them over dedicated target-to-target conns. Per-member ServerIdx
//     chains, PMR appends and gate semantics are those of the direct route.
//   - Ack aggregation: followers send their completions to the head,
//     coalesced: each follower buffers its relayed completions on its ack
//     lane (relayState.out) and ships them as one response capsule (a
//     completionMsg whose entries are acks, flushCQEs) under the rule
//     every response capsule ships by (commit, flushOrArm: a full batch,
//     no relayed command left in flight there, the release of held acks,
//     or the hold timer) — one PostMsg at the
//     follower and one RecvMsg at the head per capsule. The head runs the
//     same quorum accountant the initiator does (order.Quorum) and emits
//     ONE aggregated CQE at write quorum, carrying the acked members as a
//     bit mask over the set's members;
//     later acks become resolution records piggybacked on later completion
//     capsules.
//
// Failure semantics: ANY degraded member suspends the relay route for its
// set (relayActive) and new batches go direct. A follower cut flushes the
// head's open quorum records (partial member lists are safe to forward;
// later acks pass through as resolution records) and clears the
// follower's own coalescing acks. A head cut clears every follower's (no
// buffered ack reaches a later head incarnation) and is repaired by one
// question: each live initiator asks every surviving follower, per
// QP, about the relayed commands that follower has not resolved
// (reaskAfterHeadCut, built from the initiator's outstanding table alone),
// and the follower answers each from what it holds (answerReask):
//
//	still in relayState.pend     in flight here; its completion responds
//	                             directly, the relay link being down
//	past the stream's gate       it completed and the ack died with the head:
//	frontier, not in pend        ack again (Quorum.Ack absorbs duplicates)
//	neither                      it never arrived: the re-ask's copy takes
//	                             the normal receive path
//
// The in-order gate (§4.3.1) is what tells "completed" from "never
// arrived", so the relay carries ORDERED writes only: an orderless write
// has no chain index, and re-executing a completed one could overwrite
// newer data — it fans out direct, as a FLUSH does (dispatcher.nextSet).
//
// A relay-off cluster builds no relay conns, starts no relay-ack context
// and has a nil Target.relay, so its event schedule is that of the direct
// stack.

// aggKey identifies one replicated wire command at a target: the owning
// initiator plus the initiator-local command id.
type aggKey struct {
	init int
	id   uint64
}

// aggResolved is one late member ack forwarded after the aggregated CQE
// fired, piggybacked on a later completion capsule toward the initiator.
type aggResolved struct {
	id     uint64
	member int
}

// relayRoute is the follower-side record that a relayed command is in
// flight here and its completion goes to the head (relayState.pend), from
// the moment the receive loop takes the command to the moment it responds.
type relayRoute struct {
	qp    int
	epoch int
}

// headAgg is the head-side record of one relayed command: the quorum
// accountant (members = set members, Need = write quorum) plus where the
// aggregated CQE goes. Records recycle through relayState.free, which hands
// one back as it was put: Get resets it.
type headAgg struct {
	q        order.Quorum
	qp       int
	epoch    int // owning initiator's epoch at relay time
	firstAck sim.Time
}

// relayState is everything volatile a target holds for the relay route
// that is keyed by command, not by queue pair (Target.relay; nil unless
// cfg.ReplRelay). The per-QP parts — pending aggregated CQEs and
// resolution records — live in the qpLane. Command records sit in one
// table per initiator, keyed by command id.
type relayState struct {
	agg  []core.IDTable[*headAgg] // head: open quorum records
	free sim.FreeList[headAgg]

	// Follower: the relayed commands in flight here, and the ack capsule
	// coalescing toward the head: a lane whose entries are acks and whose
	// in-flight count is pend's size, so it ships under the response
	// capsule's rule (flushOrArm).
	pend []core.IDTable[relayRoute]
	out  qpLane

	ackQ *sim.Queue[*completionMsg] // head: follower ack capsules awaiting the relay-ack context
	ack  tctx                       // head: the relay-ack context
}

// maxRelayMembers bounds a relay set: an aggregated CQE's members mask
// (cplEntry) has one bit per member.
const maxRelayMembers = 64

// headLane is the init of a follower's ack lane, which serves every
// initiator.
const headLane = -1

func newRelayState(t *Target, inits int) *relayState {
	r := &relayState{
		agg:  make([]core.IDTable[*headAgg], inits),
		pend: make([]core.IDTable[relayRoute], inits),
		out:  qpLane{t: t, init: headLane},
		ackQ: sim.NewQueue[*completionMsg](t.c.Eng),
	}
	for i := range inits {
		r.agg[i].Init(16)
		r.pend[i].Init(16)
	}
	return r
}

// reset drops every record (restart of the target).
func (r *relayState) reset() {
	for init := range r.agg {
		r.resetInitiator(init)
	}
	r.ackQ.Drain()
}

// resetInitiator drops the records one crashed initiator left behind,
// leaving other initiators' untouched. Stale records and routes are also
// epoch-guarded, so this is hygiene, not correctness (the ack lane's
// entries of that initiator ship and the head skips them).
func (r *relayState) resetInitiator(init int) {
	for _, as := range r.agg[init].All() {
		r.free.Put(as)
	}
	r.agg[init].Reset()
	r.pend[init].Reset()
	r.recount()
}

// dropAcks drops the acks a follower's ack lane still coalesces, and the
// held count that stands for some of them (a cut of either end of the
// relay link: they must never reach a later head incarnation).
func (r *relayState) dropAcks() {
	r.out.entries, r.out.held = r.out.entries[:0], 0
}

// recount sets the ack lane's in-flight count to the relayed commands
// still in flight here.
func (r *relayState) recount() {
	n := 0
	for i := range r.pend {
		n += r.pend[i].Len()
	}
	r.out.inflight = n
}

// relayActive reports whether a set's batches take the relay route right
// now: every member in sync (any degrade falls back to the direct route
// until resync rejoins the member).
func (c *Cluster) relayActive(rs *replicaSet) bool {
	return c.cfg.ReplRelay && len(rs.members) > 1 && rs.inSyncCount() == len(rs.members)
}

// relayHead returns the set's head member (the relay hub).
func (rs *replicaSet) relayHead() int { return rs.members[0] }

// buildRelayConns wires each replica set's head to its followers with
// dedicated target-to-target fabric conns (head = Initiator side,
// follower = Target side; rs.relay is indexed by member position, 0 nil)
// and allocates the per-target relay state. Called from New only when
// cfg.ReplRelay is set — NewConn and the relay-ack context each schedule
// an event at construction, so a relay-off cluster must never reach here.
func (c *Cluster) buildRelayConns() {
	for _, t := range c.targets {
		t.relay = newRelayState(t, c.cfg.Initiators)
		t.relay.ack.t = t
		t.relay.ack.Start(c.Eng, t.cores, &t.relay.ack, (*tctx).ackPop)
	}
	for _, rs := range c.replSets {
		rs.relay = make([]*fabric.Conn, len(rs.members))
		head := c.targets[rs.relayHead()]
		for k := 1; k < len(rs.members); k++ {
			follower := c.targets[rs.members[k]]
			conn := fabric.NewConn(c.Eng, c.cfg.Fabric)
			// The relay conn carries every initiator's forwarded capsules;
			// the owner is read off the commands (a forwarded capsule always
			// carries some; a recycled one has none, so the read panics).
			conn.SetHandler(fabric.Target, func(m fabric.Message) {
				if cp, ok := m.Payload.(*capsule); ok {
					follower.recvCapsule(cp.cmds[0].init, m.QP, cp)
				}
			})
			conn.SetHandler(fabric.Initiator, func(m fabric.Message) {
				if cm, ok := m.Payload.(*completionMsg); ok {
					head.relay.ackQ.Push(cm)
				}
			})
			rs.relay[k] = conn
		}
	}
}

// relayFanOut runs at the head when a head capsule arrives, BEFORE the
// head processes its own slice: it opens a quorum record for every command,
// and the rx context then forwards the followers' capsules over the
// target-to-target conns (rxForward). The head pays the per-follower
// PostMsg — the fan-out CPU moved off the initiator, not eliminated.
func (t *Target) relayFanOut(cp *capsule, init, qp int) {
	rs := t.c.replSets[t.c.setOf[t.id]]
	// Open records only while the set is fully in sync: a capsule arriving
	// after a degrade still fans out (live followers need their capsules;
	// sends to the dead member's link drop at the fabric), but its acks
	// route straight through — the head's own completion responds directly
	// and follower acks become resolution records — so no completion is
	// ever held hostage by a record that can no longer reach quorum
	// (a full-set quorum, a 2-way set's, would strand it until resync).
	if t.c.relayActive(rs) {
		for _, ws := range cp.cmds {
			as := t.relay.free.Get()
			as.q.Reset()
			as.firstAck = 0
			for _, m := range rs.members {
				as.q.Add(m)
			}
			as.q.Need = t.c.writeQuorum
			as.qp, as.epoch = qp, cp.epoch
			t.relay.agg[init].Put(ws.id, as)
		}
	}
}

// rxForward posts forwarded capsule x.i of the head capsule in progress.
func (x *tctx) rxForward() bool {
	t := x.t
	if x.i == len(x.cp.forward) {
		if !t.alive {
			return x.To((*tctx).rxPop)
		}
		return x.To((*tctx).rxCtrl)
	}
	t.stats.Relays++
	return x.Charge(t.c.costs.PostMsg, (*tctx).rxForwardPost)
}

func (x *tctx) rxForwardPost() bool {
	t, fcp := x.t, x.cp.forward[x.i]
	rs := t.c.replSets[t.c.setOf[t.id]]
	if !t.c.postCapsule(x, &x.tx, rs.relay[rs.pos(fcp.member)], x.l.qp, fcp) {
		return false
	}
	if !t.alive {
		return x.To((*tctx).rxPop) // power cut mid-fan-out: the rest dies with the NIC
	}
	x.i++
	return x.To((*tctx).rxForward)
}

// closeHeadAgg drops a quorum record from the table and recycles it.
func (t *Target) closeHeadAgg(k aggKey, as *headAgg) {
	t.relay.agg[k.init].Delete(k.id)
	t.relay.free.Put(as)
}

// relayRespond intercepts a follower completion bound for the head: it
// replaces the direct CQE with one entry on the ack lane (relayState.out),
// shipped under the response capsule's rule (the caller's commit). Nothing
// remembers the ack once it ships: if it dies with the head, the initiator
// asks again (answerReask). Reports false when the command is not
// relay-routed (the caller then responds directly).
func (t *Target) relayRespond(ws *wireState) bool {
	rp, ok := t.relay.pend[ws.init].Delete(ws.id)
	if !ok {
		return false
	}
	t.relay.recount()
	if conn := t.headConn(); conn == nil || !conn.Up() {
		// The head died: respond directly.
		return false
	}
	t.stats.RelayAcks++
	t.relay.out.push(cplEntry{init: ws.init, qp: rp.qp, id: ws.id, epoch: rp.epoch})
	return true
}

// openAgg returns the head's open quorum record of a relayed command (nil:
// none, or no relay route).
func (t *Target) openAgg(ws *wireState) *headAgg {
	if t.relay == nil {
		return nil
	}
	if as, ok := t.relay.agg[ws.init].Get(ws.id); ok && as.epoch == ws.epoch {
		return as
	}
	return nil
}

// headConn is a follower's relay conn to its set head (nil at the head).
func (t *Target) headConn() *fabric.Conn {
	rs := t.c.replSets[t.c.setOf[t.id]]
	return rs.relay[rs.pos(t.id)]
}

// ackPop takes the next follower ack capsule of the head-side relay-ack
// context: each capsule costs receive CPU once (the reap work moved off the
// initiator), and each of its entries feeds the command's quorum record;
// entries for commands whose record is gone — all members acked, or a
// degrade flushed it — pass through as resolution records, and entries of a
// dead initiator incarnation are skipped. The context is a capsule's last
// reader: it recycles the capsule once it has read it, or as it drops a
// stale one.
func (x *tctx) ackPop() bool {
	msg, ok := x.t.relay.ackQ.Take(x)
	if !ok {
		return false
	}
	mustBeLive(msg.free, "completion message")
	t := x.t
	if !t.alive {
		t.c.putMsg(msg)
		return true
	}
	x.ack, x.k, x.tEpoch = msg, 0, t.epoch
	return x.Charge(t.c.costs.RecvMsg, (*tctx).ackNext)
}

// ackNext feeds the capsule's next entry to its quorum record (ackMember),
// returning through the response flush rule when that fires the aggregated
// CQE, and recycles the capsule after the last entry or once the head's
// incarnation is gone.
func (x *tctx) ackNext() bool {
	t, msg := x.t, x.ack
	for x.k < len(msg.entries) && t.alive && t.epoch == x.tEpoch {
		a := msg.entries[x.k]
		x.k++
		if a.epoch != t.initEpoch(a.init) {
			continue
		}
		if as, ok := t.relay.agg[a.init].Get(a.id); ok && as.epoch == a.epoch {
			if l := t.ackMember(aggKey{a.init, a.id}, as, msg.from); l != nil {
				return x.flushOrArm(l, (*tctx).ackNext)
			}
			continue
		}
		t.pushResolved(t.lane(a.init, a.qp), aggResolved{id: a.id, member: msg.from})
	}
	t.c.putMsg(msg)
	x.ack = nil
	return x.To((*tctx).ackPop)
}

// ackMember accounts one member ack (the head's own completion included).
// At write quorum the aggregated CQE joins its lane's pending response
// capsule, and ackMember returns that lane (nil otherwise); later acks
// become piggybacked resolution records; the record closes once every
// member acked.
func (t *Target) ackMember(key aggKey, as *headAgg, member int) *qpLane {
	if !as.q.Ack(as.q.Pos(member)) {
		return nil // duplicate (cannot happen on healthy links; cheap guard)
	}
	if as.firstAck == 0 {
		as.firstAck = t.c.Eng.Now()
	}
	l := t.lane(key.init, as.qp)
	fire := as.q.Fire()
	switch {
	case fire:
		t.fireAgg(key, as)
	case as.q.Fired:
		t.pushResolved(l, aggResolved{id: key.id, member: member})
	}
	if as.q.Done() {
		t.closeHeadAgg(key, as)
	}
	if fire {
		return l
	}
	return nil
}

// fireAgg queues the aggregated CQE of one fired quorum record — the
// members acked so far — on its lane's pending response capsule.
// Memory-only, so the degrade sweep may call it from engine context; the
// actual flush happens in completion context (flushOrArm, or a routed
// flush event).
func (t *Target) fireAgg(key aggKey, as *headAgg) {
	t.stats.AggFires++
	var members uint64
	for k, got := range as.q.Got {
		if got {
			members |= 1 << k
		}
	}
	t.lane(key.init, as.qp).push(cplEntry{
		init: key.init, qp: as.qp, id: key.id, epoch: as.epoch,
		members: members, wait: t.c.Eng.Now() - as.firstAck,
	})
}

// pushResolved queues one late-ack resolution record for piggybacking on
// the lane's next completion capsule, arming the hold timer as a backstop
// so an idle QP still resolves.
func (t *Target) pushResolved(l *qpLane, r aggResolved) {
	l.resolved = append(l.resolved, r)
	if !l.backed() && !l.armed {
		t.armCQETimer(l, t.gov.hold())
	}
}

// relayCut handles a member power cut for the relay machinery; called from
// PowerCutTarget after the member's own relay state was reset and
// degradeMember ran (in engine context — everything here is memory moves,
// fabric control-plane calls and queued flush events).
//
// Follower dead: its relay link drops (drop-whole), and the head's open
// quorum records flush with whatever acks they hold — partial member lists
// are always safe to forward (the initiator's quorum does the counting) —
// so a full-set quorum command is not stranded waiting for a
// record that can no longer complete. Later acks pass through as
// resolution records.
//
// Head dead: every relay link of the set drops, forwarded capsules and
// acks in flight with them, and so do the acks each follower still
// coalesces: they must never reach a later head incarnation, and the
// commands they name are past the gate and out of pend, so the re-ask acks
// them directly. Each live initiator asks the survivors about what it
// still has outstanding (reaskAfterHeadCut).
func (c *Cluster) relayCut(m int) {
	rs := c.replSets[c.setOf[m]]
	head := rs.relayHead()
	if m != head {
		if conn := rs.relay[rs.pos(m)]; conn != nil {
			conn.Disconnect()
		}
		c.targets[head].flushHeadAggs()
		return
	}
	for k, conn := range rs.relay {
		if conn != nil {
			conn.Disconnect()
			c.targets[rs.members[k]].relay.dropAcks()
		}
	}
	for _, in := range c.inits {
		if in.alive {
			in.reaskAfterHeadCut(rs, head)
		}
	}
}

// flushHeadAggs fires every open quorum record of this head with the acks
// gathered so far and closes it, so subsequent acks take the passthrough
// paths (the head's own completions respond directly, follower acks become
// resolution records). Runs in engine context: CQEs are queued memory-only
// and shipped by routed flush events.
func (t *Target) flushHeadAggs() {
	var touched []*qpLane
	for init := range t.relay.agg {
		for id, as := range t.relay.agg[init].All() {
			k := aggKey{init, id}
			if as.epoch == t.initEpoch(init) && !as.q.Fired && as.q.Acks > 0 {
				as.q.Fired = true
				t.fireAgg(k, as)
				if l := t.lane(init, as.qp); !slices.Contains(touched, l) {
					touched = append(touched, l)
				}
			}
			t.closeHeadAgg(k, as)
		}
	}
	for _, l := range touched {
		t.routeFlush(l)
	}
}

// reaskAfterHeadCut flips this initiator's relayed commands of the set to
// the direct route and posts, on a dispatch record it starts (PowerCutTarget
// runs in engine context), one re-ask capsule per (surviving follower, QP)
// naming the commands that follower has not resolved. It reads the
// initiator's own outstanding table and nothing else: what each follower
// received is the follower's to say (answerReask). A re-ask points at the
// same chain records as the forwarded original, which may still sit in the
// follower's receive queue, and it carries the commands' ids: a command can
// resolve and its record be rebound while the capsule is being posted or
// queued.
func (in *Initiator) reaskAfterHeadCut(rs *replicaSet, head int) {
	qps := in.cfg.QPs
	asks := make([]*capsule, len(rs.members)*qps) // index: member position * QPs + qp
	n := 0
	for _, ws := range in.outstandingOfSet(rs.id) {
		if !ws.relayed {
			continue
		}
		ws.relayed = false
		// A relayed command fanned to the full membership: its member
		// positions are the set's.
		for k, m := range ws.q.Members {
			if m == head || ws.q.Resolved[k] {
				continue
			}
			cp := asks[k*qps+ws.qp]
			if cp == nil {
				cp = in.c.getCapsule(in.epoch, m)
				asks[k*qps+ws.qp] = cp
				n++
			}
			cp.cmds = append(cp.cmds, ws)
			cp.reask = append(cp.reask, ws.id)
			cp.inline += ws.wc.InlineBytes(inlineThreshold)
		}
	}
	if n == 0 {
		return
	}
	d := &dispatcher{in: in, asks: asks}
	d.Start(in.Eng, in.cores, d, (*dispatcher).reask)
}

// reask posts the re-asks in turn, each while its incarnation lives.
func (d *dispatcher) reask() bool {
	for i, cp := range d.asks {
		if cp == nil {
			continue
		}
		d.asks[i] = nil
		if in := d.in; in.alive && cp.epoch == in.epoch {
			d.cp, d.to, d.qp, d.Ret = cp, cp.member, i%in.cfg.QPs, (*dispatcher).reask
			return d.Charge(in.costs.PostMsg, (*dispatcher).send)
		}
	}
	return false
}

// answerReask answers a head-cut re-ask from what this follower holds,
// command by command, and leaves in the capsule the commands it does not
// hold. It runs twice: at NIC receive, where a finished command must not
// queue behind the lane's backlog for its second ack — there "not held"
// is not final, the forwarded original may be queued ahead — and again
// when the receive loop reaches the capsule, behind everything that
// arrived before it, where "not held" means it never arrived and the
// capsule's copy is this member's. Reports whether it queued any ack on
// the lane (memory-only: the caller flushes).
func (t *Target) answerReask(l *qpLane, cp *capsule) bool {
	acked, keep := false, 0
	for i, ws := range cp.cmds {
		id := cp.reask[i]
		if ws.id != id {
			continue // resolved since the ask was built, and the record rebound
		}
		if _, ok := t.relay.pend[l.init].Get(id); ok {
			continue // in flight here: its completion answers
		}
		a := ws.chain[ws.q.Pos(t.id)].attrs[0]
		if a.ServerIdx < t.ord.Domain(l.init, a.Stream).Frontier() {
			// Through the gate and no longer in flight: it completed, and
			// the ack died with the head.
			l.push(cplEntry{init: l.init, qp: l.qp, id: id, epoch: cp.epoch})
			acked = true
			continue
		}
		cp.cmds[keep], cp.reask[keep] = ws, id
		keep++
	}
	cp.cmds, cp.reask = cp.cmds[:keep], cp.reask[:keep]
	return acked
}
