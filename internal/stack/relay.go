package stack

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/fabric"
	"repro/internal/nvmeof"
	"repro/internal/order"
	"repro/internal/sim"
)

// The relay route of the replicated write path (Config.ReplRelay; the
// route abstraction itself is in replica.go). On the direct route the
// initiator posts one member capsule per in-sync member and reaps one CQE
// stream per member. The relay route moves both costs to the set's head:
//
//	initiator ──head capsule + forward[]──▶ head ──forward[j]──▶ follower j
//	initiator ◀─aggregated CQE + late-ack records── head ◀─relay acks──┘
//
//   - Fan-out: the initiator builds every member's capsule exactly as on
//     the direct route (buildMemberCapsule) but posts only the head's,
//     with the followers' ready-built capsules attached; the head forwards
//     them over dedicated target-to-target conns. Per-member ServerIdx
//     chains, PMR appends and gate semantics are those of the direct route.
//   - Ack aggregation: followers send their completions to the head. The
//     head runs the same quorum accountant the initiator does
//     (order.Quorum) and emits ONE aggregated CQE at write quorum, carrying
//     the acked member list; later acks become resolution records
//     piggybacked on later completion capsules.
//
// Failure semantics: ANY degraded member suspends the relay route for its
// set (relayActive) and new batches go direct. A follower cut flushes the
// head's open quorum records (partial member lists are safe to forward;
// later acks pass through as resolution records). A head cut is repaired
// by one question: each live initiator asks every surviving follower, per
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
// newer data — it fans out direct, as a FLUSH does (postByTarget).
//
// A relay-off cluster builds no relay conns, spawns no extra procs and has
// a nil Target.relay, so its event schedule is that of the direct stack.

// aggKey identifies one replicated wire command at a target: the owning
// initiator plus the initiator-local command id.
type aggKey struct {
	init int
	id   uint64
}

// sortedAggKeys returns a map's keys in (initiator, id) order: the crash
// sweeps walk maps, and the simulation must not depend on map order.
func sortedAggKeys[V any](m map[aggKey]V) []aggKey {
	keys := make([]aggKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].init != keys[b].init {
			return keys[a].init < keys[b].init
		}
		return keys[a].id < keys[b].id
	})
	return keys
}

// aggCQE annotates one entry of a completionMsg's CQE batch: a non-nil
// member list marks an aggregated CQE the set's head emitted at quorum,
// standing in for one genuine ack per listed member. wait is the head-side
// aggregation wait (first ack to quorum fire) for stage tracing.
type aggCQE struct {
	members []int
	wait    sim.Time
}

// aggResolved is one late member ack forwarded after the aggregated CQE
// fired, piggybacked on a later completion capsule toward the initiator.
type aggResolved struct {
	init   int
	id     uint64
	member int
}

// relayAckMsg is one follower completion routed to the set's head over the
// relay conn (the target-to-target messages do not count against the
// initiator's completion messages — that is the point).
type relayAckMsg struct {
	init   int
	qp     int
	id     uint64
	member int
	epoch  int
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
// aggregated CQE goes. Records recycle through relayState.free.
type headAgg struct {
	q        order.Quorum
	qp       int
	epoch    int // owning initiator's epoch at relay time
	firstAck sim.Time
}

// relayState is everything volatile a target holds for the relay route
// that is keyed by command, not by queue pair (Target.relay; nil unless
// cfg.ReplRelay). The per-QP parts — pending resolution records, CQE
// annotations — live in the qpLane.
type relayState struct {
	agg  map[aggKey]*headAgg // head: open quorum records
	free []*headAgg

	pend map[aggKey]relayRoute // follower: relayed commands in flight here

	ackQ *sim.Queue[*relayAckMsg] // head: follower acks awaiting the relay-ack context
}

func newRelayState(eng *sim.Engine) *relayState {
	return &relayState{
		agg:  make(map[aggKey]*headAgg),
		pend: make(map[aggKey]relayRoute),
		ackQ: sim.NewQueue[*relayAckMsg](eng),
	}
}

// reset drops every record (restart of the target).
func (r *relayState) reset() {
	for _, as := range r.agg {
		r.free = append(r.free, as)
	}
	clear(r.agg)
	clear(r.pend)
	r.ackQ.Drain()
}

// resetInitiator drops the records one crashed initiator left behind,
// leaving other initiators' untouched. Stale records and routes are also
// epoch-guarded, so this is hygiene, not correctness.
func (r *relayState) resetInitiator(init int) {
	for k, as := range r.agg {
		if k.init == init {
			delete(r.agg, k)
			r.free = append(r.free, as)
		}
	}
	for k := range r.pend {
		if k.init == init {
			delete(r.pend, k)
		}
	}
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
// cfg.ReplRelay is set — NewConn spawns wire procs, so a relay-off
// cluster must never reach here.
func (c *Cluster) buildRelayConns() {
	for _, t := range c.targets {
		t.relay = newRelayState(c.Eng)
		c.Eng.Go(fmt.Sprintf("tgt%d/relayack", t.id), func(p *sim.Proc) { t.relayAckLoop(p) })
	}
	for _, rs := range c.replSets {
		rs.relay = make([]*fabric.Conn, len(rs.members))
		head := c.targets[rs.relayHead()]
		for k := 1; k < len(rs.members); k++ {
			follower := c.targets[rs.members[k]]
			conn := fabric.NewConn(c.Eng, c.cfg.Fabric)
			// The relay conn carries every initiator's forwarded capsules;
			// the owner is read off the commands.
			conn.SetHandler(fabric.Target, func(m fabric.Message) {
				if cp, ok := m.Payload.(*capsule); ok && len(cp.cmds) > 0 {
					follower.recvCapsule(cp.cmds[0].init, m.QP, cp)
				}
			})
			conn.SetHandler(fabric.Initiator, func(m fabric.Message) {
				if ack, ok := m.Payload.(*relayAckMsg); ok {
					head.relay.ackQ.Push(ack)
				}
			})
			rs.relay[k] = conn
		}
	}
}

// relayFanOut runs at the head when a head capsule arrives, BEFORE the
// head processes its own slice: it opens a quorum record for every command
// and forwards the followers' capsules over the target-to-target conns.
// The head pays the per-follower PostMsg — the fan-out CPU moved off the
// initiator, not eliminated.
func (t *Target) relayFanOut(p *sim.Proc, cp *capsule, init, qp int) {
	rs := t.c.replSets[t.c.setOf[t.id]]
	// Open records only while the set is fully in sync: a capsule arriving
	// after a degrade still fans out (live followers need their capsules;
	// sends to the dead member's link drop at the fabric), but its acks
	// route straight through — the head's own completion responds directly
	// and follower acks become resolution records — so no completion is
	// ever held hostage by a record that can no longer reach quorum
	// (WriteQuorum == Replicas would strand it until resync).
	if t.c.relayActive(rs) {
		for _, ws := range cp.cmds {
			as := t.getHeadAgg()
			for _, m := range rs.members {
				as.q.Add(m)
			}
			as.q.Need = t.c.writeQuorum
			as.qp, as.epoch = qp, cp.epoch
			t.relay.agg[aggKey{init, ws.id}] = as
		}
	}
	for _, fcp := range cp.forward {
		t.stats.Relays++
		t.c.postCapsule(p, t.cores, rs.relay[rs.pos(fcp.member)], qp, fcp)
		if !t.alive {
			return // power cut mid-fan-out: the rest dies with the NIC
		}
	}
}

// getHeadAgg checks a quorum record out of the free list.
func (t *Target) getHeadAgg() *headAgg {
	r := t.relay
	if n := len(r.free); n > 0 {
		as := r.free[n-1]
		r.free = r.free[:n-1]
		as.q.Reset()
		as.firstAck = 0
		return as
	}
	return &headAgg{}
}

// closeHeadAgg drops a quorum record from the table and recycles it.
func (t *Target) closeHeadAgg(k aggKey, as *headAgg) {
	delete(t.relay.agg, k)
	t.relay.free = append(t.relay.free, as)
}

// relayRespond intercepts a follower completion bound for the head: it
// replaces the direct CQE with one relayAckMsg on the relay conn. Nothing
// remembers the ack: if it dies with the head, the initiator asks again
// (answerReask). Reports false when the command is not relay-routed (the
// caller then responds directly).
func (t *Target) relayRespond(p *sim.Proc, ws *wireState) bool {
	key := aggKey{ws.init, ws.id}
	rp, ok := t.relay.pend[key]
	if !ok {
		return false
	}
	delete(t.relay.pend, key)
	rs := t.c.replSets[t.c.setOf[t.id]]
	conn := rs.relay[rs.pos(t.id)]
	if conn == nil || !conn.Up() {
		// The head died: respond directly.
		return false
	}
	t.cores.Use(p, t.c.costs.PostMsg)
	t.stats.RelayAcks++
	if !t.alive {
		return true
	}
	conn.Send(fabric.Target, fabric.Message{
		QP: rp.qp, Size: nvmeof.ResponseSize,
		Payload: &relayAckMsg{init: ws.init, qp: rp.qp, id: ws.id, member: t.id, epoch: rp.epoch},
	})
	return true
}

// relayAckLoop is the head-side context consuming follower acks: each ack
// costs receive CPU (the reap work moved off the initiator) and feeds the
// command's quorum record; acks for commands whose record is gone — all
// members acked, or a degrade flushed it — pass through as resolution
// records.
func (t *Target) relayAckLoop(p *sim.Proc) {
	for {
		ack := t.relay.ackQ.Pop(p)
		if !t.alive || ack.epoch != t.initEpoch(ack.init) {
			continue
		}
		t.cores.Use(p, t.c.costs.RecvMsg)
		if !t.alive || ack.epoch != t.initEpoch(ack.init) {
			continue
		}
		key := aggKey{ack.init, ack.id}
		if as, ok := t.relay.agg[key]; ok && as.epoch == ack.epoch {
			t.aggAck(p, key, as, ack.member)
			continue
		}
		t.pushResolved(t.lane(ack.init, ack.qp), aggResolved{init: ack.init, id: ack.id, member: ack.member})
	}
}

// aggAck accounts one member ack (the head's own completion included).
// At write quorum the aggregated CQE is emitted into the normal response
// coalescing path; later acks become piggybacked resolution records; the
// record closes once every member acked.
func (t *Target) aggAck(p *sim.Proc, key aggKey, as *headAgg, member int) {
	if !as.q.Ack(as.q.Pos(member)) {
		return // duplicate (cannot happen on healthy links; cheap guard)
	}
	if as.firstAck == 0 {
		as.firstAck = t.c.Eng.Now()
	}
	l := t.lane(key.init, as.qp)
	fire := !as.q.Fired && as.q.Acks >= as.q.Need
	switch {
	case as.q.Fired:
		t.pushResolved(l, aggResolved{init: key.init, id: key.id, member: member})
	case fire:
		t.fireAgg(key, as)
	}
	if as.q.Done() {
		t.closeHeadAgg(key, as)
	}
	if fire {
		t.flushOrArm(p, l)
	}
}

// fireAgg queues the aggregated CQE of one quorum record — the members
// acked so far — on its lane's pending response capsule.
// Memory-only, so the degrade sweep may call it from engine context; the
// actual flush happens in completion context (flushOrArm, or a routed
// flush event).
func (t *Target) fireAgg(key aggKey, as *headAgg) {
	as.q.Fired = true
	t.stats.AggFires++
	members := make([]int, 0, as.q.Acks)
	for k, m := range as.q.Members {
		if as.q.Got[k] {
			members = append(members, m)
		}
	}
	t.lane(key.init, as.qp).push(key.id, as.epoch, aggCQE{members: members, wait: t.c.Eng.Now() - as.firstAck})
}

// pushResolved queues one late-ack resolution record for piggybacking on
// the lane's next completion capsule, arming the hold timer as a backstop
// so an idle QP still resolves.
func (t *Target) pushResolved(l *qpLane, r aggResolved) {
	l.resolved = append(l.resolved, r)
	if len(l.cqes) == 0 && !l.armed {
		t.armCQETimer(l, t.cqeHoldTime())
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
// so a WriteQuorum == Replicas command is not stranded waiting for a
// record that can no longer complete. Later acks pass through as
// resolution records.
//
// Head dead: every relay link of the set drops, forwarded capsules and
// acks in flight with them, and each live initiator asks the survivors
// about what it still has outstanding (reaskAfterHeadCut).
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
	for _, conn := range rs.relay {
		if conn != nil {
			conn.Disconnect()
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
	for _, k := range sortedAggKeys(t.relay.agg) {
		as := t.relay.agg[k]
		if as.epoch == t.initEpoch(k.init) && !as.q.Fired && as.q.Acks > 0 {
			t.fireAgg(k, as)
			if l := t.lane(k.init, as.qp); !slices.Contains(touched, l) {
				touched = append(touched, l)
			}
		}
		t.closeHeadAgg(k, as)
	}
	for _, l := range touched {
		t.routeFlush(l)
	}
}

// reaskAfterHeadCut flips this initiator's relayed commands of the set to
// the direct route and posts, from a spawned proc (PowerCutTarget runs in
// engine context), one re-ask capsule per (surviving follower, QP) naming
// the commands that follower has not resolved. It reads the initiator's
// own outstanding table and nothing else: what each follower received is
// the follower's to say (answerReask). A re-ask is not a vectored batch —
// the forwarded original may still sit in the follower's receive queue, so
// the members' SQEs are not re-marked — and it carries the commands' ids:
// a command can resolve and its record be rebound while the capsule is
// being posted or queued.
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
				cp = &capsule{epoch: in.epoch, member: m}
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
	in.Eng.Go(fmt.Sprintf("init%d/reask%d", in.id, rs.id), func(p *sim.Proc) {
		for i, cp := range asks {
			if cp != nil && in.alive && cp.epoch == in.epoch {
				in.post(p, cp.member, i%qps, cp)
			}
		}
	})
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
		if _, ok := t.relay.pend[aggKey{l.init, id}]; ok {
			continue // in flight here: its completion answers
		}
		a := ws.chain[ws.q.Pos(t.id)].attrs[0]
		if a.ServerIdx < t.ord.Domain(l.init, a.Stream).Frontier() {
			// Through the gate and no longer in flight: it completed, and
			// the ack died with the head.
			l.push(id, cp.epoch, aggCQE{})
			acked = true
			continue
		}
		cp.cmds[keep], cp.reask[keep] = ws, id
		keep++
	}
	cp.cmds, cp.reask = cp.cmds[:keep], cp.reask[:keep]
	return acked
}
