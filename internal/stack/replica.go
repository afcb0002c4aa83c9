package stack

import (
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// The write path is the same for every replica factor: the logical volume
// stripes over replica SETS of R target servers — sets of one when the
// cluster is not replicated — and dispatch fans every vectored batch to
// every in-sync member of the set with the same ordering attributes but a
// per-member dense ServerIdx chain (wireState.chain, minted by
// stampMember), so RIO's per-(initiator, stream) ordering invariants hold
// on every member independently. There is no replica-specific ordering
// code at the members: each member target runs its own ordering engine
// (internal/order) — a replica set is N engine domains per stream — and
// the initiator's quorum accountant (order.Quorum, Need = 1 over one member
// on a set of one) accounts member acks on top. The sequencer delivers a
// completion once a write quorum of members acked; reads are served from
// any in-sync member.
//
// What a power cut does depends on what the code can observe about the
// set, not on configuration. While another member is still in sync a cut
// member degrades the set (the degraded window is evidenced by epoch marks
// in the survivors' PMR) and is repaired from a peer replica's media when it
// restarts (rejoin). Survivors keep completing only where they still make a
// write quorum: on a 2-way set the quorum is both members, so a degraded
// set's writes complete as the rejoin's resync copies land (replResyncAck).
// The last in-sync member of a set — of any size — has no survivor to
// complete anything: its commands stay outstanding and the initiators
// replay them on a fresh chain.
// crash.go takes both decisions, at PowerCutTarget and at Recover's rule (1).
//
// Every member's capsule comes from buildMemberCapsule and every capsule
// reaches the wire through postCapsule; a route only says who carries the
// followers' capsules and who counts the acks:
//
//	routeDirect: initiator ──member capsule──▶ each in-sync member
//	             initiator ◀──────CQE──────── each member
//	routeRelay:  initiator ──head capsule + forward[]──▶ head ──▶ followers
//	             initiator ◀──aggregated CQE── head ◀──acks── followers
//
// A head power cut flips the in-flight commands of its set from
// routeRelay to routeDirect and asks the survivors about them (relay.go).

// route is how one replica set's batch travels to the set's members.
type route uint8

const (
	routeDirect route = iota
	routeRelay
)

// replicaSet is one group of R target servers holding identical block
// content for its slice of the logical volume.
type replicaSet struct {
	id      int
	members []int  // target ids, fixed at construction
	inSync  []bool // parallel to members
	epoch   int    // membership epoch: bumps on every degrade and rejoin

	// relay holds the target-to-target conns of the replication fast path
	// (head at members[0] = Initiator side, follower = Target side),
	// parallel to members with [0] nil. Nil unless cfg.ReplRelay.
	relay []*fabric.Conn

	// dirty is, per member position, the background-resync backlog: the
	// extents dispatched while that member was out of sync. Appends happen
	// in the same no-yield region as the membership snapshot they were
	// skipped from, so the resync drain loop can never miss one.
	dirty [][]dirtyExtent
	// settled wakes a resync waiting for a backlog extent's command to
	// settle (extentSettled): broadcast when a command of this set has
	// resolved its last member, and when an initiator is cut.
	settled *sim.Cond
}

// dirtyExtent is one write a degraded member missed. The content is read
// from an in-sync peer's media at copy time (latest wins, so re-copies
// are idempotent); ws/wsID/init let the resync loop wait until every
// replica of the originating command resolved, i.e. the content settled
// on the peers' media.
type dirtyExtent struct {
	ssdIdx int
	lba    uint64
	blocks uint32
	init   int
	wsID   uint64
	ws     *wireState
}

// addMember appends one in-sync member with an empty resync backlog
// (construction only: membership is fixed afterwards).
func (rs *replicaSet) addMember(target int) {
	rs.members = append(rs.members, target)
	rs.inSync = append(rs.inSync, true)
	rs.dirty = append(rs.dirty, nil)
}

func (rs *replicaSet) pos(target int) int {
	for k, m := range rs.members {
		if m == target {
			return k
		}
	}
	return -1
}

func (rs *replicaSet) inSyncCount() int {
	n := 0
	for _, ok := range rs.inSync {
		if ok {
			n++
		}
	}
	return n
}

// firstInSync returns the lowest in-sync member other than `not`, or -1.
func (rs *replicaSet) firstInSync(not int) int {
	for k, m := range rs.members {
		if rs.inSync[k] && m != not {
			return m
		}
	}
	return -1
}

// addDirty queues the write ws carries for member's background resync.
func (rs *replicaSet) addDirty(member int, ws *wireState) {
	k := rs.pos(member)
	rs.dirty[k] = append(rs.dirty[k], dirtyExtent{
		ssdIdx: ws.ssdIdx, lba: ws.wc.LBA, blocks: ws.wc.Blocks,
		init: ws.init, wsID: ws.id, ws: ws,
	})
}

// Replication introspection (tests, benches, the public rio API).

// Replicas returns the replica factor: the size of every replica set
// (1 = no replication).
func (c *Cluster) Replicas() int { return len(c.replSets[0].members) }

// WriteQuorum returns the effective write quorum per replica set.
func (c *Cluster) WriteQuorum() int { return c.writeQuorum }

// SetCount returns the number of replica sets (== Targets() without
// replication).
func (c *Cluster) SetCount() int { return len(c.replSets) }

// SetOf returns the replica set a target server belongs to.
func (c *Cluster) SetOf(target int) int { return c.setOf[target] }

// SetMembers returns the target ids of one replica set.
func (c *Cluster) SetMembers(set int) []int {
	return append([]int(nil), c.replSets[set].members...)
}

// InSync reports whether a target is a live, in-sync member of its replica
// set. A cut member of a larger set is out of sync until its resync
// rejoins it; a set of one never degrades, so there it is the target being
// powered.
func (c *Cluster) InSync(target int) bool {
	rs := c.replSets[c.setOf[target]]
	return rs.inSync[rs.pos(target)] && c.targets[target].alive
}

// SetEpoch returns the membership epoch of a replica set: it advances on
// every degrade and every resync-rejoin.
func (c *Cluster) SetEpoch(set int) int { return c.replSets[set].epoch }

// ResyncBacklog returns how many missed extents are queued for a
// degraded target's background resync.
func (c *Cluster) ResyncBacklog(target int) int {
	rs := c.replSets[c.setOf[target]]
	return len(rs.dirty[rs.pos(target)])
}

// buildMemberCapsule builds one member's copy of a batch — the only place
// a command capsule is assembled, whatever the set size and whatever route
// carries it: the member reads each command's chain record at its own
// position in the command's member list, and the capsule carries the
// member's piggybacked retire watermark as of now. The capsule holds its own
// copy of the command list.
func (in *Initiator) buildMemberCapsule(cmds []*wireState, member, stream int) *capsule {
	cp := in.c.getCapsule(in.epoch, member)
	cp.cmds = append(cp.cmds, cmds...)
	for _, ws := range cmds {
		if !ws.wc.Flush {
			cp.inline += ws.wc.InlineBytes(inlineThreshold)
		}
	}
	if in.cfg.Mode == ModeRio {
		if k := stream*len(in.targets) + member; in.retireMark[k] > 0 {
			cp.retire1[0] = retire{stream: uint16(stream), upTo: in.retireMark[k]}
			cp.retires = cp.retire1[:]
			in.retireSent[k] = in.retireMark[k]
		}
	}
	return cp
}

// outstandingOfSet returns this initiator's in-flight commands toward one
// replica set in id order.
func (in *Initiator) outstandingOfSet(set int) []*wireState {
	var out []*wireState
	for _, ws := range in.outstanding.All() {
		if ws.target == set {
			out = append(out, ws)
		}
	}
	return out
}

// memberAck accounts one member CQE: the completion is delivered to the
// sequencer at write quorum; the command's wire state is recycled only once
// every member copy resolved, so a straggler ack can never reference freed
// state.
func (in *Initiator) memberAck(ws *wireState, from int) {
	k := ws.q.Pos(from)
	if !ws.q.Ack(k) {
		return // duplicate (a replayed copy of a completed write), or a member cancelled by a power cut
	}
	if ws.q.Done() {
		in.c.replSets[ws.target].settled.Broadcast()
	}
	if ws.firstAck == 0 {
		ws.firstAck = in.Eng.Now()
	}
	if ws.q.Fire() {
		addWaitWire(ws, trace.WaitQuorum, in.Eng.Now()-ws.firstAck)
		ws.hwDone.Fire()
		in.deliverCompletions(ws)
	}
	// A member ack arriving after the request was delivered advances that
	// member's retire watermark (the delivery path advanced the marks of
	// members that had acked by then).
	if ws.q.Fired && ws.pendingRq == 0 && ws.chain[k].idx > 0 {
		in.bumpRetireMark(ws.stream, from, ws.chain[k].idx)
	}
	in.maybeRecycle(ws)
}

// maybeRecycle ends a wire command's one lifetime: it leaves the outstanding
// table and returns to its shard pool in the same instant, exactly once, and
// only when nothing references it anymore — quorum delivered, every origin
// request delivered, every member resolved. Until then it is outstanding:
// recovery replays it, degrade resolves it, the read cache does not fill
// under it.
func (in *Initiator) maybeRecycle(ws *wireState) {
	q := &ws.q
	if cur, _ := in.outstanding.Get(ws.id); !q.Fired || !q.Done() || ws.pendingRq != 0 || ws.pinned || cur != ws {
		return
	}
	in.outstanding.Delete(ws.id)
	in.putWire(ws)
}

// degradeMember marks a power-cut target out of sync: the set epoch
// advances, the survivors persist an epoch mark, and every in-flight
// command that still expected this member's ack is resolved (so the
// survivors' completions keep flowing where they still make a write
// quorum) and logged into the member's resync backlog — it may have missed
// the write.
func (c *Cluster) degradeMember(m int) {
	rs := c.replSets[c.setOf[m]]
	pos := rs.pos(m)
	if pos < 0 || !rs.inSync[pos] {
		return
	}
	rs.inSync[pos] = false
	rs.epoch++
	c.appendEpochMarks(rs, m)
	for _, in := range c.inits {
		for _, ws := range in.outstandingOfSet(rs.id) {
			q := &ws.q
			if !q.Cancel(q.Pos(m)) {
				continue
			}
			if ws.wc.Flush {
				// A barrier now certifies the surviving members only.
				if q.Need > 0 {
					q.Need--
				}
				if q.Acks > 0 && q.Fire() {
					ws.hwDone.Fire()
				}
			} else {
				rs.addDirty(m, ws)
			}
			in.maybeRecycle(ws)
		}
	}
	rs.settled.Broadcast()
}

// appendEpochMarks persists the set's new membership epoch into every
// live member's PMR partitions (one mark per initiator partition), via
// the engine's mark helper: appended, persisted and immediately retired
// — a mark is evidence, not ordering state, and must never hold the
// circular log's head back.
func (c *Cluster) appendEpochMarks(rs *replicaSet, member int) {
	for k, mt := range rs.members {
		if !rs.inSync[k] {
			continue
		}
		t := c.targets[mt]
		if !t.alive {
			continue
		}
		for i := 0; i < c.cfg.Initiators; i++ {
			order.AppendEpochMark(t.logs[i], core.EpochMarkAttr(uint16(i), rs.id, rs.epoch, member))
		}
	}
}

// extentSettled reports whether the command behind a resync extent holds
// no more in-flight replica state, i.e. the content has landed on every
// surviving member's media and a copy from a peer observes the final
// value.
func (c *Cluster) extentSettled(d dirtyExtent) bool {
	if d.ws.id != d.wsID {
		return true // recycled: the command resolved long ago
	}
	if d.ws.epoch != c.inits[d.init].epoch {
		return true // the owning initiator crashed; copy whatever peers hold
	}
	return d.ws.q.Done()
}

// rejoin repairs a restarted member from its in-sync peer and puts it back
// in sync: the missed-extent backlog is drained by copying block content
// from the peer's media. New writes keep landing in the backlog while the
// drain runs — the set stays degraded — so the loop runs until it is
// empty; the final emptiness check and the rejoin flip happen with no
// yield in between. Returns the number of blocks copied.
func (c *Cluster) rejoin(p *sim.Proc, m int) int {
	rs := c.replSets[c.setOf[m]]
	pos := rs.pos(m)
	copied := 0
	for len(rs.dirty[pos]) > 0 {
		// Reads keep going to an in-sync peer until the flip below: a
		// member is in sync only with an empty backlog.
		copied += c.copyExtent(p, rs, m, rs.dirty[pos][0])
		rs.dirty[pos] = rs.dirty[pos][1:]
	}
	rs.inSync[pos] = true
	rs.epoch++
	c.appendEpochMarks(rs, m)
	// Belt and braces: any block of this set cached before the cut was
	// already invalidated at the cut; drop the set again so nothing
	// cached during the degraded window can straddle the rejoin.
	for _, in := range c.inits {
		in.invalidateSetReads(rs.id)
	}
	return copied
}

// replResyncAck credits a resync copy as the member's late durability
// ack: where the quorum is the full set (a 2-way set) a write cannot
// complete while the set is degraded — it becomes durable on the full set
// only when the background resync lands its content on the rejoining
// member, and that is the moment the completion fires. The member's
// retire watermark is NOT advanced: its chain was reset, and the
// old-chain index would poison the fresh log partition's retirement.
func (in *Initiator) replResyncAck(ws *wireState, member int) {
	q := &ws.q
	if k := q.Pos(member); k >= 0 && q.Got[k] {
		return // the member genuinely acked before the cut
	}
	q.Acks++
	if q.Fire() {
		ws.hwDone.Fire()
		in.deliverCompletions(ws)
	}
	in.maybeRecycle(ws)
}

// blockCopy is one block of a peer's media on its way onto a member.
type blockCopy struct {
	dst *ssd.SSD
	lba uint64
	rec ssd.Rec
}

// writeCopies writes blocks read off a peer's media onto members, stamps
// and all, and waits for every write to land.
func (c *Cluster) writeCopies(p *sim.Proc, copies []blockCopy) {
	done := sim.NewWaitGroup(c.Eng)
	for _, b := range copies {
		done.Add(1)
		var data [][]byte
		if b.rec.Data != nil {
			data = [][]byte{b.rec.Data}
		}
		b.dst.Submit(&ssd.Command{
			Op: ssd.OpWrite, LBA: b.lba, Blocks: 1,
			Stamps: []uint64{b.rec.Stamp}, Data: data,
			Done: func(*ssd.Command) { done.Done() },
		})
	}
	done.Wait(p)
}

// copyExtent copies one missed extent from an in-sync peer's media onto
// the resyncing member, returning how many blocks were written. It
// waits for the originating command to settle first, so the copy reads
// the final content; latest-wins overwrites make repeated copies of the
// same LBA idempotent.
func (c *Cluster) copyExtent(p *sim.Proc, rs *replicaSet, m int, d dirtyExtent) int {
	for !c.extentSettled(d) {
		rs.settled.Wait(p)
	}
	src := rs.firstInSync(m)
	if src < 0 {
		return 0
	}
	sd, dst := c.targets[src].ssds[d.ssdIdx], c.targets[m].ssds[d.ssdIdx]
	var copies []blockCopy
	for b := uint32(0); b < d.blocks; b++ {
		// A block rolled back or never landed is not visible: nothing to copy.
		if rec, ok := sd.Visible(d.lba + uint64(b)); ok {
			copies = append(copies, blockCopy{dst, d.lba + uint64(b), rec})
		}
	}
	if len(copies) == 0 {
		return 0
	}
	// One fabric hop for the delta payload (peer media -> member).
	bytes := len(copies) * ssd.BlockSize
	p.Sleep(c.cfg.Fabric.PropDelay + sim.Time(float64(bytes)/c.cfg.Fabric.BytesPerNs))
	c.writeCopies(p, copies)
	// The content now lives on the member: credit the late ack (relevant
	// when the quorum is the full set — quorum writes were already fired).
	if d.ws.id == d.wsID && d.ws.epoch == c.inits[d.init].epoch {
		c.inits[d.init].replResyncAck(d.ws, m)
	}
	return len(copies)
}

// replicaRepair is rule (6) of recover: evidence members of one set that
// restarted together converge byte-identically — every within-prefix
// durable entry one of them holds is re-replicated to those that lost it
// (a group can be durable on a quorum without being durable everywhere) —
// and the set's membership is reset for its next incarnation: they are in
// sync, with nothing owed. Returns the number of blocks copied.
func (c *Cluster) replicaRepair(p *sim.Proc, views []core.ServerView, report *core.Report, src []repairSource) int {
	var copies []blockCopy
	for _, v := range views {
		if src[v.Server] != fromEvidence {
			continue
		}
		for _, e := range v.Entries {
			if e.EpochMark || e.IPU {
				continue
			}
			sr := report.Stream(e.Initiator, e.Stream)
			if sr == nil || e.SeqEnd > sr.DurablePrefix {
				continue
			}
			for b := uint32(0); b < e.Blocks; b++ {
				lba := e.LBA + uint64(b)
				rec, ok := c.targets[v.Server].ssds[e.NS].Durable(lba)
				if !ok || !e.Owns(rec.Stamp) {
					continue
				}
				for _, mt := range c.replSets[c.setOf[v.Server]].members {
					if mt == v.Server || src[mt] != fromEvidence {
						continue
					}
					dst := c.targets[mt].ssds[e.NS]
					if r2, ok2 := dst.Durable(lba); !ok2 || r2.Stamp != rec.Stamp {
						copies = append(copies, blockCopy{dst, lba, rec})
					}
				}
			}
		}
	}
	c.writeCopies(p, copies)
	for _, rs := range c.replSets {
		restarted := false
		for k, m := range rs.members {
			if src[m] == fromEvidence {
				rs.inSync[k], rs.dirty[k], restarted = true, nil, true
			}
		}
		if restarted {
			rs.epoch++
		}
	}
	return len(copies)
}
