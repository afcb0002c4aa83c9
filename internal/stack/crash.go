package stack

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Faults and recovery. Any set of servers can lose power (PowerCutTarget,
// PowerCutInitiator; PowerCutAll is every one of them): volatile state is
// lost, PMR and media survive. The paper's §4.4 recovery is one algorithm
// and it runs in one place, Recover: RecoverFull, RecoverTarget and
// RecoverInitiator only name which servers come back. What each phase
// covers is decided from those two sets plus what the cluster can observe
// (which members are in sync, which servers are powered) by the rules
// numbered (1)–(7) at the phase that applies them; DESIGN.md §7 has them
// as one table.

// RecoveryTiming reports the phases the paper measures in §6.5.
type RecoveryTiming struct {
	OrderRebuild sim.Time // scan PMRs, transfer attributes, merge globally
	DataRecovery sim.Time // discard (roll back) blocks beyond the prefix, repair what is missing
	Discarded    int      // entries rolled back
	Replayed     int      // wire commands re-sent by initiators plus blocks copied from peer media
}

// pmrEntryWireSize is the per-entry cost basis for recovery scans: Rio
// persists full 64-byte attributes, Horae's ordering metadata is smaller
// (~40 bytes), which is why the paper reports a faster order rebuild for
// Horae (38 ms vs 55 ms).
func (c *Cluster) pmrEntryWireSize() int {
	if c.cfg.Mode == ModeHorae {
		return 40
	}
	return core.EntrySize
}

// pmrScanPerByte is the MMIO read cost that dominates order rebuild.
const pmrScanPerByte = 26 // ns per byte

// PowerCutTarget crashes target server i: its SSDs lose volatile state,
// every initiator's connection to it drops, and all in-flight work
// toward it is lost. PMR and media survive.
func (c *Cluster) PowerCutTarget(i int) {
	t := c.targets[i]
	if !t.alive {
		return
	}
	t.alive = false
	t.epoch++
	for _, conn := range t.conns {
		conn.Disconnect()
	}
	for _, sd := range t.ssds {
		sd.PowerCut()
	}
	for init := 0; init < c.cfg.Initiators; init++ {
		t.dropInitiator(init)
	}
	t.doneQ.Drain()
	clear(t.flushers) // the FLUSHes are lost: queued barriers die like stranded commands, to be replayed
	if t.relay != nil {
		t.relay.ackQ.Drain()
		t.relay.dropAcks() // the ack capsule being coalesced dies with the NIC
	}
	// Degrade or strand, from what can be observed: while another member of
	// the set is still in sync the cut degrades the set instead of stalling
	// the streams — survivors keep completing at quorum, the member's missed
	// writes accumulate in its resync backlog, and in-flight commands stop
	// waiting for an ack this member can never send. The last in-sync member
	// of a set (of any size: a set of one has no other) has no survivor to
	// complete anything: it stays in sync and its commands stay outstanding,
	// for replay when it recovers.
	if c.replSets[c.setOf[i]].firstInSync(i) >= 0 {
		c.degradeMember(i)
	}
	if c.cfg.ReplRelay {
		// The relay route repairs itself around the dead member (after the
		// degrade sweep, so cancelled member positions are already
		// resolved): links drop, the head's open quorum records flush, and
		// a dead head's in-flight commands re-route to direct.
		c.relayCut(i)
	}
	// Read path: every initiator drops its cached blocks of the dead
	// member's set (recovery may roll their content back) and reroutes
	// its in-flight reads toward the member to a surviving peer.
	for _, in := range c.inits {
		in.abortTargetReads(i)
	}
}

// dropInitiator discards what this target holds in flight for initiator
// init when the link between them dies (either side's power cut): its
// lanes (queued capsules, pending response capsules) and its relay
// records. Other initiators' state lives in separate lanes and is not
// touched.
func (t *Target) dropInitiator(init int) {
	for qp := 0; qp < t.c.cfg.QPs; qp++ {
		t.lane(init, qp).reset()
	}
	if t.relay != nil {
		t.relay.resetInitiator(init)
	}
}

// PowerCutInitiator crashes initiator server i: its volatile state
// (sequencer, shards, pools, outstanding commands, retire watermarks) is
// lost and its connections drop. Targets, their PMR partitions for this
// initiator, and EVERY OTHER initiator are untouched — the other
// initiators' ordering domains keep submitting, completing and retiring
// as if nothing happened.
func (c *Cluster) PowerCutInitiator(i int) {
	in := c.inits[i]
	if !in.alive {
		return
	}
	in.alive = false
	for _, t := range c.targets {
		t.conns[i].Disconnect()
		t.dropInitiator(i)
	}
	in.crashVolatile()
	for _, rs := range c.replSets {
		rs.settled.Broadcast() // the cut settles every extent this initiator owned
	}
}

// PowerCutAll models a full power outage: every target and every
// initiator crashes (both cuts are idempotent on a link the other end
// already darkened).
func (c *Cluster) PowerCutAll() {
	for i := range c.targets {
		c.PowerCutTarget(i)
	}
	for i := range c.inits {
		c.PowerCutInitiator(i)
	}
}

// RecoverFull performs whole-cluster recovery (§4.4.1) after PowerCutAll;
// the per-initiator PMR scans are merged into one report keyed by
// (initiator, stream). The cluster is reusable afterwards.
func (c *Cluster) RecoverFull(p *sim.Proc) (*core.Report, RecoveryTiming) {
	return c.Recover(p, upTo(len(c.targets)), upTo(len(c.inits)))
}

// RecoverInitiator performs single-initiator recovery after
// PowerCutInitiator(i). No other initiator's prefixes, PMR entries, gates
// or watermarks are read, reset or rolled back — their traffic continues
// throughout.
func (c *Cluster) RecoverInitiator(p *sim.Proc, i int) (*core.Report, RecoveryTiming) {
	return c.Recover(p, nil, []int{i})
}

// RecoverTarget performs target recovery (§4.4.1) after PowerCutTarget(i).
// No stream of a set that kept a survivor stalled, and no initiator replays
// anything toward such a member; a server that was the last of its set is
// repaired by the initiators' replay.
func (c *Cluster) RecoverTarget(p *sim.Proc, i int) (*core.Report, RecoveryTiming) {
	return c.Recover(p, []int{i}, nil)
}

func upTo(n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	return all
}

// repairSource says where a server restarted by a Recover run gets the
// writes it is missing.
type repairSource uint8

const (
	notRestarted repairSource = iota // outside the run, or left down by rule (1)
	fromEvidence                     // its PMR is evidence: roll back beyond the prefix, initiators re-send what they have in flight
	fromPeer                         // its PMR is stale: an in-sync peer's media holds everything it missed
)

// Recover brings the given target servers and initiator servers back in one
// pass of the §4.4 algorithm: power on → scan → merge → roll back → repair
// from media → format + chain reset → links up → reopen. The servers of
// the run are down; everything else keeps running throughout, and a server
// that is down and outside the run is worked around, never waited for.
// Servers cut in one instant are repaired by one run over all of them: two
// runs would pay the scan twice and roll back against half the evidence.
func (c *Cluster) Recover(p *sim.Proc, targets, inits []int) (*core.Report, RecoveryTiming) {
	var tm RecoveryTiming

	// (1) Repair source per restarted server, classified before anything
	// is powered on (a peer this very run restarts must still read as
	// down). A degraded member whose in-sync peer is up is repaired from
	// that peer. A member still in sync — the last of its set to go down —
	// or a degraded one whose in-sync peer restarts in the same run is an
	// evidence server. A degraded member whose in-sync peer is down and
	// outside the run stays down: rejoining it now would declare it in
	// sync from nothing, and the backlog it owes cannot be read from a
	// dark peer. Its later recovery finds it as it was left.
	src := make([]repairSource, len(c.targets))
	for _, m := range targets {
		rs := c.replSets[c.setOf[m]]
		switch peer := rs.firstInSync(m); {
		case rs.inSync[rs.pos(m)] || peer < 0 || slices.Contains(targets, peer):
			src[m] = fromEvidence
		case c.targets[peer].alive:
			src[m] = fromPeer
		}
	}
	back := func(i int) bool { return slices.Contains(inits, i) } // this run brings initiator i back

	// Power on. A server repaired from a peer starts clean right away —
	// its own PMR is pre-cut evidence the survivors' logs superseded, its
	// gates expect dense indices from 1 again — with its links up: it is
	// out of sync, so nobody dispatches toward it until it rejoins.
	// An initiator outside the run that is up sends the moment a link is.
	initUp := slices.ContainsFunc(c.inits, func(in *Initiator) bool { return in.alive && !back(in.id) })
	for _, m := range targets {
		if src[m] == notRestarted {
			continue
		}
		t := c.targets[m]
		t.alive = true
		for _, sd := range t.ssds {
			sd.Restart()
		}
		if t.relay != nil {
			t.relay.reset()
		}
		if src[m] == fromPeer {
			for i, in := range c.inits {
				core.Format(t.pmrRegion(i))
				t.resetInitiatorState(i)
				if in.alive {
					in.restartChain(m)
				}
			}
		}
		// (5) Links stay down until replay is prepared: the scan below
		// costs tens of simulated milliseconds, and live traffic reaching a
		// restarted evidence server in that window would run through stale
		// pre-crash gate state and pre-format PMR partitions — and a command
		// posted during the window could be collected into the replay set
		// while its original capsule is still in flight, so the replay's
		// re-stamp would rewrite the attributes that capsule points at and
		// the original would reach the gate under the replay's ServerIdx
		// values. With the links down, new dispatches toward the server
		// are dropped whole (exactly like in-flight work at the cut) and
		// repaired by the same replay. When no initiator is up nobody can
		// send, and the links come up now to carry the attribute transfer.
		if src[m] == fromPeer || !initUp {
			t.linksUp()
		}
	}
	// A recovering initiator is not alive until the end of the run, so its
	// links to the powered servers can carry its attributes from the start.
	for _, i := range inits {
		for _, t := range c.targets {
			if t.alive {
				reconnect(t.conns[i])
			}
		}
	}

	start := p.Now()
	views := c.scanViews(p, src, inits)
	report := order.MergeViews(views)
	tm.OrderRebuild = p.Now() - start

	start = p.Now()
	// (2) An entry is rolled back iff the server holding it is an evidence
	// server of this run or the initiator that wrote it came back in it.
	// What replay rewrites is rolled back first all the same: an entry that
	// will NOT be replayed (its request already delivered, or unknown) must
	// not leave stale data behind. Every other entry belongs to traffic
	// that is live.
	tm.Discarded = c.rollback(p, report, src, inits)
	// Repair from media: (6) among evidence members of a set that restarted
	// together (replicaRepair), and each peer-repaired member from its peer.
	tm.Replayed = c.replicaRepair(p, views, report, src)
	for _, m := range targets {
		if src[m] == fromPeer {
			tm.Replayed += c.rejoin(p, m)
		}
	}

	// Format and chain reset in one no-yield region, down to the links
	// coming up: once the first replay posting yields the CPU another
	// initiator's live traffic may dispatch toward a restarted server, and
	// it must already be minting indices on the fresh chain — a stale-chain
	// command would park forever in the fresh gate.
	//
	// (3) Partition (server, initiator) is formatted and its gates reset
	// iff one end came back in this run and the other end is powered. A
	// dead end's partition stays: a dead server's cannot be written, and a
	// dead initiator's is the evidence its own recovery will scan —
	// formatting it here would silently shrink that initiator's durable
	// prefix. Either is cleaned when its dead end recovers.
	// (4) Every initiator that stayed up replays what it has in flight
	// toward every restarted evidence server, on a fresh chain.
	var reopen []func()
	for m, t := range c.targets {
		if !t.alive || src[m] == fromPeer {
			continue
		}
		for i, in := range c.inits {
			replays := src[m] == fromEvidence && in.alive && !back(i)
			if !back(i) && !replays {
				continue
			}
			core.Format(t.pmrRegion(i))
			t.resetInitiatorState(i)
			if replays {
				cmds := in.prepareReplay(m)
				tm.Replayed += len(cmds)
				reopen = append(reopen, func() { in.postReplay(p, m, cmds) })
			}
		}
		if src[m] == fromEvidence {
			t.linksUp()
		}
	}
	// An initiator is alive only after format: an application loop gated on
	// Alive() that resumed during the scan would stage commands, and append
	// entries, that the format above then orphans — ghost entries the fresh
	// gates would wait on forever.
	for _, i := range inits {
		c.inits[i].alive = true
	}
	// Reopen: each initiator repairs its own chains independently.
	for _, post := range reopen {
		post()
	}
	tm.DataRecovery = p.Now() - start
	// Belt and braces for the read caches: the cut already dropped an
	// evidence server's blocks, but writes populated into a cache while its
	// links were down may have died un-replayed — drop its set again now
	// that its content is final.
	for _, m := range targets {
		if src[m] == fromEvidence {
			for _, in := range c.inits {
				in.invalidateSetReads(c.setOf[m])
			}
		}
	}
	return report, tm
}

// linksUp reconnects the links of this server that are down: its conn to
// every initiator and the relay links it touches (a follower: its own; the
// set head: all of the set's).
func (t *Target) linksUp() {
	for _, conn := range t.conns {
		reconnect(conn)
	}
	if t.relay == nil {
		return
	}
	rs := t.c.replSets[t.c.setOf[t.id]]
	for k, conn := range rs.relay {
		if conn != nil && (t.id == rs.relayHead() || t.id == rs.members[k]) {
			reconnect(conn)
		}
	}
}

// reconnect brings a link up unless it already is: Reconnect resets the
// link's per-QP pacing state, which a link carrying live traffic must keep.
func reconnect(conn *fabric.Conn) {
	if !conn.Up() {
		conn.Reconnect()
	}
}

// scanAndShip is the one PMR scan cost model: sweep a region of this
// target's PMR (MMIO reads, pmrScanPerByte — the whole region, because the
// head/tail pointers were volatile), decode it into a recovery view that
// names, per namespace, the durability rule of the device behind it, and
// ship the entries found to whoever rebuilds the order over conn.
func (t *Target) scanAndShip(p *sim.Proc, region []byte, conn *fabric.Conn) core.ServerView {
	entry := t.c.pmrEntryWireSize()
	p.Sleep(sim.Time(len(region)/core.EntrySize*entry) * pmrScanPerByte)
	view := order.ScanPartition(t.id, t.ssds[0].HasPLP(), region)
	for _, sd := range t.ssds {
		view.NSPLP = append(view.NSPLP, sd.HasPLP())
	}
	if n := len(view.Entries) * entry; n > 0 && conn.Up() {
		conn.BulkWrite(p, fabric.Target, n)
	}
	return view
}

// scanViews reads PMR regions via the ordering engine's partition scan,
// transfers the ordering attributes, and returns one view per scan. Servers
// scan in parallel (§4.3.2: "each server persists/validates in parallel").
//
// (7) The scan reads every partition of every powered server when an
// evidence server restarted — the global order of a stream spans servers,
// so the servers that stayed up contribute their attributes too — shipped
// over initiator 0's connection (such a recovery is orchestrated once).
// Otherwise only the recovering initiators' partitions are swept, each
// shipped to its owner, so one initiator's recovery cost is independent of
// its neighbours'. A server repaired from a peer has nothing of its own to
// read: its peer's PMR is scanned on its behalf and shipped to it. A server
// that is down contributes nothing, and nothing waits for it: its
// partitions are cleaned when it recovers itself.
func (c *Cluster) scanViews(p *sim.Proc, src []repairSource, inits []int) []core.ServerView {
	views := make([]core.ServerView, 0, len(c.targets))
	wg := sim.NewWaitGroup(c.Eng)
	scan := func(t *Target, region []byte, conn *fabric.Conn) {
		k := len(views)
		views = append(views, core.ServerView{})
		wg.Add(1)
		c.Eng.Go(fmt.Sprintf("recover/scan%d", t.id), func(sp *sim.Proc) {
			defer wg.Done()
			views[k] = t.scanAndShip(sp, region, conn)
		})
	}
	evidence := slices.Contains(src, fromEvidence)
	for m, t := range c.targets {
		switch {
		case !t.alive:
		case src[m] == fromPeer:
			peer := c.targets[c.replSets[c.setOf[m]].firstInSync(m)]
			scan(peer, peer.ssds[0].PMRBytes(), t.conns[0])
		case evidence:
			scan(t, t.ssds[0].PMRBytes(), t.conns[0])
		default:
			for _, i := range inits {
				scan(t, t.pmrRegion(i), t.conns[i])
			}
		}
	}
	wg.Wait(p)
	return views
}

// rollback erases what every beyond-prefix, non-IPU entry that rule (2)
// selects — held by an evidence server of the run (src) or written by an
// initiator the run brings back (inits) — owns of the blocks it addresses
// (core.Attr.Owns: each block carries its own request's identity, so a
// merged entry finds all its groups' blocks and nothing older at the same
// address), concurrently per SSD. Returns the number of entries erased.
func (c *Cluster) rollback(p *sim.Proc, report *core.Report, src []repairSource, inits []int) int {
	type eraseKey struct{ server, ssdIdx int }
	erases := map[eraseKey][]core.Entry{}
	var keys []eraseKey
	for _, sr := range report.Streams {
		for _, e := range sr.Discard {
			if src[e.Server] != fromEvidence && !slices.Contains(inits, int(e.Initiator)) {
				continue
			}
			if !c.targets[e.Server].alive {
				// A powered-off SSD silently drops commands: submitting
				// an erase there would hang recovery forever. The stale
				// blocks are cleaned by that target's own recovery.
				continue
			}
			k := eraseKey{e.Server, int(e.NS)}
			if _, ok := erases[k]; !ok {
				keys = append(keys, k)
			}
			erases[k] = append(erases[k], e)
		}
	}
	// Rolled-back blocks may be cached on ANY initiator (population
	// happens at write submission): fence every touched set out of every
	// read cache before the erases land.
	for _, k := range keys {
		for _, in := range c.inits {
			in.invalidateSetReads(c.SetOf(k.server))
		}
	}
	total := 0
	wg := sim.NewWaitGroup(c.Eng)
	for _, k := range keys {
		list := erases[k]
		total += len(list)
		sd := c.targets[k.server].ssds[k.ssdIdx]
		wg.Add(1)
		c.Eng.Go(fmt.Sprintf("recover/erase%d.%d", k.server, k.ssdIdx), func(sp *sim.Proc) {
			defer wg.Done()
			inner := sim.NewWaitGroup(c.Eng)
			for _, e := range list {
				inner.Add(1)
				sd.Submit(&ssd.Command{
					Op: ssd.OpErase, LBA: e.LBA, Blocks: e.Blocks, Owns: e.Attr.Owns,
					Done: func(*ssd.Command) { inner.Done() },
				})
			}
			inner.Wait(sp)
		})
	}
	wg.Wait(p)
	return total
}

// restartChain restarts this initiator's per-stream order chains, and the
// retire watermarks that counted along them, toward a target whose gates
// were just reset and expect dense indices from 1 again.
func (in *Initiator) restartChain(target int) {
	for s := 0; s < in.cfg.Streams; s++ {
		in.retireMark[s*len(in.targets)+target] = 0
		in.retireSent[s*len(in.targets)+target] = 0
		if in.cfg.Mode == ModeRio {
			in.seq.Stream(s).ResetServerChain(target)
		}
	}
}

// prepareReplay collects this initiator's outstanding commands toward the
// restarted target in per-stream ServerIdx order, restarts the chains
// toward it, has stampMember re-mint the target's chain of every command in
// the replay set — the same record the replayed capsule points at and the
// gate reads, so nothing stale survives — and pins the set. Outstanding
// means not yet recycled, so a write that completed but is still undelivered
// is re-sent too: roll-back may have erased it as beyond the prefix, and the
// ack of its replayed copy is a duplicate that memberAck drops. A command
// dispatch has not stamped yet is not in flight: dispatch will mint it on
// the fresh chain. The re-stamp is in place, under the capsules that point
// at the records: safe, as one (command, member) pair is in at most one live
// capsule at a time — the cut dropped the previous copy whole, and recover's
// rule (5) keeps the links down until replay is prepared. It performs no
// simulated work: it must never yield (recover calls it between the
// target's gate reset and its links coming up).
func (in *Initiator) prepareReplay(target int) []*wireState {
	var replay []*wireState
	for _, ws := range in.outstanding.All() {
		if !ws.wc.Flush && ws.q.Pos(target) >= 0 {
			replay = append(replay, ws)
		}
	}
	sort.Slice(replay, func(a, b int) bool {
		x, y := replay[a], replay[b]
		if x.stream != y.stream {
			return x.stream < y.stream
		}
		return x.chain[x.q.Pos(target)].idx < y.chain[y.q.Pos(target)].idx
	})
	// Fresh per-server chains: rebuild in replay order.
	in.restartChain(target)
	for _, ws := range replay {
		if in.cfg.Mode == ModeRio {
			in.stampMember(ws, ws.q.Pos(target))
		}
		// Pin the replay set: a replayed command whose requests all deliver
		// before postReplay's wait loop reaches it must not be recycled (a
		// new owner would Reset the very hwDone signal recovery still waits
		// on).
		ws.pinned = true
	}
	return replay
}

// postReplay re-sends a prepared replay set toward its target — that
// member's capsule only: the command's other members hold their copy or
// have a resync backlog entry for it — and waits for the completions,
// releasing delivered commands back to their pools.
func (in *Initiator) postReplay(p *sim.Proc, target int, replay []*wireState) {
	d := in.getDispatcher(0, nil) // any shard's serves: a replay spans streams
	d.to, d.rest = target, replay
	d.call(p, (*dispatcher).replay)
	// Wait until every replayed command completes, then release the ones
	// whose requests have all been delivered back to their pools.
	for _, ws := range replay {
		in.blockingWait(p, ws.hwDone)
	}
	for _, ws := range replay {
		ws.pinned = false
		in.maybeRecycle(ws)
	}
}

// replay posts the replay set toward member d.to, one capsule per stream in
// chain order (the order prepareReplay left the set in), split where the
// member's position in the commands' fan-outs changes: a capsule names one
// position.
func (d *dispatcher) replay() bool {
	rest := d.rest
	if len(rest) == 0 {
		return false
	}
	stream, k, n := rest[0].stream, rest[0].q.Pos(d.to), 1
	for n < len(rest) && rest[n].stream == stream && rest[n].q.Pos(d.to) == k {
		n++
	}
	d.rest, d.Ret = rest[n:], (*dispatcher).replay
	d.in.stats.WireCmds += int64(n)
	return d.route(rest[:n:n], rest[0].q.Members[:k+1], k, routeDirect)
}
