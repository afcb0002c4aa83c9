package stack

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// RecoveryTiming reports the phases the paper measures in §6.5.
type RecoveryTiming struct {
	OrderRebuild sim.Time // scan PMRs, transfer attributes, merge globally
	DataRecovery sim.Time // discard (roll back) blocks beyond the prefix
	Discarded    int      // entries rolled back
	Replayed     int      // wire commands re-sent (target recovery)
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
	}
	// A member of a larger set degrades it instead of stalling the streams
	// — survivors keep completing at quorum, the member's missed writes
	// accumulate in its resync backlog, and in-flight commands stop
	// waiting for an ack this member can never send. A member that IS its
	// set has no survivors: its commands stay outstanding for replay.
	if len(c.replSets[c.setOf[i]].members) > 1 {
		c.degradeMember(i)
		if c.cfg.ReplRelay {
			// The relay route repairs itself around the dead member (after
			// the degrade sweep, so cancelled member positions are already
			// resolved): links drop, the head's open quorum records flush,
			// and a dead head's in-flight commands re-route to direct.
			c.relayCut(i)
		}
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
}

// PowerCutAll models a full power outage: every target and every
// initiator crashes.
func (c *Cluster) PowerCutAll() {
	for i := range c.targets {
		c.PowerCutTarget(i)
	}
	// Drop every initiator's volatile state: staged work, pools and
	// queued completion capsules. Pooled objects of the dead epoch may
	// still be referenced by in-flight capsules and must not be reissued,
	// and a queued response capsule's CQEs reference dead wireStates.
	for _, in := range c.inits {
		in.crashVolatile()
	}
}

// scanPMR decodes one PMR region of this target into a recovery view
// that names, per namespace, the durability rule of the device behind it.
func (t *Target) scanPMR(region []byte) core.ServerView {
	view := order.ScanPartition(t.id, t.ssds[0].HasPLP(), region)
	for _, sd := range t.ssds {
		view.NSPLP = append(view.NSPLP, sd.HasPLP())
	}
	return view
}

// scanAndShip is the one PMR scan cost model: sweep a region of this
// target's PMR (MMIO reads, pmrScanPerByte — the whole region, because the
// head/tail pointers were volatile), decode it, and ship the entries found
// to whoever rebuilds the order over conn.
func (t *Target) scanAndShip(p *sim.Proc, region []byte, conn *fabric.Conn) core.ServerView {
	entry := t.c.pmrEntryWireSize()
	p.Sleep(sim.Time(len(region)/core.EntrySize*entry) * pmrScanPerByte)
	view := t.scanPMR(region)
	if n := len(view.Entries) * entry; n > 0 && conn.Up() {
		conn.BulkWrite(p, fabric.Target, n)
	}
	return view
}

// scanViews reads PMR regions via the ordering engine's partition scan,
// transfers the ordering attributes to the recovering initiator, and
// returns the per-server views. onlyInit < 0 scans every initiator's
// partition (whole-cluster recovery); otherwise only that initiator's
// partitions are swept and shipped, so one initiator's recovery cost is
// independent of its neighbors'. Servers scan in parallel (§4.3.2:
// "each server persists/validates in parallel").
func (c *Cluster) scanViews(p *sim.Proc, onlyInit int) []core.ServerView {
	views := make([]core.ServerView, len(c.targets))
	wg := sim.NewWaitGroup(c.Eng)
	for i, t := range c.targets {
		i, t := i, t
		if !t.alive {
			// A target that is ALSO down contributes no evidence: a
			// single-initiator recovery must not wait for (or wedge on) a
			// dead server — its partition is cleaned up when that target
			// itself recovers. Whole-cluster paths revive every target
			// before scanning, so this only triggers for onlyInit >= 0.
			views[i] = core.ServerView{Server: i}
			continue
		}
		wg.Add(1)
		c.Eng.Go(fmt.Sprintf("recover/scan%d", i), func(sp *sim.Proc) {
			defer wg.Done()
			// Ship the attributes over the recovering initiator's connection
			// when known, else initiator 0's (whole-cluster recovery is
			// orchestrated once).
			region, conn := t.ssds[0].PMRBytes(), t.conns[0]
			if onlyInit >= 0 {
				region, conn = t.pmrRegion(onlyInit), t.conns[onlyInit]
			}
			views[i] = t.scanAndShip(sp, region, conn)
		})
	}
	wg.Wait(p)
	return views
}

// restartTarget powers a cut target back on with its links up: the SSDs
// restart, every initiator's conn and the relay links the member touches
// (a follower: its own; the set head: all of the set's) reconnect, and its
// volatile relay state starts clean.
func (c *Cluster) restartTarget(m int) {
	t := c.targets[m]
	t.alive = true
	for _, sd := range t.ssds {
		sd.Restart()
	}
	for _, conn := range t.conns {
		conn.Reconnect()
	}
	if t.relay == nil {
		return
	}
	rs := c.replSets[c.setOf[m]]
	for k, conn := range rs.relay {
		if conn != nil && (m == rs.relayHead() || m == rs.members[k]) {
			conn.Reconnect()
		}
	}
	t.relay.reset()
}

// RecoverFull performs whole-cluster recovery (§4.4.1) after
// PowerCutAll: reconnect, rebuild each initiator's global order from its
// persistent ordering attributes (the per-initiator PMR scans are merged
// into one report keyed by (initiator, stream)), and roll back
// out-of-place blocks beyond each ordering domain's durable prefix. The
// cluster is reusable afterwards.
func (c *Cluster) RecoverFull(p *sim.Proc) (*core.Report, RecoveryTiming) {
	var tm RecoveryTiming
	for i := range c.targets {
		c.restartTarget(i)
	}
	start := p.Now()
	views := c.scanViews(p, -1)
	report := order.MergeViews(views)
	tm.OrderRebuild = p.Now() - start

	start = p.Now()
	tm.Discarded = c.rollback(p, report, -1)
	// Re-replicate within-prefix groups that survived on a quorum but not
	// on every member, so the sets converge byte-identically, and restore
	// full membership for the next incarnation.
	tm.Replayed = c.replicaRepair(p, views, report)
	for _, rs := range c.replSets {
		for k := range rs.inSync {
			rs.inSync[k] = true
			rs.dirty[k] = nil
		}
		rs.epoch++
	}
	tm.DataRecovery = p.Now() - start

	// Fresh ordering state for the next incarnation.
	for _, t := range c.targets {
		core.Format(t.ssds[0].PMRBytes())
		t.resetOrderingState()
	}
	// Only now may the initiators accept new work (same rule as
	// RecoverInitiator): an application loop gated on Alive() that
	// resumed during the scan would stage commands the format above is
	// about to orphan — ghost entries the fresh gates would wait on
	// forever.
	for _, in := range c.inits {
		in.alive = true
	}
	return report, tm
}

// RecoverInitiator performs single-initiator recovery after
// PowerCutInitiator(i): reconnect initiator i, scan ONLY its PMR
// partitions across the targets, rebuild its ordering domains, and roll
// back its beyond-prefix blocks. No other initiator's prefixes, PMR
// entries, gates or watermarks are read, reset or rolled back — their
// traffic continues throughout.
func (c *Cluster) RecoverInitiator(p *sim.Proc, i int) (*core.Report, RecoveryTiming) {
	var tm RecoveryTiming
	in := c.inits[i]
	for _, t := range c.targets {
		if t.alive {
			t.conns[i].Reconnect()
		}
	}

	start := p.Now()
	views := c.scanViews(p, i)
	report := order.MergeViews(views)
	tm.OrderRebuild = p.Now() - start

	start = p.Now()
	tm.Discarded = c.rollback(p, report, -1)
	tm.DataRecovery = p.Now() - start

	// Fresh ordering state for initiator i only: format its partitions
	// and drop its target-side gates, slots and watermarks. A dead
	// target's partition cannot be formatted (PMR writes need power) —
	// it is cleaned when that target itself recovers.
	for _, t := range c.targets {
		if !t.alive {
			continue
		}
		core.Format(t.pmrRegion(i))
		t.resetInitiatorState(i)
	}
	// Only now may the initiator accept new work: an application loop
	// gated on Alive() that resumed during the scan would append entries
	// into a partition the format above is about to wipe.
	in.alive = true
	return report, tm
}

// rollback erases the blocks of every beyond-prefix, non-IPU entry,
// concurrently per SSD. If onlyServer >= 0 only that server is rolled
// back. Returns the number of entries erased.
func (c *Cluster) rollback(p *sim.Proc, report *core.Report, onlyServer int) int {
	type eraseKey struct{ server, ssdIdx int }
	erases := map[eraseKey][]core.Entry{}
	var keys []eraseKey
	streams := make([]core.StreamKey, 0, len(report.Streams))
	for id := range report.Streams {
		streams = append(streams, id)
	}
	sort.Slice(streams, func(i, j int) bool {
		a, b := streams[i], streams[j]
		if a.Initiator != b.Initiator {
			return a.Initiator < b.Initiator
		}
		return a.Stream < b.Stream
	})
	for _, id := range streams {
		for _, e := range report.Streams[id].Discard {
			if onlyServer >= 0 && e.Server != onlyServer {
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
				stamps := make([]uint64, e.Blocks)
				for i := range stamps {
					stamps[i] = core.AttrStamp(e.Attr)
				}
				inner.Add(1)
				sd.Submit(&ssd.Command{
					Op: ssd.OpErase, LBA: e.LBA, Blocks: e.Blocks, Stamps: stamps,
					Done: func(*ssd.Command) { inner.Done() },
				})
			}
			inner.Wait(sp)
		})
	}
	wg.Wait(p)
	return total
}

// RecoverTarget performs target recovery (§4.4.1) after PowerCutTarget(i):
// reconnect every initiator to the restarted server, rebuild the global
// list (alive servers' attributes are NOT dropped), and repair the broken
// chains by replaying each surviving initiator's in-flight commands
// toward the failed target — one initiator at a time, each with its own
// freshly reset per-server chains. Replay is idempotent.
func (c *Cluster) RecoverTarget(p *sim.Proc, i int) (*core.Report, RecoveryTiming) {
	if len(c.replSets[c.setOf[i]].members) > 1 {
		// The set kept completing on its other members: recovery is a
		// background resync from a peer replica; no initiator replays
		// anything and no stream stalled.
		return c.resyncTarget(p, i)
	}
	var tm RecoveryTiming
	t := c.targets[i]
	t.alive = true
	for _, sd := range t.ssds {
		sd.Restart()
	}
	// The connections stay DOWN until replay is prepared: the scan below
	// costs tens of simulated milliseconds, and live traffic reaching the
	// restarted target in that window would run through stale pre-crash
	// gate state and pre-format PMR partitions — and a command posted
	// during the window could be collected into the replay set while its
	// original capsule is still in flight, so the replay's vector re-marks
	// would corrupt the capsule's framing. With the links down, new
	// dispatches toward the target are dropped whole (exactly like
	// in-flight work at the cut) and repaired by the same replay.

	start := p.Now()
	views := c.scanViews(p, -1)
	report := order.MergeViews(views)
	tm.OrderRebuild = p.Now() - start

	start = p.Now()
	// The failed server's beyond-prefix blocks are rewritten by replay;
	// entries that will NOT be replayed (their requests already delivered
	// or unknown) are rolled back first so stale data cannot survive.
	tm.Discarded = c.rollback(p, report, i)

	// Reset the failed target's ordering state and EVERY surviving
	// initiator's chains toward it in one atomic step (prepareReplay
	// never yields): once the first replay posting yields the CPU,
	// another initiator's live traffic may dispatch toward the restarted
	// target, and it must already be minting indices on the fresh chain —
	// a stale-chain command would park forever in the fresh gate. A DEAD
	// initiator's partition is left untouched: it is the recovery
	// evidence its own RecoverInitiator will scan, and formatting it
	// here would silently shrink that initiator's durable prefix.
	replays := make([][]*wireState, len(c.inits))
	for idx, in := range c.inits {
		if !in.alive {
			continue // a dead initiator recovers via RecoverInitiator
		}
		core.Format(t.pmrRegion(idx))
		t.resetInitiatorState(idx)
		replays[idx] = in.prepareReplay(i)
		tm.Replayed += len(replays[idx])
	}
	// Reconnect in the same no-yield region: from the first replay (or
	// live) posting onward the target sees only fresh-chain indices.
	for _, conn := range t.conns {
		conn.Reconnect()
	}
	// Then each initiator repairs its own chain independently.
	for idx, in := range c.inits {
		if len(replays[idx]) > 0 {
			in.postReplay(p, replays[idx])
		}
	}
	tm.DataRecovery = p.Now() - start
	// Belt and braces for the read caches: the cut already dropped this
	// target's blocks, but writes populated into a cache while the links
	// were down may have died un-replayed — drop the target again now
	// that its content is final.
	for _, in := range c.inits {
		in.invalidateSetReads(c.SetOf(i))
	}
	return report, tm
}

// prepareReplay collects this initiator's in-flight commands toward the
// restarted target in per-stream ServerIdx order, restarts the
// per-server chains, has stampMember re-mint the target's chain of every
// command in the replay set — the same record the replayed capsule points
// at and the gate reads, so nothing stale survives — and pins the set. A
// command dispatch has not stamped yet is not in flight: dispatch will mint
// it on the fresh chain. It performs no simulated work (never yields), so
// every initiator's chain state can be rebuilt atomically with the target's
// gate reset before any replay traffic — or any concurrent live traffic —
// hits the wire.
func (in *Initiator) prepareReplay(target int) []*wireState {
	for s := 0; s < in.cfg.Streams; s++ {
		in.clearRetireMark(s, target)
	}
	var replay []*wireState
	for _, ws := range in.outstanding {
		if !ws.flushWire && ws.q.Pos(target) >= 0 {
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
	if in.cfg.Mode == ModeRio {
		for _, st := range in.seqStreams() {
			st.ResetServerChain(target)
		}
		for _, ws := range replay {
			in.stampMember(ws, ws.q.Pos(target))
		}
	}
	// Pin the replay set: a replayed command whose requests all deliver
	// before postReplay's wait loop reaches it must not be recycled (a
	// new owner would Reset the very hwDone signal recovery still waits
	// on).
	for _, ws := range replay {
		ws.pinned = true
	}
	return replay
}

// postReplay re-sends a prepared replay set toward its target and waits
// for the completions, releasing delivered commands back to their pools.
func (in *Initiator) postReplay(p *sim.Proc, replay []*wireState) {
	// Post per stream to preserve order on the wire.
	byStream := map[int][]*wireState{}
	var streamsOrder []int
	for _, ws := range replay {
		if _, ok := byStream[ws.stream]; !ok {
			streamsOrder = append(streamsOrder, ws.stream)
		}
		byStream[ws.stream] = append(byStream[ws.stream], ws)
	}
	sort.Ints(streamsOrder)
	for _, s := range streamsOrder {
		in.postByTarget(p, byStream[s], s)
	}
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
