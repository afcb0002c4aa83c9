package stack

import (
	"slices"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/trace"
)

// trackWires records that ws carries (part of) req, for the
// retire-watermark protocol. The tracking list lives in the request's
// dispatch scratch slot and returns to the stream shard's pool at
// delivery — there is no global request→wires map.
func (in *Initiator) trackWires(req *blockdev.Request, ws *wireState) {
	wl, _ := req.DispatchScratch.(*wireList)
	if wl == nil {
		wl = in.shards[req.Stream].getList(in)
		req.DispatchScratch = wl
	}
	wl.ws = append(wl.ws, ws)
}

// attachTicket creates the ordering attribute for req. The ticket lives in
// storage embedded in the request itself and names the request as its owner
// (how newSequencer's deliver func finds it): no allocation, and the
// attribute stays readable for the request's whole lifetime.
func (in *Initiator) attachTicket(req *blockdev.Request, st *core.StreamSeq) {
	t := req.TicketSlot()
	t.Owner = req
	req.Ticket = st.SubmitInto(t, req.LBA, req.Blocks, req.Boundary, req.Flush, req.IPU, nil)
	in.stats.Pool.Hit()
}

// newSequencer builds this initiator's sequencer, delivering every ticket
// to the request that owns it.
func (in *Initiator) newSequencer() *core.Sequencer {
	return core.NewSequencerFor(uint16(in.id), in.cfg.Streams,
		func(t *core.Ticket) { in.deliver(t.Owner.(*blockdev.Request)) })
}

// submitAsync is the asynchronous path (Rio: Fig. 4 steps 1-2): add to the
// stream's plug list / ORDER queue — an ordered write in Rio mode with its
// ordering attribute attached — and everything downstream is asynchronous.
// Without a ticket the completion is delivered as soon as the hardware
// reports it.
func (in *Initiator) submitAsync(p *sim.Proc, req *blockdev.Request) {
	in.UseCPU(p, in.costs.SubmitBio)
	if !in.alive {
		// The initiator was power-cut while this submission waited for
		// CPU: the request dies un-staged (its Done never fires), like
		// any other in-flight work of the dead incarnation. Staging it
		// would consume fresh-incarnation sequence state for a command
		// the application already considers lost.
		return
	}
	gateStart := p.Now()
	in.waitSubmitSlot(p, req.Stream)
	if !in.alive {
		return // power-cut while stalled on the inflight bound
	}
	addWaitReq(req, trace.WaitGate, p.Now()-gateStart)
	if req.Ordered && in.cfg.Mode == ModeRio {
		in.attachTicket(req, in.seq.Stream(req.Stream))
	}
	in.plugAdd(p, req)
}

// waitSubmitSlot blocks the submitting thread while the initiator sits
// at its in-flight bound, then counts the request in flight — the
// submit-side half of the backpressure chain (device saturation → fabric
// TX stalls → here). Parked submitters are NOT counted: inflight holds
// admitted-but-undelivered requests only, so each delivery frees exactly
// one slot no matter how many submitters queue on the gate (a waiter
// counting its own request would wedge the gate shut as soon as the
// number of blocked submitters reached the bound). Closed-loop callers
// never block here; open-loop drivers stall instead of growing unbounded
// queues. The wait is skipped inside an explicit plug window — the
// staged batch only drains from this same thread, so blocking here would
// deadlock against our own plug — but the request still counts in flight.
func (in *Initiator) waitSubmitSlot(p *sim.Proc, stream int) {
	if in.cfg.MaxInflight > 0 && !in.shards[stream].held {
		for in.alive && in.inflight >= in.cfg.MaxInflight {
			in.stats.SubmitStalls++
			in.inflightCond.Wait(p)
		}
		if !in.alive {
			return // the crash reset owns the count now
		}
	}
	in.inflight++
}

// plugAdd stages a request on the stream shard's plug. Overflow drains
// inline in the caller's context (the submitting thread pays the
// scheduler CPU, as in Linux); otherwise a short timer hands leftovers to
// the shard's dispatch context.
const plugHold = 2 * sim.Microsecond

func (in *Initiator) plugAdd(p *sim.Proc, req *blockdev.Request) {
	markReq(req, trace.MStaged, p.Now())
	if in.gov.observe(p.Now()) {
		in.stats.GovSwitches++
	}
	sh := in.shards[req.Stream]
	sh.plugged = append(sh.plugged, req)
	if len(sh.plugged) >= in.gov.plug() {
		in.plugFlush(p, req.Stream)
		return
	}
	if !sh.armed && !sh.held {
		sh.armed = true
		tm := sh.timerFree.Get()
		tm.in, tm.sh, tm.epoch = in, sh, in.epoch
		in.Eng.Schedule(plugHold, tm)
	}
}

// plugTimer is one plug-hold event of a shard, armed under initiator
// incarnation epoch: what is still staged when it fires goes to the shard's
// dispatch context. Only the event queue holds it: it recycles as it fires.
type plugTimer struct {
	in    *Initiator
	sh    *shard
	epoch int
}

func (tm *plugTimer) Run() {
	in, sh, epoch := tm.in, tm.sh, tm.epoch
	sh.timerFree.Put(tm)
	sh.armed = false
	if epoch != in.epoch || sh.held || len(sh.plugged) == 0 {
		return
	}
	for _, r := range sh.plugged {
		sh.q.Push(r)
	}
	sh.plugged = sh.plugged[:0]
}

// StartPlug opens an explicit plug window on a stream (blk_start_plug):
// submissions stage until FinishPlug, maximizing scheduler merging.
func (in *Initiator) StartPlug(stream int) {
	in.shards[in.streamOf(stream)].held = true
}

// FinishPlug closes the plug window and dispatches the staged batch in the
// caller's context (blk_finish_plug).
func (in *Initiator) FinishPlug(p *sim.Proc, stream int) {
	stream = in.streamOf(stream)
	in.shards[stream].held = false
	in.plugFlush(p, stream)
}

// plugFlush dispatches a stream's plug in the caller's place (on overflow,
// and when the submitter is about to block — Linux's flush-on-schedule).
func (in *Initiator) plugFlush(p *sim.Proc, stream int) {
	if sh := in.shards[stream]; len(sh.plugged) > 0 {
		d := in.getDispatcher(stream, nil)
		d.batch, sh.plugged = append(d.batch[:0], sh.plugged...), sh.plugged[:0]
		d.call(p, (*dispatcher).build)
	}
}

// submitHorae runs Horae's control path before the data path. Control
// entries of one ordered-write group are batched: non-boundary requests
// stage their ordering metadata and data; the boundary request takes the
// group, sends one control capsule per touched target, blocks for their
// acks (Horae's serialization point, §3.2 lesson 2) and only then releases
// the group to the asynchronous data path. A write staged on the stream
// while the boundary waits starts the next group. This matches the paper's
// Fig. 14, where D dispatch is cheap but JM and JC each pay a control
// round trip.
func (in *Initiator) submitHorae(p *sim.Proc, req *blockdev.Request) {
	in.UseCPU(p, in.costs.SubmitBio)
	if !in.alive {
		return // power-cut mid-submission: the request dies un-staged
	}
	st := in.seq.Stream(req.Stream)
	in.attachTicket(req, st)
	sh := in.shards[req.Stream]
	if sh.horae == nil {
		sh.horae = sh.horaeFree.Get()
		if sh.horae.ctrls == nil {
			sh.horae.ctrls = make([][]core.Attr, len(in.targets))
			sh.horae.acks = make([]sim.Signal, len(in.targets))
		}
	}
	g := sh.horae
	// Drawn indices start at 1, so 0 marks an untouched server; zeroing
	// keeps a reused request from carrying its last life's indices.
	if cap(req.HoraeIdx) < len(in.targets) {
		req.HoraeIdx = make([]uint64, len(in.targets))
	}
	req.HoraeIdx = req.HoraeIdx[:len(in.targets)]
	clear(req.HoraeIdx)
	in.extBuf = in.vol.AppendExtents(in.extBuf[:0], req.LBA, req.Blocks)
	for _, ext := range in.extBuf {
		ref := in.vol.Dev(ext.Dev)
		if req.HoraeIdx[ref.Server] != 0 {
			continue
		}
		a := req.Ticket.Attr
		a.LBA = ext.DevLBA
		a.Blocks = ext.Blocks
		a.NS = uint16(ref.SSD)
		a.ServerIdx = st.NextServerIdx(ref.Server)
		req.HoraeIdx[ref.Server] = a.ServerIdx
		g.ctrls[ref.Server] = append(g.ctrls[ref.Server], a)
	}
	g.reqs = append(g.reqs, req)
	if !req.Boundary {
		return // staged: the group's boundary request pays the control RTT
	}
	sh.horae = nil // the group is this boundary's now: a later write starts the next
	for ti, list := range g.ctrls {
		if len(list) == 0 {
			continue
		}
		in.UseCPU(p, in.costs.CmdBuild*sim.Time(len(list))+in.costs.PostMsg)
		cp := in.c.getCapsule(in.epoch, ti)
		cp.ctrl = append(cp.ctrl, list...)
		cp.ack = g.acks[ti].Init(in.Eng)
		var tw fabric.TxWait
		in.egress(p, &tw, ti, in.qpFor(req.Stream), cp)
	}
	for ti, list := range g.ctrls {
		if len(list) > 0 {
			in.blockingWait(p, &g.acks[ti])
			g.ctrls[ti] = list[:0]
		}
	}
	// Control metadata persisted: release the group to the data path.
	for _, r := range g.reqs {
		markReq(r, trace.MStaged, p.Now())
		in.shards[r.Stream].q.Push(r)
	}
	clear(g.reqs)
	g.reqs = g.reqs[:0]
	sh.horaeFree.Put(g)
}

// submitLinux is the classic synchronous execution: one in-flight ordered
// request for the whole device (§6.5), completed and — on devices without
// PLP — flushed before the next may start. Its writes dispatch from mint on.
func (in *Initiator) submitLinux(p *sim.Proc, req *blockdev.Request) {
	in.UseCPU(p, in.costs.SubmitBio)
	in.linuxMu.Acquire(p)
	wires := in.buildWires(in.linuxWires[:0], req)
	in.getDispatcher(req.Stream, wires).call(p, (*dispatcher).mint)
	for _, ws := range wires {
		in.blockingWait(p, ws.hwDone)
	}
	// FLUSH per ordered request on every touched device without PLP.
	flushes := in.linuxFlushes[:0]
	for _, ws := range wires {
		dev := ws.wc.Dev
		if !in.targets[ws.target].ssds[ws.ssdIdx].HasPLP() &&
			!slices.ContainsFunc(flushes, func(f *wireState) bool { return f.wc.Dev == dev }) {
			flushes = append(flushes, in.newFlushWire(dev, req.Stream))
		}
	}
	in.flushWires(p, req.Stream, flushes)
	clear(wires)
	clear(flushes)
	in.linuxWires, in.linuxFlushes = wires[:0], flushes[:0]
	in.linuxMu.Release()
	in.deliver(req)
}

// deliver exposes a completion to the application, updates the retire
// watermarks for the PMR log entries the request touched, and recycles
// the request's wire commands once their last origin request is out.
func (in *Initiator) deliver(req *blockdev.Request) {
	req.DeliverAt = in.Eng.Now()
	if req.Trace != nil {
		req.Trace.Mark(req.TraceSeq, trace.MDeliver, req.DeliverAt)
		in.c.tracer.Finish(req.Trace, req.TraceSeq)
		req.Trace = nil
	}
	if in.inflight > 0 {
		in.inflight--
		// A slot opened (waiters only count themselves in after passing
		// the gate): wake the queue. Woken waiters re-check the bound and
		// claim slots in wake order before any of them can yield, so the
		// broadcast cannot overshoot the bound.
		if in.cfg.MaxInflight > 0 && in.inflight < in.cfg.MaxInflight {
			in.inflightCond.Broadcast()
		}
	}
	if wl, ok := req.DispatchScratch.(*wireList); ok {
		for _, ws := range wl.ws {
			ws.pendingRq--
			if ws.pendingRq != 0 {
				continue
			}
			// Advance the retire watermark of every member that acked by now
			// (laggard acks advance their own in memberAck), and recycle only
			// once all members resolved.
			for k, m := range ws.q.Members {
				if ws.q.Got[k] && ws.chain[k].idx > 0 {
					in.bumpRetireMark(ws.stream, m, ws.chain[k].idx)
				}
			}
			in.maybeRecycle(ws)
		}
		in.shards[req.Stream].putList(wl)
		req.DispatchScratch = nil
	}
	req.Done.Fire()
	in.reclaim(req)
}

// A dispatcher is one dispatch in progress, a sim.Step on the initiator's
// cores: it turns requests into wire commands — volume striping and
// transfer-limit splitting, scheduler merging, per-server index assignment,
// command build — and posts them. Each shard's dispatch context is one,
// started with the shard, that batches what accumulates on the shard's
// queue. A submitting thread that flushes its plug (overflow, Wait,
// FinishPlug) checks a record out of the shard's pool and calls it in its
// own place, paying the scheduler CPU as in Linux; the Linux and FLUSH
// paths and replay post through the same steps, and a head-cut re-ask
// starts one. A dispatch owns its record's buffers, so dispatches that
// overlap on a shard share nothing.
type dispatcher struct {
	sim.Step[dispatcher]
	in    *Initiator
	sh    *shard
	batch []*blockdev.Request
	wires []*wireState

	// Posting: per-set lists still to post, the set reached, and that set's
	// relayable commands and those that go direct after its relay capsule
	// (all of them buffers the record reuses: a capsule copies its
	// commands); the route's commands, members (posted from k on) and QP;
	// the capsule in progress, its target and TX pass; a replay set still to
	// post; re-asks (or a watermark-only capsule, sendRetires) still to post.
	bySet     [][]*wireState
	set       int
	relayable []*wireState
	direct    []*wireState
	cmds      []*wireState
	members   []int
	k, qp, to int
	cp        *capsule
	tx        fabric.TxWait
	rest      []*wireState
	asks      []*capsule
}

// getDispatcher checks a record with a copy of wires out of a shard pool.
func (in *Initiator) getDispatcher(stream int, wires []*wireState) *dispatcher {
	sh := in.shards[stream]
	d := sh.dispFree.Get()
	if d.in == nil {
		d.in, d.sh, d.bySet = in, sh, make([][]*wireState, len(in.c.replSets))
		d.Bind(in.Eng, in.cores, d)
	}
	d.wires = append(d.wires[:0], wires...)
	return d
}

// call runs d from step on in p's place, then returns it to its pool.
func (d *dispatcher) call(p *sim.Proc, step func(*dispatcher) bool) {
	d.Call(p, step)
	d.sh.dispFree.Put(d)
}

// take gathers the shard context's next batch: requests that accumulated
// on the queue while it worked are batched, enabling merging.
func (d *dispatcher) take() bool {
	r, ok := d.sh.q.Take(d)
	if !ok {
		return false
	}
	d.batch = append(d.batch[:0], r)
	for ok && len(d.batch) < d.in.gov.plug() {
		if r, ok = d.sh.q.TryPop(); ok {
			d.batch = append(d.batch, r)
		}
	}
	return d.To((*dispatcher).build)
}

// build turns the batch into wire commands and merges them, charging
// MergeCheck per fusion check.
func (d *dispatcher) build() bool {
	in, checks := d.in, 0
	d.wires = d.wires[:0]
	for _, req := range d.batch {
		markReq(req, trace.MDispatched, in.Eng.Now())
		d.wires = in.buildWires(d.wires, req)
	}
	if in.cfg.MergeEnabled && len(d.wires) > 1 {
		d.wires, checks = in.fuseWires(d.wires)
	}
	return d.Use(in.costs.MergeCheck*sim.Time(checks), (*dispatcher).mint)
}

// mint fans the commands out over their replica sets and populates the
// read cache, charging CacheBlockCPU per block cached: after fusion (the
// commands are final here) and before posting, so a thread that re-reads
// its own write hits even while the write is in flight.
func (d *dispatcher) mint() bool {
	in := d.in
	if !in.alive {
		// A power cut landed while this batch was mid-dispatch (the
		// merge charge yields): minting per-server indices now would burn
		// fresh-incarnation chain slots on dead commands, parking the
		// next live command forever at the target gate. The batch dies
		// here with the rest of the incarnation's in-flight work.
		return d.end()
	}
	in.assignOrderState(d.wires)
	return d.Use(in.costs.CacheBlockCPU*sim.Time(in.rcachePopulateWires(d.wires)), (*dispatcher).cmdBuild)
}

// cmdBuild charges CmdBuild per command.
func (d *dispatcher) cmdBuild() bool {
	return d.Use(d.in.costs.CmdBuild*sim.Time(len(d.wires)), (*dispatcher).post)
}

// end finishes a dispatch: the shard's context goes on to its next batch,
// a called record returns.
func (d *dispatcher) end() bool { return d == &d.sh.disp && d.To((*dispatcher).take) }

// buildWires splits one request into per-device wire commands respecting
// stripe geometry and the SSD transfer limit, appending them to dst. For
// ordered requests the ordering attribute is split alongside (Fig. 8b).
// Its pieces are the request's extents cut at the transfer limit. The
// piece and attribute scratch slices live on the cluster: buildWires
// never yields, so one scratch set serves every caller.
func (in *Initiator) buildWires(dst []*wireState, req *blockdev.Request) []*wireState {
	pieces := in.pieceBuf[:0]
	maxBlocks := uint32(maxTransferBlocks)
	in.extBuf = in.vol.AppendExtents(in.extBuf[:0], req.LBA, req.Blocks)
	for _, ext := range in.extBuf {
		if int(ext.Blocks) > int(maxBlocks) {
			for off := uint32(0); off < ext.Blocks; off += maxBlocks {
				n := ext.Blocks - off
				if n > maxBlocks {
					n = maxBlocks
				}
				pieces = append(pieces, blockdev.Extent{
					Dev: ext.Dev, DevLBA: ext.DevLBA + uint64(off),
					Blocks: n, Offset: ext.Offset + off,
				})
			}
		} else {
			pieces = append(pieces, ext)
		}
	}
	in.pieceBuf = pieces
	req.InitFragments(len(pieces))

	// Attribute geometry: single piece keeps the ticket attr; multiple
	// pieces split it. A request with a ticket is stamped here, once, with
	// its own never-merged identity: fusion concatenates Stamps, so every
	// block keeps it through the target's media write, the read cache and
	// recovery's ownership test. Any other request carries the caller's.
	var attrs []core.Attr
	stamp := req.Stamp
	if req.Ordered && req.Ticket != nil {
		base := req.Ticket.Attr
		stamp = core.AttrStamp(base)
		if len(pieces) == 1 {
			a := base
			a.LBA = pieces[0].DevLBA
			a.Blocks = pieces[0].Blocks
			attrs = append(in.attrBuf[:0], a)
		} else {
			blocks := in.blockBuf[:0]
			for _, pc := range pieces {
				blocks = append(blocks, pc.Blocks)
			}
			in.blockBuf = blocks
			attrs = core.SplitAttrInto(in.attrBuf, base, blocks)
			for i := range attrs {
				attrs[i].LBA = pieces[i].DevLBA
			}
		}
		in.attrBuf = attrs
		for i := range attrs {
			attrs[i].NS = uint16(in.vol.Dev(pieces[i].Dev).SSD)
			if in.cfg.Mode == ModeHorae {
				// Correlate data commands to the control-path entries the
				// submit path already persisted for each server.
				attrs[i].ServerIdx = req.HoraeIdx[in.vol.Dev(pieces[i].Dev).Server]
			}
		}
	}

	for i, pc := range pieces {
		ws := in.newWire(req.Stream)
		wc := ws.wc
		wc.Dev = pc.Dev
		wc.LBA = pc.DevLBA
		wc.Blocks = pc.Blocks
		wc.Ordered = req.Ordered
		wc.Reqs = append(wc.Reqs, req)
		req.Pin()
		for j := uint32(0); j < pc.Blocks; j++ {
			wc.Stamps = append(wc.Stamps, stamp)
		}
		if req.Data != nil {
			// The payloads themselves are shared, never copied (they are
			// immutable once submitted): only the slice of them is per wire.
			wc.Data = slices.Grow(ws.data[:0], int(pc.Blocks))[:pc.Blocks]
			clear(wc.Data)
			for j := uint32(0); j < pc.Blocks; j++ {
				if int(pc.Offset+j) < len(req.Data) {
					wc.Data[j] = req.Data[pc.Offset+j]
				}
			}
		}
		if attrs != nil {
			wc.Attr = attrs[i]
		}
		in.bindWire(ws)
		in.trackWires(req, ws)
		dst = append(dst, ws)
	}
	return dst
}

// fuseWires applies the Rio scheduler's merging per device, preserving the
// ORDER-queue order (no reordering, §4.5 Principle 3). Orderless requests
// merge on plain contiguity (classic plug merging, Fig. 3). Fused-away
// commands return to their shard's pool immediately: they were never
// posted. The compaction is in place — out never outruns the read index.
// It also returns how many fusion checks it made.
func (in *Initiator) fuseWires(wires []*wireState) (out []*wireState, checks int) {
	out = wires[:0]
	in.fuseGen++
	for _, ws := range wires {
		var prev *wireState
		if t := in.fuseTails[ws.wc.Dev]; t.gen == in.fuseGen {
			prev = t.ws
		}
		if prev != nil && !prev.wc.Flush && !ws.wc.Flush {
			checks++
			if in.tryFuse(prev, ws) {
				in.stats.FusedCmds++
				in.outstanding.Delete(ws.id)
				in.putWire(ws)
				continue
			}
		}
		in.fuseTails[ws.wc.Dev] = fuseTail{gen: in.fuseGen, ws: ws}
		out = append(out, ws)
	}
	return out, checks
}

func (in *Initiator) tryFuse(a, b *wireState) bool {
	if a.wc.Ordered != b.wc.Ordered {
		return false
	}
	if a.wc.Ordered {
		switch in.cfg.Mode {
		case ModeRio:
			if !blockdev.TryFuse(a.wc, b.wc, maxTransferBlocks) {
				// Attribute-level merge rejected (e.g. striping broke the
				// sequence continuity): fall back to vector fusion.
				if a.wc.Attr.Merged() || b.wc.Attr.Merged() ||
					a.wc.Attr.Split || b.wc.Attr.Split {
					return false
				}
				if !blockdev.Fuse(a.wc, b.wc, maxTransferBlocks) {
					return false
				}
				a.more = append(append(a.more, b.wc.Attr), b.more...)
			}
		case ModeHorae:
			// Horae merges data-path requests on contiguity; ordering
			// already persisted by the control path. Keep constituent
			// attrs for persist-bit correlation.
			if !blockdev.Fuse(a.wc, b.wc, maxTransferBlocks) {
				return false
			}
			a.more = append(append(a.more, b.wc.Attr), b.more...)
		default:
			return false
		}
	} else {
		if !blockdev.Fuse(a.wc, b.wc, maxTransferBlocks) {
			return false
		}
	}
	// b's origin requests now complete through a.
	a.pendingRq = len(a.wc.Reqs)
	for _, req := range b.wc.Reqs {
		req.Pin()
		in.replaceWire(req, b, a)
	}
	return true
}

func (in *Initiator) replaceWire(req *blockdev.Request, from, to *wireState) {
	if wl, ok := req.DispatchScratch.(*wireList); ok {
		for i, w := range wl.ws {
			if w == from {
				wl.ws[i] = to
			}
		}
	}
}

// assignOrderState fans every command of a dispatch batch out over its
// replica set: per command it snapshots the set's in-sync membership, has
// stampMember mint each member's chain, and logs a resync extent of a
// write for every member currently out of sync. Snapshot, mint and
// dirty-log happen with no yield in between, which is what makes the
// resync drain check race-free against rejoin. A standalone FLUSH resolves
// only when every member it went to acked: a durability barrier certifies
// the whole in-sync set, not just a quorum.
func (in *Initiator) assignOrderState(wires []*wireState) {
	for _, ws := range wires {
		rs := in.c.replSets[ws.target]
		for k, m := range rs.members {
			if rs.inSync[k] {
				in.stampMember(ws, ws.addMember(m))
			} else if !ws.wc.Flush {
				rs.addDirty(m, ws)
			}
		}
		ws.q.Need = in.c.writeQuorum
		if ws.wc.Flush {
			ws.q.Need = len(ws.q.Members)
		}
	}
}

// stampMember mints the command's order chain toward member k of its
// fan-out — the only place a command's chain is assigned ServerIdx values:
// dispatch calls it for every member of every set size, target replay calls
// it again on the fresh chain. A Rio ordered write copies the command's
// attribute and those fused into it (wireState.more) and draws one dense
// per-(stream, member) index per attribute; everything else about the
// command is member-independent — the stamps its blocks carry were fixed
// when it was built — so replica media stays byte-identical. Horae data
// commands carry the index their control path already persisted.
func (in *Initiator) stampMember(ws *wireState, k int) {
	mc := &ws.chain[k]
	switch {
	case ws.wc.Ordered && in.cfg.Mode == ModeRio:
		mc.attrs = append(append(mc.attrs[:0], ws.wc.Attr), ws.more...)
		st := in.seq.Stream(ws.stream)
		for i := range mc.attrs {
			mc.idx = st.NextServerIdx(ws.q.Members[k])
			mc.attrs[i].ServerIdx = mc.idx
		}
	case ws.wc.Ordered && in.cfg.Mode == ModeHorae:
		mc.idx = ws.wc.Attr.ServerIdx
	}
}

// post coalesces the commands into one vectored batch per replica set, and
// each set's batch goes out on the set's current route: the batch shares a
// capsule (one fabrics framing, one PostMsg), and the target checks that
// every entry is addressed to it (§4.3 in-order chains).
//
// The batch is partitioned into per-set lists BEFORE the first yield: once
// a capsule toward an earlier set is posted, its commands can complete,
// deliver and be recycled — rescanning the batch after that could pick up a
// recycled wireState already rebound to a new command. Commands still
// waiting in a later list cannot be recycled (their origin requests count
// this unposted fragment), so the lists stay valid across the posts.
func (d *dispatcher) post() bool {
	in := d.in
	in.stats.WireCmds += int64(len(d.wires))
	for _, ws := range d.wires {
		d.bySet[ws.target] = append(d.bySet[ws.target], ws)
	}
	d.set, d.Ret = -1, (*dispatcher).nextSet
	return d.To((*dispatcher).nextSet)
}

// nextSet posts the next set's batch. On the relay route go the ordered
// writes that fanned to the full membership; the rest go direct after
// them: flushes (a durability barrier certifies members individually),
// batches assigned under a degraded snapshot and orderless writes (no chain
// index for a head-cut re-ask to tell "completed" from "never arrived" by).
//
// A list handed to route stays in its buffer until route's capsules are
// built; the buffer is truncated now and refilled only after that.
func (d *dispatcher) nextSet() bool {
	cmds := d.direct
	for d.direct = d.direct[:0]; len(cmds) == 0; {
		if d.set++; d.set >= len(d.bySet) {
			return d.end()
		}
		cmds, d.bySet[d.set] = d.bySet[d.set], d.bySet[d.set][:0]
		if rs := d.in.c.replSets[d.set]; len(cmds) > 0 && d.in.c.relayActive(rs) {
			d.relayable = d.relayable[:0]
			for _, ws := range cmds {
				if !ws.wc.Flush && ws.wc.Ordered && len(ws.q.Members) == len(rs.members) {
					d.relayable = append(d.relayable, ws)
				} else {
					d.direct = append(d.direct, ws)
				}
			}
			if len(d.relayable) > 0 {
				return d.route(d.relayable, d.relayable[0].q.Members, 0, routeRelay)
			}
			cmds, d.direct = d.direct, d.direct[:0]
		}
	}
	return d.route(cmds, cmds[0].q.Members, 0, routeDirect)
}

// route posts commands of one replica set to members[k:] on a route, on a
// QP drawn for the pair. All commands of a batch snapshot the same membership
// (no yield between their assignments), so the first command's member list
// is the batch's.
//
// routeDirect posts one capsule per member, each built right before its
// post (it carries the member's retire watermark as of then): each copy is
// a full vectored batch (its routing checked at the member), pays its own
// PostMsg and wire framing, and returns its own CQE — the fan-out cost the
// replication experiment measures. routeRelay posts ONE capsule to the
// set's head with the followers' capsules attached: one PostMsg, one
// TX-depth slot, one wire message — the R×→1× initiator cost collapse the
// relay exists for.
func (d *dispatcher) route(cmds []*wireState, members []int, k int, rt route) bool {
	in, stream := d.in, cmds[0].stream
	d.qp = in.qpFor(stream)
	for _, ws := range cmds {
		ws.qp = d.qp
		ws.relayed = ws.relayed || rt == routeRelay
	}
	d.cmds, d.members, d.k = cmds, members, k
	if rt == routeDirect {
		return d.To((*dispatcher).member)
	}
	d.cp, d.to, d.members = in.buildMemberCapsule(cmds, members[0], stream), members[0], nil
	for _, m := range members[1:] {
		fcp := in.buildMemberCapsule(cmds, m, stream)
		fcp.relayed = true
		d.cp.forward = append(d.cp.forward, fcp)
	}
	return d.Charge(in.costs.PostMsg, (*dispatcher).send)
}

// member posts the route's capsule to its next member, or goes on at Ret.
func (d *dispatcher) member() bool {
	if d.k == len(d.members) {
		return d.Back()
	}
	d.to = d.members[d.k]
	d.cp = d.in.buildMemberCapsule(d.cmds, d.to, d.cmds[0].stream)
	d.k++
	return d.Charge(d.in.costs.PostMsg, (*dispatcher).send)
}

// send rings one doorbell toward target d.to once PostMsg is paid. The
// capsule is the target's from here on (its delivery is a later event, so
// this step may still read it).
func (d *dispatcher) send() bool {
	in, cp := d.in, d.cp
	if !in.egress(d.Waiter(), &d.tx, d.to, d.qp, cp) {
		return false
	}
	d.cp = nil
	in.stats.Batch.Ring(len(cp.cmds))
	return d.To((*dispatcher).member)
}

// egress posts an initiator capsule toward target `to` and counts it: the
// one place TxMsgs and TxBytes grow.
func (in *Initiator) egress(w sim.Runner, tw *fabric.TxWait, to, qp int, cp *capsule) bool {
	if !in.c.postCapsule(w, tw, in.targets[to].conns[in.id], qp, cp) {
		return false
	}
	in.stats.TxMsgs++
	in.stats.TxBytes += int64(cp.wireSize())
	return true
}

// postCapsule is the one place a command or control capsule reaches the
// wire, from an initiator toward a member or from a set head toward a
// follower, once the poster's cores paid PostMsg: the post stalls while the
// link's TX queue is at its depth (stalls are attributed to the capsule's
// commands), and the capsule is handed to the NIC. A link that went down
// meanwhile drops it. Poster w is a proc (a Horae boundary), which blocks
// here, or a sim.Step, which gets false while it must wait and calls again
// with the same tw when re-run (fabric.Conn.WaitTxSpace).
func (c *Cluster) postCapsule(w sim.Runner, tw *fabric.TxWait, conn *fabric.Conn, qp int, cp *capsule) bool {
	if !conn.WaitTxSpace(w, tw, fabric.Initiator) {
		return false
	}
	if tw.Stalled > 0 {
		for _, ws := range cp.cmds {
			addWaitWire(ws, trace.WaitTx, tw.Stalled)
		}
	}
	conn.Send(fabric.Initiator, fabric.Message{QP: qp, Size: cp.wireSize(), Payload: cp})
	return true
}

// A reaper is one shard's completion-reaping context (the initiator-side
// interrupt context), a sim.Step allocated with its shard: it takes the
// response capsules of the shard's QP affinity set, checks their geometry,
// fans fragments back to requests and runs the mode's delivery protocol.
// Reaping and submitting shards coincide under stream affinity, so what a
// capsule releases returns to local pools. The reaper is a completion
// message's last reader: handle recycles it, and take recycles one it drops.
type reaper struct {
	sim.Step[reaper]
	in  *Initiator
	sh  *shard
	msg *completionMsg // the capsule whose CplHandle is being charged
}

func (r *reaper) take() bool {
	msg, ok := r.sh.cplQ.Take(r)
	if !ok {
		return false
	}
	mustBeLive(msg.free, "completion message")
	// A capsule of a dead epoch is dropped WHOLE, before any per-entry
	// side effect: its CQEs reference wireStates (and retire watermarks) of
	// the previous incarnation, and a coalesced capsule that straddled a
	// power cut must not deliver a partial batch.
	if msg.epoch != r.in.epoch {
		r.in.c.putMsg(msg)
		return true
	}
	r.msg = msg
	return r.Use(r.in.costs.CplHandle, (*reaper).handle)
}

func (r *reaper) handle() bool {
	in, msg := r.in, r.msg
	r.msg = nil
	in.stats.ReapCPU += in.costs.CplHandle
	if len(msg.cqes) > 0 {
		in.stats.CplBatch.Ring(len(msg.cqes))
	}
	if msg.ctrlAck != nil {
		msg.ctrlAck.Fire()
	}
	if msg.logFull {
		in.retireAsked[msg.from] = !in.sendRetires(msg.from)
	}
	for i := range msg.cqes {
		id := msg.cqes[i].ID()
		ws, _ := in.outstanding.Get(id)
		if ws == nil || ws.epoch != in.epoch {
			continue
		}
		if in.c.tracer != nil {
			var respAt sim.Time
			if i < len(msg.respondAt) {
				respAt = msg.respondAt[i]
			}
			markCpl(ws, msg, respAt)
		}
		if i < len(msg.agg) && msg.agg[i].n > 0 {
			// Aggregated CQE (relay route): the set head vouches for every
			// listed member's ack. memberAck may recycle ws mid-list — the
			// outstanding check stops the walk the moment it does.
			a := msg.agg[i]
			addWaitWire(ws, trace.WaitAgg, a.wait)
			for _, m := range msg.aggMembers[a.off : a.off+a.n] {
				in.memberAck(ws, m)
				if cur, _ := in.outstanding.Get(id); cur != ws {
					break
				}
			}
			continue
		}
		in.memberAck(ws, msg.from)
	}
	// Late-ack resolution records piggybacked by the relay head: each
	// stands in for one member CQE that was absorbed target-side.
	for _, res := range msg.resolved {
		ws, _ := in.outstanding.Get(res.id)
		if ws == nil || ws.epoch != in.epoch {
			continue
		}
		in.memberAck(ws, res.member)
	}
	in.c.putMsg(msg)
	return r.To((*reaper).take)
}

// deliverCompletions fans one hardware-complete wire command's fragments
// back to its origin requests and runs the mode-appropriate delivery
// protocol. Shared by the quorum fire and the resync late-ack fire, so the
// two stay in lockstep. It
// snapshots the origin requests first: the final delivery may recycle
// ws (and reset its slices) while iterating.
func (in *Initiator) deliverCompletions(ws *wireState) {
	reqs := ws.wc.Reqs
	for _, req := range reqs {
		mustBeLive(req.Free(), "request")
		if !req.FragmentDone() {
			continue
		}
		req.CompleteAt = in.Eng.Now()
		markReq(req, trace.MCompleted, req.CompleteAt)
		in.stats.Completed++
		switch {
		case req.Ordered && (in.cfg.Mode == ModeRio || in.cfg.Mode == ModeHorae):
			in.seq.Stream(req.Stream).Completed(req.Ticket.Attr.ReqID)
		case req.Ordered && in.cfg.Mode == ModeLinux:
			// submitLinux fires Done itself after the flush.
		default:
			in.deliver(req)
		}
	}
}
