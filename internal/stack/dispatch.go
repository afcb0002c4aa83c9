package stack

import (
	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/nvmeof"
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

// submitRio is the Rio path (Fig. 4 steps 1-2): attach an ordering
// attribute and add to the stream's plug list / ORDER queue; everything
// downstream is asynchronous.
func (in *Initiator) submitRio(p *sim.Proc, req *blockdev.Request) {
	in.useInitCPU(p, in.costs.SubmitBio)
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
	in.attachTicket(req, in.seq.Stream(req.Stream))
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

// maxPlugNow is the dispatch batching ceiling for this instant: the
// static MaxPlug, or the governor's current operating point.
func (in *Initiator) maxPlugNow() int {
	if in.gov != nil {
		return in.gov.plug()
	}
	return in.cfg.MaxPlug
}

// submitOrderless adds to the plug list; completion is delivered as soon
// as the hardware reports it.
func (in *Initiator) submitOrderless(p *sim.Proc, req *blockdev.Request) {
	in.useInitCPU(p, in.costs.SubmitBio)
	if !in.alive {
		return // power-cut mid-submission: the request dies un-staged
	}
	gateStart := p.Now()
	in.waitSubmitSlot(p, req.Stream)
	if !in.alive {
		return // power-cut while stalled on the inflight bound
	}
	addWaitReq(req, trace.WaitGate, p.Now()-gateStart)
	in.plugAdd(p, req)
}

// plugAdd stages a request on the stream shard's plug. Overflow drains
// inline in the caller's context (the submitting thread pays the
// scheduler CPU, as in Linux); otherwise a short timer hands leftovers to
// the shard's dispatcher.
const plugHold = 2 * sim.Microsecond

func (in *Initiator) plugAdd(p *sim.Proc, req *blockdev.Request) {
	markReq(req, trace.MStaged, p.Now())
	if in.gov != nil && in.gov.observe(p.Now()) {
		in.stats.GovSwitches++
	}
	sh := in.shards[req.Stream]
	sh.plugged = append(sh.plugged, req)
	if len(sh.plugged) >= in.maxPlugNow() {
		in.dispatchPlug(p, sh)
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
// dispatcher. Only the event heap holds it: it recycles as it fires.
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
	in.shards[stream].held = true
}

// FinishPlug closes the plug window and dispatches the staged batch in the
// caller's context (blk_finish_plug).
func (in *Initiator) FinishPlug(p *sim.Proc, stream int) {
	sh := in.shards[stream]
	sh.held = false
	in.plugFlush(p, stream)
}

// plugFlush drains a stream's plug inline (called when the submitter is
// about to block — Linux's flush-on-schedule).
func (in *Initiator) plugFlush(p *sim.Proc, stream int) {
	if stream >= len(in.shards) {
		return
	}
	sh := in.shards[stream]
	if len(sh.plugged) == 0 {
		return
	}
	in.dispatchPlug(p, sh)
}

// dispatchPlug hands the shard's staged batch to dispatch and recycles
// the batch's backing array afterwards.
func (in *Initiator) dispatchPlug(p *sim.Proc, sh *shard) {
	batch := sh.takePlug()
	in.dispatchBatch(p, sh.stream, batch)
	sh.putPlugBatch(batch)
}

// submitHorae runs Horae's control path before the data path. Control
// entries of one ordered-write group are batched: non-boundary requests
// stage their ordering metadata and data; the boundary request sends one
// control capsule per touched target, blocks for the acks (Horae's
// serialization point, §3.2 lesson 2) and only then releases the whole
// group to the asynchronous data path. This matches the paper's Fig. 14,
// where D dispatch is cheap but JM and JC each pay a control round trip.
func (in *Initiator) submitHorae(p *sim.Proc, req *blockdev.Request) {
	in.useInitCPU(p, in.costs.SubmitBio)
	if !in.alive {
		return // power-cut mid-submission: the request dies un-staged
	}
	st := in.seq.Stream(req.Stream)
	in.attachTicket(req, st)
	buf := in.horaeBuf(req.Stream)
	req.HoraeIdx = make(map[int]uint64)
	targets := map[int]bool{}
	for _, ext := range in.vol.Extents(req.LBA, req.Blocks) {
		ref := in.vol.Dev(ext.Dev)
		if targets[ref.Server] {
			continue
		}
		targets[ref.Server] = true
		a := req.Ticket.Attr
		a.LBA = ext.DevLBA
		a.Blocks = ext.Blocks
		a.NS = uint16(ref.SSD)
		a.ServerIdx = st.NextServerIdx(ref.Server)
		req.HoraeIdx[ref.Server] = a.ServerIdx
		cr := &ctrlReq{attr: a, ack: sim.NewSignal(in.Eng), epoch: in.epoch}
		buf.ctrls[ref.Server] = append(buf.ctrls[ref.Server], cr)
	}
	buf.reqs = append(buf.reqs, req)
	if !req.Boundary {
		return // staged: the group's boundary request pays the control RTT
	}
	var acks []*ctrlReq
	for ti := range in.targets {
		list := buf.ctrls[ti]
		if len(list) == 0 {
			continue
		}
		in.useInitCPU(p, in.costs.CmdBuild*sim.Time(len(list))+in.costs.PostMsg)
		in.targets[ti].conns[in.id].Send(fabric.Initiator, fabric.Message{
			QP:      in.qpFor(req.Stream),
			Size:    nvmeof.CapsuleSize(32 * len(list)),
			Payload: &capsule{ctrl: list, epoch: in.epoch},
		})
		in.stats.WireMessages++
		acks = append(acks, list...)
	}
	for _, cr := range acks {
		in.blockingWait(p, cr.ack)
	}
	// Control metadata persisted: release the group to the data path.
	for _, r := range buf.reqs {
		markReq(r, trace.MStaged, p.Now())
		in.shards[r.Stream].q.Push(r)
	}
	buf.reqs = nil
	buf.ctrls = map[int][]*ctrlReq{}
}

// submitLinux is the classic synchronous execution: one in-flight ordered
// request for the whole device (§6.5), completed and — on devices without
// PLP — flushed before the next may start.
func (in *Initiator) submitLinux(p *sim.Proc, req *blockdev.Request) {
	in.useInitCPU(p, in.costs.SubmitBio)
	in.linuxMu.Acquire(p)
	wires := in.buildWires(nil, req)
	in.assignOrderState(wires)
	in.rcachePopulateWires(p, wires)
	in.postByTarget(p, wires, req.Stream)
	for _, ws := range wires {
		in.blockingWait(p, ws.hwDone)
	}
	// FLUSH per ordered request on every touched device without PLP.
	var flushes []*wireState
	seen := map[int]bool{}
	for _, ws := range wires {
		if seen[ws.wc.Dev] {
			continue
		}
		seen[ws.wc.Dev] = true
		if in.targets[ws.target].ssds[ws.ssdIdx].HasPLP() {
			continue
		}
		fw := in.newFlushWire(ws.wc.Dev, req.Stream)
		in.useInitCPU(p, in.costs.CmdBuild)
		flushes = append(flushes, fw)
	}
	if len(flushes) > 0 {
		in.postByTarget(p, flushes, req.Stream)
		for _, fw := range flushes {
			in.blockingWait(p, fw.hwDone)
		}
		in.putFlushWires(flushes)
	}
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
}

// dispatchLoop drains one shard's queue with plugging: requests that
// accumulate while the dispatcher works are batched, enabling merging.
func (in *Initiator) dispatchLoop(p *sim.Proc, sh *shard) {
	for {
		first := sh.q.Pop(p)
		batch := append(sh.loopBatch[:0], first)
		for len(batch) < in.maxPlugNow() {
			r, ok := sh.q.TryPop()
			if !ok {
				break
			}
			batch = append(batch, r)
		}
		sh.loopBatch = batch
		in.dispatchBatch(p, sh.stream, batch)
	}
}

// dispatchBatch turns requests into wire commands: volume striping and
// transfer-limit splitting, scheduler merging, per-server index
// assignment, command build and posting.
func (in *Initiator) dispatchBatch(p *sim.Proc, stream int, batch []*blockdev.Request) {
	sh := in.shards[stream]
	wires := sh.getBatchBuf()
	for _, req := range batch {
		req.DispatchAt = p.Now()
		markReq(req, trace.MDispatched, req.DispatchAt)
		wires = in.buildWires(wires, req)
	}
	if in.cfg.MergeEnabled && len(wires) > 1 {
		wires = in.fuseWires(p, wires)
	}
	if !in.alive {
		// A power cut landed while this batch was mid-dispatch (the
		// merge pass yields): minting per-server indices now would burn
		// fresh-incarnation chain slots on dead commands, parking the
		// next live command forever at the target gate. The batch dies
		// here with the rest of the incarnation's in-flight work.
		sh.putBatchBuf(wires)
		return
	}
	in.assignOrderState(wires)
	// Read-cache write population happens after fusion (the commands are
	// final here) and before posting, so a thread that re-reads its own
	// write hits even while the write is in flight.
	in.rcachePopulateWires(p, wires)
	in.useInitCPU(p, in.costs.CmdBuild*sim.Time(len(wires)))
	in.postByTarget(p, wires, stream)
	sh.putBatchBuf(wires)
}

// piece is one device-contiguous fragment of a request after striping and
// transfer-limit splitting.
type piece struct {
	ext    blockdev.Extent
	offset uint32
}

// buildWires splits one request into per-device wire commands respecting
// stripe geometry and the SSD transfer limit, appending them to dst. For
// ordered requests the ordering attribute is split alongside (Fig. 8b).
// The piece and attribute scratch slices live on the cluster: buildWires
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
				pieces = append(pieces, piece{blockdev.Extent{
					Dev: ext.Dev, DevLBA: ext.DevLBA + uint64(off),
					Blocks: n, Offset: ext.Offset + off,
				}, ext.Offset + off})
			}
		} else {
			pieces = append(pieces, piece{ext, ext.Offset})
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
			a.LBA = pieces[0].ext.DevLBA
			a.Blocks = pieces[0].ext.Blocks
			attrs = append(in.attrBuf[:0], a)
		} else {
			blocks := in.blockBuf[:0]
			for _, pc := range pieces {
				blocks = append(blocks, pc.ext.Blocks)
			}
			in.blockBuf = blocks
			attrs = core.SplitAttrInto(in.attrBuf, base, blocks)
			for i := range attrs {
				attrs[i].LBA = pieces[i].ext.DevLBA
			}
		}
		in.attrBuf = attrs
		for i := range attrs {
			attrs[i].NS = uint16(in.vol.Dev(pieces[i].ext.Dev).SSD)
			if in.cfg.Mode == ModeHorae {
				// Correlate data commands to the control-path entries the
				// submit path already persisted for each server.
				attrs[i].ServerIdx = req.HoraeIdx[in.vol.Dev(pieces[i].ext.Dev).Server]
			}
		}
	}

	for i, pc := range pieces {
		ws := in.newWire(req.Stream)
		wc := ws.wc
		wc.Dev = pc.ext.Dev
		wc.LBA = pc.ext.DevLBA
		wc.Blocks = pc.ext.Blocks
		wc.Ordered = req.Ordered
		wc.Reqs = append(wc.Reqs, req)
		for j := uint32(0); j < pc.ext.Blocks; j++ {
			wc.Stamps = append(wc.Stamps, stamp)
		}
		if req.Data != nil {
			wc.Data = make([][]byte, pc.ext.Blocks)
			for j := uint32(0); j < pc.ext.Blocks; j++ {
				if int(pc.offset+j) < len(req.Data) {
					wc.Data[j] = req.Data[pc.offset+j]
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
func (in *Initiator) fuseWires(p *sim.Proc, wires []*wireState) []*wireState {
	out := wires[:0]
	in.fuseGen++
	var checks int
	for _, ws := range wires {
		var prev *wireState
		if t := in.fuseTails[ws.wc.Dev]; t.gen == in.fuseGen {
			prev = t.ws
		}
		if prev != nil && !prev.wc.Flush && !ws.wc.Flush {
			checks++
			if in.tryFuse(prev, ws) {
				in.stats.FusedCmds++
				delete(in.outstanding, ws.id)
				in.shards[ws.stream].putWire(ws)
				continue
			}
		}
		in.fuseTails[ws.wc.Dev] = fuseTail{gen: in.fuseGen, ws: ws}
		out = append(out, ws)
	}
	if checks > 0 {
		in.useInitCPU(p, in.costs.MergeCheck*sim.Time(checks))
	}
	return out
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
				if !contigFuse(a.wc, b.wc) {
					return false
				}
				a.more = append(append(a.more, b.wc.Attr), b.more...)
			}
		case ModeHorae:
			// Horae merges data-path requests on contiguity; ordering
			// already persisted by the control path. Keep constituent
			// attrs for persist-bit correlation.
			if !contigFuse(a.wc, b.wc) {
				return false
			}
			a.more = append(append(a.more, b.wc.Attr), b.more...)
		default:
			return false
		}
	} else {
		if !contigFuse(a.wc, b.wc) {
			return false
		}
	}
	// b's origin requests now complete through a.
	a.pendingRq = len(a.wc.Reqs)
	for _, req := range b.wc.Reqs {
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

// contigFuse merges b into a when both are plain contiguous writes on the
// same device (no attribute semantics).
func contigFuse(a, b *blockdev.WireCmd) bool {
	if a.Dev != b.Dev || a.Flush || b.Flush {
		return false
	}
	if a.Blocks+b.Blocks > maxTransferBlocks {
		return false
	}
	if a.LBA+uint64(a.Blocks) != b.LBA {
		return false
	}
	a.Blocks += b.Blocks
	a.Stamps = append(a.Stamps, b.Stamps...)
	if a.Data != nil || b.Data != nil {
		if a.Data == nil {
			a.Data = make([][]byte, len(a.Stamps)-len(b.Stamps))
		}
		if b.Data == nil {
			b.Data = make([][]byte, len(b.Stamps))
		}
		a.Data = append(a.Data, b.Data...)
	}
	a.Reqs = append(a.Reqs, b.Reqs...)
	return true
}

// assignOrderState fans every write of a dispatch batch out over its
// replica set: per command it snapshots the set's in-sync membership, has
// stampMember mint each member's chain, and logs a resync extent for every
// member currently out of sync. Snapshot, mint and dirty-log happen with no
// yield in between, which is what makes the resync drain check race-free
// against rejoin. Standalone flushes fan out at post time (fanFlush).
func (in *Initiator) assignOrderState(wires []*wireState) {
	for _, ws := range wires {
		if ws.wc.Flush {
			continue
		}
		rs := in.c.replSets[ws.target]
		ws.q.Need = in.c.writeQuorum
		for k, m := range rs.members {
			if !rs.inSync[k] {
				rs.addDirty(m, ws)
				continue
			}
			in.stampMember(ws, ws.addMember(m))
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
	nsid := uint32(ws.ssdIdx)
	switch {
	case ws.wc.Ordered && in.cfg.Mode == ModeRio:
		mc.attrs = append(append(mc.attrs[:0], ws.wc.Attr), ws.more...)
		st := in.seq.Stream(ws.stream)
		for i := range mc.attrs {
			mc.idx = st.NextServerIdx(ws.q.Members[k])
			mc.attrs[i].ServerIdx = mc.idx
		}
		mc.sqe = nvmeof.RioWriteCommand(nsid, mc.attrs[0])
	case ws.wc.Ordered && in.cfg.Mode == ModeHorae:
		mc.idx = ws.wc.Attr.ServerIdx
		mc.sqe = nvmeof.RioWriteCommand(nsid, ws.wc.Attr)
	default:
		mc.sqe = nvmeof.WriteCommand(nsid, ws.wc.LBA, ws.wc.Blocks)
	}
}

// postByTarget coalesces wire commands into one vectored batch per replica
// set, and each set's commands go out on the set's current route: the batch
// shares a capsule (one fabrics framing, one PostMsg) and each command is
// vector-marked so the target can verify the batch was split exactly on
// set boundaries (§4.3 in-order chains).
//
// The batch is partitioned into per-set lists BEFORE the first yield: once
// a capsule toward an earlier set is posted, its commands can complete,
// deliver and be recycled — rescanning the shared wires slice after that
// could pick up a recycled wireState already rebound to a new command.
// Commands still waiting in a later capsule cannot be recycled (their
// origin requests count this unposted fragment), so the pre-built lists
// stay valid across the posting yields.
func (in *Initiator) postByTarget(p *sim.Proc, wires []*wireState, stream int) {
	in.stats.WireCmds += int64(len(wires))
	// The per-set lists leave with the capsules; the table that holds them
	// while posting stays on this proc's stack for a fleet of few sets.
	var few [8][]*wireState
	bySet := few[:min(len(in.c.replSets), len(few))]
	if len(in.c.replSets) > len(few) {
		bySet = make([][]*wireState, len(in.c.replSets))
	}
	for _, ws := range wires {
		if ws.wc.Flush {
			in.fanFlush(ws)
		}
		bySet[ws.target] = append(bySet[ws.target], ws)
	}
	for set, cmds := range bySet {
		if len(cmds) == 0 {
			continue
		}
		// Relay route: ordered writes that fanned to the full membership.
		// Flushes always go direct (a durability barrier certifies members
		// individually), as do batches assigned under a degraded snapshot
		// and orderless writes (no chain index for a head-cut re-ask to
		// tell "completed" from "never arrived" by).
		if rs := in.c.replSets[set]; in.c.relayActive(rs) {
			relayable := make([]*wireState, 0, len(cmds))
			var direct []*wireState
			for _, ws := range cmds {
				if !ws.wc.Flush && ws.wc.Ordered && len(ws.q.Members) == len(rs.members) {
					relayable = append(relayable, ws)
				} else {
					direct = append(direct, ws)
				}
			}
			if len(relayable) > 0 {
				in.postSet(p, relayable, stream, routeRelay)
			}
			cmds = direct
		}
		if len(cmds) > 0 {
			in.postSet(p, cmds, stream, routeDirect)
		}
	}
}

// post rings one doorbell toward a target: the capsule goes out through
// postCapsule and counts as initiator egress.
func (in *Initiator) post(p *sim.Proc, target, qp int, cp *capsule) {
	in.c.postCapsule(p, in.cores, in.targets[target].conns[in.id], qp, cp)
	in.stats.WireMessages++
	in.stats.TxMsgs++
	in.stats.TxBytes += int64(cp.wireSize())
	in.stats.Batch.Ring(len(cp.cmds))
}

// postCapsule is the one place a command capsule reaches the wire, from
// an initiator toward a member or from a set head toward a follower: the
// poster's cores pay PostMsg, the post stalls while the link's TX queue is
// at its depth (stalls are attributed to the capsule's commands), and the
// capsule is handed to the NIC. A link that went down meanwhile drops it.
func (c *Cluster) postCapsule(p *sim.Proc, cores *sim.Resource, conn *fabric.Conn, qp int, cp *capsule) {
	cores.Use(p, c.costs.PostMsg)
	if stall := conn.WaitTxSpace(p, fabric.Initiator); stall > 0 {
		for _, ws := range cp.cmds {
			addWaitWire(ws, trace.WaitTx, stall)
		}
	}
	conn.Send(fabric.Initiator, fabric.Message{QP: qp, Size: cp.wireSize(), Payload: cp})
}

// reapLoop is one shard's completion-reaping context (the initiator-side
// interrupt context): it consumes the response capsules of the shard's QP
// affinity set, validates coalesced-capsule geometry, fans fragments back
// to requests, and runs the mode-appropriate delivery protocol. Because
// the reaping shard and the submitting shard coincide under stream
// affinity, the wireStates and tracking lists a capsule releases return
// to local pools.
func (in *Initiator) reapLoop(p *sim.Proc, sh *shard) {
	for {
		msg := sh.cplQ.Pop(p)
		// A capsule of a dead epoch is dropped WHOLE, before any
		// per-entry side effect: its CQEs reference wireStates (and
		// retire watermarks) of the previous incarnation, and a
		// coalesced capsule that straddled a power cut must not deliver
		// a partial batch.
		if msg.epoch != in.epoch {
			continue
		}
		// Mirror the target's submission-vector check on the reverse
		// path: a coalesced capsule must arrive intact and in order.
		if err := nvmeof.CheckCQEVector(msg.cqes); err != nil {
			panic("stack: torn coalesced completion capsule: " + err.Error())
		}
		in.useInitCPU(p, in.costs.CplHandle)
		in.stats.ReapCPU += in.costs.CplHandle
		if len(msg.cqes) > 0 {
			in.stats.CplBatch.Ring(len(msg.cqes))
		}
		for _, cr := range msg.ctrlAcks {
			cr.ack.Fire()
		}
		for i := range msg.cqes {
			id := msg.cqes[i].ID()
			ws := in.outstanding[id]
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
			if i < len(msg.agg) && msg.agg[i].members != nil {
				// Aggregated CQE (relay route): the set head vouches for
				// every listed member's ack. memberAck may recycle ws
				// mid-list — the outstanding check stops the walk the moment
				// it does.
				addWaitWire(ws, trace.WaitAgg, msg.agg[i].wait)
				for _, m := range msg.agg[i].members {
					in.memberAck(p, ws, m)
					if in.outstanding[id] != ws {
						break
					}
				}
				continue
			}
			in.memberAck(p, ws, msg.from)
		}
		// Late-ack resolution records piggybacked by the relay head: each
		// stands in for one member CQE that was absorbed target-side.
		for _, res := range msg.resolved {
			ws := in.outstanding[res.id]
			if ws == nil || ws.epoch != in.epoch {
				continue
			}
			in.memberAck(p, ws, res.member)
		}
	}
}

// deliverCompletions fans one hardware-complete wire command's fragments
// back to its origin requests and runs the mode-appropriate delivery
// protocol. Shared by the quorum fire and the resync late-ack fire, so the
// two stay in lockstep. It
// snapshots the origin requests first: the final delivery may recycle
// ws (and reset its slices) while iterating.
func (in *Initiator) deliverCompletions(p *sim.Proc, ws *wireState) {
	reqs := ws.wc.Reqs
	for _, req := range reqs {
		if !req.FragmentDone() {
			continue
		}
		req.CompleteAt = p.Now()
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
