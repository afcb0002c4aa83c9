package stack

import (
	"errors"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// Initiator is one initiator server of the cluster: its own CPU cores, a
// sequencer namespaced to its id, submission shards with their pools and
// reapers, an outstanding-command table, retire watermarks, and a
// private crash epoch. Initiators share the target fleet and the logical
// volume geometry but never coordinate with each other on the data path:
// ordering is per (initiator, stream) end to end, so one initiator
// crashing, recovering or saturating its cores cannot stall another.
type Initiator struct {
	c  *Cluster
	id int

	// Shared cluster geometry, duplicated so the hot path resolves it
	// without a pointer chase through the cluster.
	Eng     *sim.Engine
	cfg     Config
	costs   CostModel
	vol     *blockdev.Volume
	targets []*Target

	cores  *sim.Resource
	seq    *core.Sequencer
	shards []*shard // one submission shard per stream

	outstanding core.IDTable[*wireState] // by wire id
	nextCmdID   uint64
	linuxMu     *sim.Resource
	// submitLinux's wire and FLUSH lists, reused under linuxMu.
	linuxWires, linuxFlushes []*wireState
	// retireMark is the dense {stream, target} watermark table (index
	// stream*len(targets)+target): streams and targets are fixed at
	// construction, so the delivery hot path indexes a slice instead of
	// hashing a two-int map key per request.
	retireMark []uint64
	// retireSent is the last watermark a capsule carried, same index, and
	// retireAsked marks targets whose full log asked for watermarks when
	// there were none to send: the next advance toward them is sent.
	retireSent  []uint64
	retireAsked []bool
	epoch       int
	alive       bool

	// fuseWires scratch: per-device batch tails, generation-stamped so a
	// dispatch never reads a previous batch's tail (the slice is only
	// touched between yields, so sharing it across shards is safe).
	fuseTails []fuseTail
	fuseGen   uint64

	// buildWires scratch (extBuf also submitHorae's), shared by all shards:
	// neither yields while using it, so one set serves every caller.
	extBuf   []blockdev.Extent
	pieceBuf []blockdev.Extent
	attrBuf  []core.Attr
	blockBuf []uint32

	// Read path. rcache is nil with CacheBlocks == 0: every read then
	// crosses the fabric. pendingReads tracks in-flight read commands by a
	// monotonic id, so crash sweeps reroute or abandon them in issue
	// order. Read records and per-call scratch recycle through readFree
	// and callFree.
	rcache       *rcache
	pendingReads core.IDTable[*pendingRead]
	nextReadID   uint64
	readFree     sim.FreeList[pendingRead]
	callFree     sim.FreeList[readCall]
	readDone     func(*ssd.Command) // in.onReadDone, bound once

	reqFree sim.FreeList[blockdev.Request] // released write requests (Release)

	// Submit-side pushback (Config.MaxInflight > 0): inflight counts
	// admitted-but-undelivered requests (waitSubmitSlot increments it
	// only after the gate opens — parked submitters are not counted);
	// submissions at the bound block on inflightCond until deliveries
	// drain it. gov holds the dispatch plug depth (adapted to the
	// submission arrival rate when Config.Governor is enabled).
	inflight     int
	inflightCond *sim.Cond
	gov          *governor

	stats ClusterStats
}

// newInitiator builds initiator id and starts its shards' dispatch and reap
// contexts. The cluster's volume, targets and replica sets must already
// exist.
func newInitiator(c *Cluster, id int) *Initiator {
	in := &Initiator{
		c:           c,
		id:          id,
		Eng:         c.Eng,
		cfg:         c.cfg,
		costs:       c.costs,
		vol:         c.vol,
		targets:     c.targets,
		cores:       sim.NewResource(c.Eng, c.cfg.InitiatorCores),
		linuxMu:     sim.NewResource(c.Eng, 1),
		retireMark:  make([]uint64, c.cfg.Streams*len(c.targets)),
		retireSent:  make([]uint64, c.cfg.Streams*len(c.targets)),
		retireAsked: make([]bool, len(c.targets)),
		gov:         newGovernor(c.cfg, c.Eng.Now()),
		alive:       true,
	}
	in.outstanding.Init(64)
	in.readDone = in.onReadDone
	in.seq = in.newSequencer()
	in.inflightCond = sim.NewCond(c.Eng)
	in.fuseTails = make([]fuseTail, c.vol.Devices())
	if c.cfg.CacheBlocks > 0 {
		in.rcache = newRCache(c.cfg.CacheBlocks, c.cfg.Streams)
	}
	for s := 0; s < c.cfg.Streams; s++ {
		sh := newShard(in, s)
		in.shards = append(in.shards, sh)
		d := &sh.disp
		d.in, d.sh, d.bySet = in, sh, make([][]*wireState, len(c.replSets))
		d.Start(c.Eng, in.cores, d, (*dispatcher).take)
		// Per-shard completion reaping (softirq context): the shard owns
		// the completion queue for its QP affinity set, so a stream's
		// completions recycle through the pools of the shard that filled
		// them — no cross-shard pool traffic, no shared global queue.
		r := &sh.reap
		r.in, r.sh = in, sh
		r.Start(c.Eng, in.cores, r, (*reaper).take)
	}
	return in
}

// ID returns the initiator's id (its ordering-domain namespace).
func (in *Initiator) ID() int { return in.id }

// Alive reports whether the initiator server is powered.
func (in *Initiator) Alive() bool { return in.alive }

// Stats returns this initiator's counters.
func (in *Initiator) Stats() ClusterStats { return in.stats }

// Sequencer exposes this initiator's Rio sequencer (tests, recovery).
func (in *Initiator) Sequencer() *core.Sequencer { return in.seq }

// Cluster returns the cluster this initiator belongs to.
func (in *Initiator) Cluster() *Cluster { return in.c }

// Costs exposes the calibrated cost model so upper layers (fs, kv)
// charge the same per-operation CPU the stack itself uses.
func (in *Initiator) Costs() CostModel { return in.costs }

// bumpRetireMark advances the {stream, target} watermark to idx if it is
// ahead of the recorded one.
func (in *Initiator) bumpRetireMark(stream, target int, idx uint64) {
	k := stream*len(in.targets) + target
	if idx > in.retireMark[k] {
		in.retireMark[k] = idx
		if in.retireAsked[target] {
			in.retireAsked[target] = !in.sendRetires(target)
		}
	}
}

// sendRetires answers a target whose log partition for this initiator is
// full: one capsule with every stream's watermark toward it that no capsule
// carried yet, without a command (the target recycles it on receipt),
// posted like a re-ask: PostMsg, then egress on QP 0. It reports whether
// there was one to send.
func (in *Initiator) sendRetires(target int) bool {
	var cp *capsule
	for s := 0; s < in.cfg.Streams; s++ {
		k := s*len(in.targets) + target
		if in.retireMark[k] > in.retireSent[k] {
			if cp == nil {
				cp = in.c.getCapsule(in.epoch, target)
			}
			cp.retires = append(cp.retires, retire{stream: uint16(s), upTo: in.retireMark[k]})
			in.retireSent[k] = in.retireMark[k]
		}
	}
	if cp == nil {
		return false
	}
	d := &dispatcher{in: in, asks: []*capsule{cp}}
	d.Start(in.Eng, in.cores, d, (*dispatcher).reask)
	return true
}

// retireMarksSet counts watermarks that have advanced (tests).
func (in *Initiator) retireMarksSet() int {
	n := 0
	for _, m := range in.retireMark {
		if m > 0 {
			n++
		}
	}
	return n
}

// reapShard routes a completion capsule arriving on a queue pair to the
// shard that owns that QP's reaping. With stream affinity, shard s rings
// doorbells on QP s%QPs, so QP q's completions belong to shards
// {q, q+QPs, ...} — shard q (the affinity set's owner) reaps them all
// and objects still recycle to the shard of the stream that created
// them, which is local whenever Streams == QPs.
func (in *Initiator) reapShard(qp int) *shard {
	return in.shards[qp%len(in.shards)]
}

// UseCPU charges d of CPU on this initiator's cores from proc context: the
// stack's own per-operation costs and application-level work (file-system
// logic, key-value indexing, compaction). A zero charge takes no core.
func (in *Initiator) UseCPU(p *sim.Proc, d sim.Time) {
	if d > 0 {
		in.cores.Use(p, d)
	}
}

// streamOf maps a stream id onto the configured streams, modulo Streams:
// -1 names the last stream, Streams+1 stream 1.
func (in *Initiator) streamOf(stream int) int {
	n := in.cfg.Streams
	return (stream%n + n) % n
}

// ErrServerDown is returned by a wait whose server died before the
// waiting thread was back on a core: a dead server acknowledges nothing,
// and recovery decides whether the work survived.
var ErrServerDown = errors.New("stack: server died during the wait")

// blockingWait models a thread sleeping on an I/O completion: context
// switch out, completion interrupt, scheduler wakeup latency. It returns
// ErrServerDown unless the incarnation that began the wait is still the
// live one once the thread is back on a core.
func (in *Initiator) blockingWait(p *sim.Proc, sig *sim.Signal) error {
	epoch := in.epoch
	if !sig.Fired() {
		in.UseCPU(p, in.costs.BlockCPU)
		sig.Wait(p)
		p.Sleep(in.costs.WakeLat)
		in.UseCPU(p, in.costs.WakeCPU)
	}
	if !in.alive || in.epoch != epoch {
		return ErrServerDown
	}
	return nil
}

// Wait blocks until req's completion has been delivered (rio_wait). About
// to block, the thread first flushes its plug list (as Linux does on
// schedule()), so staged requests of this stream reach the wire. It
// returns ErrServerDown if the server died during the wait.
func (in *Initiator) Wait(p *sim.Proc, req *blockdev.Request) error {
	mustBeLive(req.Free(), "request")
	if !req.Done.Fired() {
		in.plugFlush(p, req.Stream)
	}
	return in.blockingWait(p, req.Done)
}

// WaitSignal blocks on an arbitrary completion signal with the same
// context-switch and wakeup costs as an I/O wait (e.g. a JBD2 group-commit
// join), and the same ErrServerDown.
func (in *Initiator) WaitSignal(p *sim.Proc, sig *sim.Signal) error {
	return in.blockingWait(p, sig)
}

// OrderedWrite submits one ordered write request on a stream (rio_submit
// semantics: asynchronous; boundary closes the group; flush requests
// durability of the whole group; ipu marks in-place updates). The returned
// request's Done signal fires when the completion is delivered in storage
// order. Depending on the cluster mode this maps to the Rio path, the
// Horae control+data path, or the Linux synchronous path (in which case
// the call blocks until durable). data's payloads must not be modified
// after the call: devices, replicas and the read cache keep references to
// them, not copies. The request is the caller's until it calls Release;
// one never released is never reused.
func (in *Initiator) OrderedWrite(p *sim.Proc, stream int, lba uint64, blocks uint32,
	stamp uint64, data [][]byte, boundary, flush, ipu bool) *blockdev.Request {
	return in.submitWrite(p, stream, blockdev.Request{
		Op: blockdev.OpWrite, LBA: lba, Blocks: blocks, Stamp: stamp, Data: data,
		Ordered: true, Boundary: boundary, Flush: flush, IPU: ipu,
	})
}

// OrderlessWrite submits a plain (no ordering guarantee) write.
func (in *Initiator) OrderlessWrite(p *sim.Proc, stream int, lba uint64, blocks uint32,
	stamp uint64, data [][]byte) *blockdev.Request {
	return in.submitWrite(p, stream, blockdev.Request{Op: blockdev.OpWrite, LBA: lba, Blocks: blocks, Stamp: stamp, Data: data})
}

// Release hands a write request back: its owner will neither wait on it
// nor read it again. It may come before or after the delivery; the request
// is reused once delivered and listed by no wire command. Twice panics.
func (in *Initiator) Release(req *blockdev.Request) {
	req.Release()
	in.reclaim(req)
}

// reclaim returns req to the free list once it is released, delivered and
// unpinned. Under PoisonRecycled a reclaimed request is dead for good.
func (in *Initiator) reclaim(req *blockdev.Request) {
	if req.Reclaim() && !in.c.poison {
		in.reqFree.Put(req)
	}
}

// submitWrite copies a write request into a released one, or a new one,
// stamps it and submits it on the path of its mode: the synchronous Horae
// control path or Linux path for an ordered write there, the asynchronous
// path otherwise.
func (in *Initiator) submitWrite(p *sim.Proc, stream int, r blockdev.Request) *blockdev.Request {
	req := in.reqFree.Get()
	r.HoraeIdx = req.HoraeIdx // keep the storage; submitHorae zeroes it
	*req = r
	req.Stream, req.SubmitAt = in.streamOf(stream), p.Now()
	req.InitDone(in.Eng)
	in.stats.Submitted++
	in.maybeTrace(req)
	switch {
	case req.Ordered && in.cfg.Mode == ModeHorae:
		in.submitHorae(p, req)
	case req.Ordered && in.cfg.Mode == ModeLinux:
		in.submitLinux(p, req)
	default:
		in.submitAsync(p, req)
	}
	req.SubmitSpent = p.Now() - req.SubmitAt
	return req
}

// FlushDevice issues a standalone FLUSH to every device backing the
// logical range owner (used by file systems for block reuse, §4.4.2).
func (in *Initiator) FlushDevice(p *sim.Proc, stream int) {
	stream = in.streamOf(stream)
	var flushes []*wireState
	for d := 0; d < in.vol.Devices(); d++ {
		flushes = append(flushes, in.newFlushWire(d, stream))
	}
	in.flushWires(p, stream, flushes)
}

// flushWires dispatches standalone FLUSHes from mint on, like a Linux
// write, and waits for them. Carrying no requests, they recycle here, or at
// the ack of a straggler member.
func (in *Initiator) flushWires(p *sim.Proc, stream int, flushes []*wireState) {
	if len(flushes) == 0 {
		return
	}
	in.getDispatcher(stream, flushes).call(p, (*dispatcher).mint)
	for _, ws := range flushes {
		in.blockingWait(p, ws.hwDone)
	}
	for _, ws := range flushes {
		in.maybeRecycle(ws)
	}
}

// newWire checks a wireState (with its embedded WireCmd) out of the
// stream's shard pool, resets it, and registers it as outstanding. The
// caller fills ws.wc and then resolves routing with bindWire.
func (in *Initiator) newWire(stream int) *wireState {
	sh := in.shards[stream]
	var ws *wireState
	if n := len(sh.wireFree); n > 0 {
		ws = sh.wireFree[n-1]
		sh.wireFree = sh.wireFree[:n-1]
		ws.hwDone.Reset()
		in.stats.Pool.Hit()
	} else {
		ws = &wireState{hwDone: sim.NewSignal(in.Eng)}
		in.stats.Pool.Miss()
	}
	ws.reset()
	in.nextCmdID++
	ws.id = in.nextCmdID
	ws.init = in.id
	ws.stream = stream
	ws.epoch = in.epoch
	in.outstanding.Put(ws.id, ws)
	return ws
}

// bindWire resolves the wire command's device reference to its target
// server and SSD, and arms the per-request delivery count.
func (in *Initiator) bindWire(ws *wireState) {
	ref := in.vol.Dev(ws.wc.Dev)
	ws.target = ref.Server
	ws.ssdIdx = ref.SSD
	ws.pendingRq = len(ws.wc.Reqs)
}

// newFlushWire builds a standalone FLUSH command toward device d.
func (in *Initiator) newFlushWire(d, stream int) *wireState {
	ws := in.newWire(stream)
	ws.wc.Dev = d
	ws.wc.Flush = true
	in.bindWire(ws)
	return ws
}

func (in *Initiator) qpFor(stream int) int {
	if in.cfg.StreamAffinity {
		return in.shards[stream].qp
	}
	return in.Eng.Rand().Intn(in.cfg.QPs)
}

// crashVolatile drops everything volatile this initiator holds — the
// sequencer, outstanding commands, retire watermarks, staged work and
// every shard pool — and opens a new epoch so in-flight traffic of the
// old incarnation is recognized and dropped everywhere.
func (in *Initiator) crashVolatile() {
	// The server is dark until its recovery completes: Alive() gates the
	// application loops, and the submit paths re-check it after their
	// yields so a submission that straddled the cut dies un-staged
	// instead of minting fresh-incarnation sequence state for a command
	// the cut already lost.
	in.alive = false
	in.epoch++
	in.seq = in.newSequencer()
	in.outstanding.Reset()
	in.retireMark = make([]uint64, in.cfg.Streams*len(in.targets))
	in.retireSent = make([]uint64, in.cfg.Streams*len(in.targets))
	in.retireAsked = make([]bool, len(in.targets))
	in.reqFree = sim.FreeList[blockdev.Request]{}
	for _, sh := range in.shards {
		sh.crashReset()
	}
	// In-flight accounting dies with the incarnation: wake any submitter
	// stalled on the bound so its alive re-check can drop the request.
	in.inflight = 0
	in.inflightCond.Broadcast()
	// Every open span of this initiator terminates as dropped@<stage>:
	// the requests it was tracking died with the incarnation, and a
	// sampled request must never leave a dangling open span behind.
	if in.c.tracer != nil {
		in.c.tracer.DropOpen(in.id)
	}
	// The read cache and in-flight reads are volatile state of the dead
	// incarnation too.
	in.abortAllReads()
}
