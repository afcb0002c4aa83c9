package stack

import (
	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/trace"
)

// shard is one stream's submission lane through the initiator. It owns
// everything the stream's hot path touches — the plug list, the dispatch
// queue, the queue-pair the stream's doorbells ring (Principle 2 stream
// affinity maps shard i onto QP i%QPs of every target connection), and
// the free-list pools for the per-request objects the dispatch path used
// to allocate on every call. Because the simulation engine runs one
// process at a time, shard pools need no locks; because each stream has
// its own shard, two streams never contend on a shared structure the way
// the old global reqWires map forced them to.
type shard struct {
	stream int
	qp     int // cached stream→QP affinity for doorbell rings
	q      *sim.Queue[*blockdev.Request]

	// cplQ receives the completion capsules of this shard's QP affinity
	// set; the shard's reaper drains it (no global completion queue).
	cplQ *sim.Queue[*completionMsg]
	reap reaper

	// Plug list (blk_start_plug semantics). plugSpare recycles the backing
	// array of the previously dispatched batch; loopBatch is the dispatch
	// loop's private accumulation buffer (one loop proc per shard).
	plugged   []*blockdev.Request
	plugSpare []*blockdev.Request
	loopBatch []*blockdev.Request
	armed     bool
	held      bool // explicit blk_start_plug: no timer flush until FinishPlug

	horae *horaeStage // Horae mode control-path staging, lazily built

	// Free lists. wireFree recycles wire commands together with their
	// embedded WireCmd and payload slices; listFree recycles the
	// per-request wire tracking lists; batchFree recycles the wire buffers
	// a dispatchBatch accumulates into (checked out because dispatch
	// yields the CPU mid-batch and the submitter can dispatch inline
	// concurrently with the shard's dispatch loop). timerFree holds fired
	// plug-hold events; nothing references them, so they outlive crashReset.
	wireFree  []*wireState
	listFree  []*wireList
	batchFree [][]*wireState
	timerFree sim.FreeList[plugTimer]

	// Stage-tracing sampling state: traceCount is the 1-in-N submission
	// counter, tslab the shard's span allocator. Both survive crashReset —
	// recycled spans are generation-guarded, so dead-epoch references
	// cannot corrupt a span's next life, and the sampling cadence is not
	// part of the simulated state.
	traceCount int
	tslab      *trace.Slab
}

// wireList tracks the wire commands that carry (parts of) one request,
// for the retire-watermark protocol. It lives in the request's dispatch
// scratch slot and returns to the shard pool at delivery.
type wireList struct {
	ws []*wireState
}

func newShard(in *Initiator, stream int) *shard {
	return &shard{
		stream: stream,
		qp:     stream % in.cfg.QPs,
		q:      sim.NewQueue[*blockdev.Request](in.Eng),
		cplQ:   sim.NewQueue[*completionMsg](in.Eng),
	}
}

// takePlug hands the staged batch off for dispatch and installs the
// recycled backing array for the next one.
func (sh *shard) takePlug() []*blockdev.Request {
	batch := sh.plugged
	sh.plugged = sh.plugSpare
	sh.plugSpare = nil
	return batch
}

// putPlugBatch returns a dispatched batch's backing array. If another
// inline dispatch already recycled its batch first, this one is dropped.
func (sh *shard) putPlugBatch(b []*blockdev.Request) {
	if sh.plugSpare == nil && b != nil {
		sh.plugSpare = b[:0]
	}
}

// getList checks a wire tracking list out of the pool.
func (sh *shard) getList(in *Initiator) *wireList {
	if n := len(sh.listFree); n > 0 {
		wl := sh.listFree[n-1]
		sh.listFree = sh.listFree[:n-1]
		in.stats.Pool.Hit()
		return wl
	}
	in.stats.Pool.Miss()
	return &wireList{}
}

// putList recycles a delivered request's tracking list.
func (sh *shard) putList(wl *wireList) {
	wl.ws = wl.ws[:0]
	sh.listFree = append(sh.listFree, wl)
}

// putWire recycles a wire command whose every origin request has been
// delivered (or that was fused away before posting / completed as a
// standalone flush). The embedded WireCmd keeps its slice capacity.
func (sh *shard) putWire(ws *wireState) {
	sh.wireFree = append(sh.wireFree, ws)
}

// getBatchBuf checks out an empty wire accumulation buffer.
func (sh *shard) getBatchBuf() []*wireState {
	if n := len(sh.batchFree); n > 0 {
		b := sh.batchFree[n-1]
		sh.batchFree = sh.batchFree[:n-1]
		return b[:0]
	}
	return nil
}

// putBatchBuf returns a dispatch batch's wire buffer.
func (sh *shard) putBatchBuf(b []*wireState) {
	if b != nil {
		sh.batchFree = append(sh.batchFree, b[:0])
	}
}

// crashReset drops everything volatile the shard holds: staged requests,
// queued work, and all pooled objects (they may still be referenced by
// in-flight capsules of the dead epoch, so they must not be reused).
func (sh *shard) crashReset() {
	sh.plugged = nil
	sh.plugSpare = nil
	sh.loopBatch = nil
	sh.armed = false
	sh.held = false
	sh.horae = nil
	sh.wireFree = nil
	sh.listFree = nil
	sh.batchFree = nil
	sh.q.Drain()
	sh.cplQ.Drain()
}
