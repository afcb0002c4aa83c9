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

	// Plug list (blk_start_plug semantics): a dispatch copies it out.
	plugged []*blockdev.Request
	armed   bool
	held    bool       // explicit blk_start_plug: no timer flush until FinishPlug
	disp    dispatcher // the shard's dispatch context

	horae     *horaeStage              // Horae mode: the group staging (nil until a write)
	horaeFree sim.FreeList[horaeStage] // Horae groups their boundary released

	// Free lists. wireFree recycles wire commands together with their
	// embedded WireCmd and payload slices; listFree recycles the
	// per-request wire tracking lists. timerFree holds fired plug-hold
	// events, dispFree the records submitting threads dispatch with in
	// their own place (one per dispatch in progress); nothing references
	// an idle one, so they outlive crashReset.
	wireFree  []*wireState
	listFree  []*wireList
	timerFree sim.FreeList[plugTimer]
	dispFree  sim.FreeList[dispatcher]

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
// standalone flush) to its shard's pool, unpinning the requests it lists.
// The embedded WireCmd keeps its slice capacity.
func (in *Initiator) putWire(ws *wireState) {
	for _, req := range ws.wc.Reqs {
		req.Unpin()
		in.reclaim(req)
	}
	sh := in.shards[ws.stream]
	sh.wireFree = append(sh.wireFree, ws)
}

// crashReset drops everything volatile the shard holds: staged requests,
// queued work, and all pooled objects (they may still be referenced by
// in-flight capsules of the dead epoch, so they must not be reused).
func (sh *shard) crashReset() {
	sh.plugged = nil
	sh.armed = false
	sh.held = false
	sh.horae = nil
	sh.wireFree = nil
	sh.listFree = nil
	sh.q.Drain()
	sh.cplQ.Drain()
}
