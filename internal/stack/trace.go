package stack

import (
	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Stage tracing glue. Every helper here writes host memory only — no
// sleeps, no engine events, no allocations on the untraced path — so a
// traced run's event schedule is byte-identical to an untraced one. All
// span access carries the generation captured at sampling time
// (req.TraceSeq): a span recycled by a crash drop bumps its generation,
// so stale references from dead-epoch capsules or straggler replica acks
// become no-ops instead of corrupting the span's next life.

// maybeTrace samples 1-in-SampleEvery submissions per shard and opens a
// span for the request. The sampling decision is counter-based — no RNG
// draw — so the engine's random stream is untouched.
func (in *Initiator) maybeTrace(req *blockdev.Request) {
	tr := in.c.tracer
	if tr == nil || !in.alive {
		return
	}
	sh := in.shards[req.Stream]
	sh.traceCount++
	if sh.traceCount < tr.SampleEvery() {
		return
	}
	sh.traceCount = 0
	if sh.tslab == nil {
		sh.tslab = tr.NewSlab()
	}
	s := tr.Start(sh.tslab, in.id, req.Stream, req.LBA, req.Blocks, req.SubmitAt)
	req.Trace = s
	req.TraceSeq = s.Seq()
}

// markReq records one milestone on a sampled request's span.
func markReq(req *blockdev.Request, m trace.Milestone, at sim.Time) {
	if req.Trace != nil {
		req.Trace.Mark(req.TraceSeq, m, at)
	}
}

// addWaitReq attributes a wait duration to a sampled request's span.
func addWaitReq(req *blockdev.Request, w trace.Wait, d sim.Time) {
	if req.Trace != nil && d > 0 {
		req.Trace.AddWait(req.TraceSeq, w, d)
	}
}

// markWire records one milestone for every origin request of a wire
// command. Requests already past their completion point are skipped:
// under replication a straggler member's events arrive after the quorum
// fired and are off the request's critical path.
func markWire(ws *wireState, m trace.Milestone, at sim.Time) {
	for _, req := range ws.wc.Reqs {
		mustBeLive(req.Free(), "request")
		if req.Trace != nil && req.CompleteAt == 0 {
			req.Trace.Mark(req.TraceSeq, m, at)
		}
	}
}

// addWaitWire attributes a wait duration to every origin request of a
// wire command (same off-critical-path skip as markWire).
func addWaitWire(ws *wireState, w trace.Wait, d sim.Time) {
	if d <= 0 {
		return
	}
	for _, req := range ws.wc.Reqs {
		mustBeLive(req.Free(), "request")
		if req.Trace != nil && req.CompleteAt == 0 {
			req.Trace.AddWait(req.TraceSeq, w, d)
		}
	}
}

// markCpl records the completion-path milestones of one CQE on every
// origin request of its wire command: the coalesce hold (respond to
// capsule post), the response post and its delivery.
func markCpl(ws *wireState, msg *completionMsg, respAt sim.Time) {
	for _, req := range ws.wc.Reqs {
		mustBeLive(req.Free(), "request")
		if req.Trace == nil || req.CompleteAt != 0 {
			continue
		}
		if respAt > 0 && msg.sentAt > respAt {
			req.Trace.AddWait(req.TraceSeq, trace.WaitCQE, msg.sentAt-respAt)
		}
		req.Trace.Mark(req.TraceSeq, trace.MCplSent, msg.sentAt)
		req.Trace.Mark(req.TraceSeq, trace.MCplDeliver, msg.deliveredAt)
	}
}

// Tracer returns the cluster's stage tracer (nil when tracing is off).
func (c *Cluster) Tracer() *trace.Tracer { return c.tracer }

// TraceStats returns the tracer's aggregated stage statistics (the zero
// Stats when tracing is off).
func (c *Cluster) TraceStats() trace.Stats {
	if c.tracer == nil {
		return trace.Stats{}
	}
	return c.tracer.Stats()
}
