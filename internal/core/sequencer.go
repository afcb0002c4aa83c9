package core

// Sequencer is the Rio sequencer (Fig. 4): the shim between the file
// system/application and the block layer. It creates ordering attributes
// at submission (step 1-2), hands out dense per-(stream, server) indices
// for in-order submission at the targets (§4.3.1), and enforces in-order
// completion (step 9) so that applications observe intact storage order
// despite out-of-order execution in between.
//
// The sequencer is pure bookkeeping: the caller provides a deliver
// callback, invoked exactly once per request when that request's
// completion may be exposed to the application: one func per sequencer,
// handed each ticket (NewSequencerFor), or one per request (Submit).
type Sequencer struct {
	streams []*StreamSeq
}

// NewSequencer creates n independent streams (rio_setup) in initiator
// namespace 0 (the single-initiator case).
func NewSequencer(n int) *Sequencer {
	return NewSequencerFor(0, n, nil)
}

// NewSequencerFor creates n independent streams namespaced to one
// initiator: every attribute the sequencer mints carries the initiator
// id, so targets and recovery can keep the ordering domains of a
// multi-initiator cluster apart. deliver (may be nil) receives every
// ticket submitted without a callback of its own.
func NewSequencerFor(initiator uint16, n int, deliver func(*Ticket)) *Sequencer {
	s := &Sequencer{}
	for i := 0; i < n; i++ {
		st := newStreamSeq(initiator, uint16(i))
		st.deliver = deliver
		s.streams = append(s.streams, st)
	}
	return s
}

// Streams returns the number of streams.
func (s *Sequencer) Streams() int { return len(s.streams) }

// Stream returns stream i.
func (s *Sequencer) Stream(i int) *StreamSeq { return s.streams[i] }

// Ticket tracks one submitted ordered request through its lifetime. A
// ticket's storage may be owned by the caller (embedded in the block
// request, see SubmitInto) and reused across submissions once the
// previous lifetime has ended in delivery.
type Ticket struct {
	Attr    Attr
	Owner   any // the submitter's: the record embedding this ticket (sequencer-wide deliver)
	deliver func()
	done    bool
	live    bool // registered in a stream's inflight set
}

type groupTrack struct {
	outstanding int  // requests not yet hardware-complete
	closed      bool // boundary seen
	buffered    []*Ticket
}

// reset prepares a recycled groupTrack for a new group, keeping the
// buffered slice's capacity.
func (g *groupTrack) reset() {
	g.outstanding = 0
	g.closed = false
	g.buffered = g.buffered[:0]
}

// StreamSeq is the per-stream state: global order on the submission side,
// per-server chains for the targets, and the in-order completion gate.
// Its in-flight sets are id tables keyed by the numbers it mints.
type StreamSeq struct {
	initiator uint16 // ordering-domain namespace (multi-initiator clusters)
	id        uint16
	nextSeq   uint64 // seq assigned to the currently open group
	openCount uint16
	nextReq   uint64   // requests minted; a ticket's ReqID is its low 32 bits
	serverIdx []uint64 // last ServerIdx stamped, per server

	fullyDone uint64               // all groups <= fullyDone are complete and delivered
	groups    IDTable[*groupTrack] // open groups, by seq
	inflight  IDTable[*Ticket]     // undelivered tickets, by request number

	groupFree []*groupTrack // free list of retired group trackers
	deliver   func(*Ticket) // for tickets submitted without a callback
	delivered []*Ticket     // Completed's result, reused call to call
}

func newStreamSeq(initiator, id uint16) *StreamSeq {
	st := &StreamSeq{initiator: initiator, id: id, nextSeq: 1}
	st.groups.Init(4)
	st.inflight.Init(16)
	return st
}

// Submit creates the ordering attribute for one ordered write request
// (rio_submit). boundary marks the end of the current group; flush tags
// the request with the durability barrier; ipu marks an in-place update.
// deliver is called when the completion may be exposed in storage order;
// nil leaves the delivery to the sequencer-wide func.
func (st *StreamSeq) Submit(lba uint64, blocks uint32, boundary, flush, ipu bool, deliver func()) *Ticket {
	return st.SubmitInto(&Ticket{}, lba, blocks, boundary, flush, ipu, deliver)
}

// SubmitInto is Submit writing into caller-owned ticket storage (e.g. a
// slot embedded in the block request), so attaching a ticket costs no
// allocation. The storage may be reused for a later submission only after
// the previous lifetime ended in delivery; reusing a live ticket would
// corrupt the inflight set, so it panics.
func (st *StreamSeq) SubmitInto(t *Ticket, lba uint64, blocks uint32, boundary, flush, ipu bool, deliver func()) *Ticket {
	if t.live {
		panic("core: SubmitInto would resurrect a live ticket")
	}
	a := Attr{
		Initiator: st.initiator,
		Stream:    st.id,
		ReqID:     uint32(st.nextReq),
		SeqStart:  st.nextSeq,
		SeqEnd:    st.nextSeq,
		LBA:       lba,
		Blocks:    blocks,
		Boundary:  boundary,
		Flush:     flush,
		IPU:       ipu,
	}
	st.openCount++
	g, _ := st.groups.Get(st.nextSeq)
	if g == nil {
		if n := len(st.groupFree); n > 0 {
			g = st.groupFree[n-1]
			st.groupFree = st.groupFree[:n-1]
			g.reset()
		} else {
			g = &groupTrack{}
		}
		st.groups.Put(st.nextSeq, g)
	}
	g.outstanding++
	if boundary {
		a.Num = st.openCount
		g.closed = true
		st.openCount = 0
		st.nextSeq++
	}
	t.Attr = a
	t.deliver = deliver
	t.done = false
	t.live = true
	st.inflight.Put(st.nextReq, t)
	st.nextReq++
	return t
}

// NextServerIdx stamps the next dense per-server submission index. The
// block layer calls this at dispatch time, after merging and splitting,
// when the target of each wire request is known.
func (st *StreamSeq) NextServerIdx(server int) uint64 {
	if server >= len(st.serverIdx) {
		st.serverIdx = append(st.serverIdx, make([]uint64, server+1-len(st.serverIdx))...)
	}
	st.serverIdx[server]++
	return st.serverIdx[server]
}

// ResetServerChain restarts the per-server index chain after a target
// crash: the restarted server's gate expects indices from 1 again and
// replayed commands are stamped with fresh indices.
func (st *StreamSeq) ResetServerChain(server int) {
	if server < len(st.serverIdx) {
		st.serverIdx[server] = 0
	}
}

// reqKey widens a 32-bit ReqID to the request number it was minted from:
// the latest one with those low bits. Live tickets span far fewer than
// 2^32 requests, so the ReqID wrap is invisible to the inflight table.
func (st *StreamSeq) reqKey(reqID uint32) uint64 {
	last := st.nextReq - 1
	return last - uint64(uint32(last)-reqID)
}

// Completed reports the hardware completion of one submitted request and
// runs the in-order completion protocol: deliveries happen in group order.
// It returns the tickets whose deliver callbacks were invoked, in a slice
// the stream reuses: it is valid until the next Completed on this stream.
func (st *StreamSeq) Completed(reqID uint32) []*Ticket {
	t, ok := st.inflight.Get(st.reqKey(reqID))
	if !ok || t.done {
		return nil // duplicate completion (e.g. replay after target crash)
	}
	t.done = true
	seq := t.Attr.SeqEnd
	g, _ := st.groups.Get(seq)
	if g == nil {
		panic("core: completion for unknown group")
	}
	g.outstanding--

	st.delivered = st.delivered[:0]
	if seq <= st.fullyDone+1 {
		// Its turn (all prior groups done): deliver immediately.
		st.deliverTicket(t)
	} else {
		g.buffered = append(g.buffered, t)
	}
	// Advance the fully-done frontier and flush buffered deliveries.
	for {
		next, _ := st.groups.Get(st.fullyDone + 1)
		if next == nil || !next.closed || next.outstanding > 0 {
			break
		}
		st.groups.Delete(st.fullyDone + 1)
		st.groupFree = append(st.groupFree, next)
		st.fullyDone++
		if ng, _ := st.groups.Get(st.fullyDone + 1); ng != nil {
			for _, bt := range ng.buffered {
				st.deliverTicket(bt)
			}
			ng.buffered = ng.buffered[:0]
		}
	}
	return st.delivered
}

func (st *StreamSeq) deliverTicket(t *Ticket) {
	st.inflight.Delete(st.reqKey(t.Attr.ReqID))
	t.live = false // lifetime over: the storage may be reused
	if t.deliver != nil {
		t.deliver()
	} else if st.deliver != nil {
		st.deliver(t)
	}
	st.delivered = append(st.delivered, t)
}

// FullyDone returns the highest group seq whose completions have all been
// delivered in order.
func (st *StreamSeq) FullyDone() uint64 { return st.fullyDone }
