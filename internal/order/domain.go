package order

import "repro/internal/core"

// Domain is one ordering domain — one (initiator, stream) pair as seen
// by one target server. It owns the four pieces of per-domain state the
// target driver keeps:
//
//   - the in-order submission gate (§4.3.1): a dense, 1-based ServerIdx
//     chain with a frontier (next expected index) and a parked set for
//     commands that arrived ahead of a predecessor;
//   - the PMR slot table mapping a live ServerIdx to the log slot its
//     ordering attribute was persisted in;
//   - the retire watermark (§4.3.2 head-pointer advance) recycling slots
//     whose completions the owning initiator has delivered;
//   - the completion frontier: the lowest index submitted and not yet
//     responded for, with the responses that ran ahead of it. A response
//     behind it cannot commit at the initiator before the older one does
//     (the paper's "execute out of order, commit in order").
//
// The parked payload type is the caller's (the stack parks its wire
// command, attribute chain and park instant); the engine never inspects it.
type Domain[P any] struct {
	next    uint64 // gate frontier: next expected ServerIdx (chains are 1-based)
	retired uint64 // retire watermark: slots <= retired are recycled
	done    uint64 // completion frontier: lowest submitted index not yet responded

	parked core.IDTable[P]         // by ServerIdx
	slots  core.IDTable[uint64]    // live ServerIdx -> PMR log slot
	ahead  core.IDTable[respAhead] // responded past the completion frontier, by first index
}

// respAhead is one command that responded while an older index of its
// domain had not: the last index it holds, and the caller's mark for the
// response it held back (0: none).
type respAhead struct {
	last uint64
	held uint8
}

// initDomain prepares a fresh domain (frontier at 1, pre-sized tables).
func (d *Domain[P]) initDomain(parkedCap int) {
	d.next, d.done = 1, 1
	d.retired = 0
	d.parked.Init(parkedCap)
	d.slots.Init(parkedCap * 4)
	d.ahead.Init(parkedCap)
}

// Reset restores the domain to its initial state, keeping table capacity
// (post-crash format: the next incarnation's chains restart at 1).
func (d *Domain[P]) Reset() {
	d.next, d.done = 1, 1
	d.retired = 0
	d.parked.Reset()
	d.slots.Reset()
	d.ahead.Reset()
}

// Frontier returns the next expected ServerIdx of the in-order gate.
func (d *Domain[P]) Frontier() uint64 { return d.next }

// Admit reports whether a command carrying idx may submit now (it is
// exactly the frontier). A non-admitted command must Park.
func (d *Domain[P]) Admit(idx uint64) bool { return idx == d.next }

// Park holds back a command that arrived ahead of a missing
// predecessor. Parking the same index twice overwrites (replays are
// idempotent).
func (d *Domain[P]) Park(idx uint64, v P) { d.parked.Put(idx, v) }

// Advance moves the gate frontier past idx (the command was submitted).
func (d *Domain[P]) Advance(idx uint64) { d.next = idx + 1 }

// TakeNext pops the parked command waiting at the frontier, if any —
// the unpark drain loop calls it after every Advance.
func (d *Domain[P]) TakeNext() (P, bool) { return d.TakeAt(d.next) }

// TakeAt is TakeNext at idx, ahead of the frontier: for a caller that
// holds every index from the frontier up to idx, taken but not yet
// submitted (the stack's PMR burst).
func (d *Domain[P]) TakeAt(idx uint64) (P, bool) { return d.parked.Delete(idx) }

// ParkedLen returns the number of held-back commands.
func (d *Domain[P]) ParkedLen() int { return d.parked.Len() }

// AuditParked counts parked entries at or below the frontier. An
// arrival AT the frontier always processes inline and the drain loop
// consumes parked[next] before yielding, so any such entry means the
// dense chain skipped or duplicated an index — exactly the corruption
// colliding ordering domains would produce. Healthy domains return 0.
func (d *Domain[P]) AuditParked() int {
	bad := 0
	for idx := range d.parked.All() {
		if idx > d.next {
			break
		}
		bad++
	}
	return bad
}

// Behind reports whether a submitted command whose first index is first
// sits behind an older command of the domain that has not responded yet.
func (d *Domain[P]) Behind(first uint64) bool { return first > d.done }

// Respond moves the completion frontier for a submitted command holding
// indices first..last as it responds; held is the caller's mark for a
// response it holds back until the frontier passes it (0: none). It
// returns the OR of the marks of the commands the frontier moved past, this
// one excluded. A response at or below the frontier (a duplicate) changes
// nothing.
func (d *Domain[P]) Respond(first, last uint64, held uint8) (passed uint8) {
	switch {
	case first > d.done:
		d.ahead.Put(first, respAhead{last: last, held: held})
		return 0
	case first < d.done:
		return 0
	}
	d.done = last + 1
	for {
		r, ok := d.ahead.Delete(d.done)
		if !ok {
			return passed
		}
		passed |= r.held
		d.done = r.last + 1
	}
}

// RecordSlot remembers the PMR log slot a live ServerIdx's attribute was
// persisted in.
func (d *Domain[P]) RecordSlot(idx, slot uint64) { d.slots.Put(idx, slot) }

// Slot returns the PMR slot of a live ServerIdx.
func (d *Domain[P]) Slot(idx uint64) (uint64, bool) { return d.slots.Get(idx) }

// RetiredTo returns the retire watermark (0 if it never advanced).
func (d *Domain[P]) RetiredTo() uint64 { return d.retired }

// RetireUpTo recycles every live slot with ServerIdx <= upTo, invoking
// free for each PMR slot released, and advances the watermark. It
// reports whether the watermark moved (the caller then wakes appenders
// blocked on log space).
func (d *Domain[P]) RetireUpTo(upTo uint64, free func(slot uint64)) bool {
	last := d.retired
	for idx := last + 1; idx <= upTo; idx++ {
		if slot, ok := d.slots.Delete(idx); ok {
			free(slot)
		}
	}
	if upTo > last {
		d.retired = upTo
		return true
	}
	return false
}
