package order

import "repro/internal/core"

// Domain is one ordering domain — one (initiator, stream) pair as seen
// by one target server. It owns the three pieces of per-domain invariant
// state the paper's target driver maintains:
//
//   - the in-order submission gate (§4.3.1): a dense, 1-based ServerIdx
//     chain with a frontier (next expected index) and a parked set for
//     commands that arrived ahead of a predecessor;
//   - the PMR slot table mapping a live ServerIdx to the log slot its
//     ordering attribute was persisted in;
//   - the retire watermark (§4.3.2 head-pointer advance) recycling slots
//     whose completions the owning initiator has delivered.
//
// The parked payload type is the caller's (the stack parks its wire
// command plus attribute chain); the engine never inspects it.
type Domain[P any] struct {
	next    uint64 // gate frontier: next expected ServerIdx (chains are 1-based)
	retired uint64 // retire watermark: slots <= retired are recycled

	parked core.IDTable[parkedAt[P]] // by ServerIdx
	slots  core.IDTable[uint64]      // live ServerIdx -> PMR log slot
}

// parkedAt is a parked command and its park instant (0 unless ParkAt).
type parkedAt[P any] struct {
	v  P
	at int64
}

// initDomain prepares a fresh domain (frontier at 1, pre-sized tables).
func (d *Domain[P]) initDomain(parkedCap int) {
	d.next = 1
	d.retired = 0
	d.parked.Init(parkedCap)
	d.slots.Init(parkedCap * 4)
}

// Reset restores the domain to its initial state, keeping table capacity
// (post-crash format: the next incarnation's chains restart at 1).
func (d *Domain[P]) Reset() {
	d.next = 1
	d.retired = 0
	d.parked.Reset()
	d.slots.Reset()
}

// Frontier returns the next expected ServerIdx of the in-order gate.
func (d *Domain[P]) Frontier() uint64 { return d.next }

// Admit reports whether a command carrying idx may submit now (it is
// exactly the frontier). A non-admitted command must Park.
func (d *Domain[P]) Admit(idx uint64) bool { return idx == d.next }

// Park holds back a command that arrived ahead of a missing
// predecessor. Parking the same index twice overwrites (replays are
// idempotent).
func (d *Domain[P]) Park(idx uint64, v P) { d.parked.Put(idx, parkedAt[P]{v: v}) }

// Advance moves the gate frontier past idx (the command was submitted).
func (d *Domain[P]) Advance(idx uint64) { d.next = idx + 1 }

// TakeNext pops the parked command waiting at the frontier, if any —
// the unpark drain loop calls it after every Advance.
func (d *Domain[P]) TakeNext() (P, bool) {
	p, ok := d.parked.Delete(d.next)
	return p.v, ok
}

// ParkAt is Park plus a park instant, recorded for gate-wait attribution
// (stage tracing). The instant is the caller's clock; the engine stores
// it opaquely.
func (d *Domain[P]) ParkAt(idx uint64, v P, at int64) { d.parked.Put(idx, parkedAt[P]{v, at}) }

// TakeNextAt is TakeNext plus the park instant the command was ParkAt-ed
// with (0 if it was parked via plain Park).
func (d *Domain[P]) TakeNextAt() (P, int64, bool) {
	p, ok := d.parked.Delete(d.next)
	return p.v, p.at, ok
}

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
