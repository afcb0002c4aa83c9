package core

import "iter"

// IDTable maps ids that the simulation mints densely — group seqs,
// request, command and read ids, ServerIdx chains — to values. Live keys
// lie in a window [lo, hi) over a power-of-two slot array and key k sits
// in slot k&mask, so Get, Put and Delete are O(1) and a range visits keys
// in ascending order, with no sort. The array doubles when the live span
// outgrows it, so its size follows the span of live ids, never how many
// were minted. A Put below lo is allowed: ids may arrive out of order.
// The zero value is an empty table; Init pre-sizes one.
type IDTable[V any] struct {
	slots  []idSlot[V]
	lo, hi uint64 // live keys lie in [lo, hi); lo == hi when empty
	n      int
}

type idSlot[V any] struct {
	val V
	set bool
}

// Init empties the table and sizes it for a live span of capacity ids.
func (t *IDTable[V]) Init(capacity int) {
	t.slots = make([]idSlot[V], pow2(uint64(max(capacity, 1))))
	t.lo, t.hi, t.n = 0, 0, 0
}

func pow2(n uint64) uint64 {
	c := uint64(1)
	for c < n {
		c <<= 1
	}
	return c
}

func (t *IDTable[V]) mask() uint64 { return uint64(len(t.slots) - 1) }

// Len returns the number of live keys.
func (t *IDTable[V]) Len() int { return t.n }

// Get returns the value stored at k.
func (t *IDTable[V]) Get(k uint64) (V, bool) {
	if k-t.lo >= t.hi-t.lo { // outside [lo, hi), and always when empty
		var zero V
		return zero, false
	}
	s := &t.slots[k&t.mask()]
	return s.val, s.set
}

// Put stores v at k, replacing any value there.
func (t *IDTable[V]) Put(k uint64, v V) {
	switch {
	case t.n == 0:
		if len(t.slots) == 0 {
			t.Init(1)
		}
		t.lo, t.hi = k, k+1
	case k < t.lo:
		t.fit(t.hi - k)
		t.lo = k
	case k >= t.hi:
		t.fit(k + 1 - t.lo)
		t.hi = k + 1
	}
	s := &t.slots[k&t.mask()]
	if !s.set {
		s.set = true
		t.n++
	}
	s.val = v
}

// fit grows the slot array to hold a live span of span ids.
func (t *IDTable[V]) fit(span uint64) {
	if span <= uint64(len(t.slots)) {
		return
	}
	old, oldMask := t.slots, t.mask()
	t.slots = make([]idSlot[V], pow2(span))
	for k := t.lo; k < t.hi; k++ {
		t.slots[k&t.mask()] = old[k&oldMask]
	}
}

// Delete removes the value stored at k and returns it.
func (t *IDTable[V]) Delete(k uint64) (V, bool) {
	v, ok := t.Get(k)
	if !ok {
		return v, false
	}
	t.slots[k&t.mask()] = idSlot[V]{}
	t.n--
	switch {
	case t.n == 0:
		t.lo, t.hi = 0, 0
	case k == t.lo:
		for !t.slots[t.lo&t.mask()].set {
			t.lo++
		}
	case k == t.hi-1:
		for !t.slots[(t.hi-1)&t.mask()].set {
			t.hi--
		}
	}
	return v, true
}

// Reset drops every key, keeping the slot array.
func (t *IDTable[V]) Reset() {
	clear(t.slots)
	t.lo, t.hi, t.n = 0, 0, 0
}

// All visits the live keys in ascending order. The loop body may delete
// any key; a key put during the range is visited iff it lies above the
// current one.
func (t *IDTable[V]) All() iter.Seq2[uint64, V] {
	return func(yield func(uint64, V) bool) {
		for k := t.lo; k < t.hi; k = max(k+1, t.lo) {
			if s := t.slots[k&t.mask()]; s.set && !yield(k, s.val) {
				return
			}
		}
	}
}
