package ssd

import "math/bits"

// mediaTable maps an LBA to the stamp of its durable version. It is an
// open-addressing hash table over a power-of-two array of 16-byte slots:
// a multiplicative (Fibonacci) hash picks a slot's home, collisions probe
// linearly, the array doubles before the load would pass 3/4, and a delete
// shifts the rest of its probe run back (no tombstones). The slots hold no
// pointers, so the GC never scans the array. Key 0 marks an empty slot; LBA
// 0 itself is kept beside the array.
type mediaTable struct {
	slots    []mediaSlot
	shift    uint // 64 - log2(len(slots))
	n        int  // keys in slots (LBA 0 not counted)
	zero     uint64
	haveZero bool
}

type mediaSlot struct{ lba, stamp uint64 }

const minMediaSlots = 64

func (t *mediaTable) len() int {
	if t.haveZero {
		return t.n + 1
	}
	return t.n
}

// home is lba's first probe: the top bits of its Fibonacci product.
func (t *mediaTable) home(lba uint64) uint64 { return (lba * 0x9e3779b97f4a7c15) >> t.shift }

// find returns the slot holding lba, or the empty slot ending its probe
// run. The array must not be empty.
func (t *mediaTable) find(lba uint64) (uint64, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(lba); ; i = (i + 1) & mask {
		switch t.slots[i].lba {
		case lba:
			return i, true
		case 0:
			return i, false
		}
	}
}

func (t *mediaTable) get(lba uint64) (uint64, bool) {
	if lba == 0 {
		return t.zero, t.haveZero
	}
	if t.n == 0 {
		return 0, false
	}
	i, ok := t.find(lba)
	return t.slots[i].stamp, ok
}

func (t *mediaTable) put(lba, stamp uint64) {
	if lba == 0 {
		t.zero, t.haveZero = stamp, true
		return
	}
	if (t.n+1)*4 > len(t.slots)*3 {
		t.grow()
	}
	i, ok := t.find(lba)
	if !ok {
		t.slots[i].lba = lba
		t.n++
	}
	t.slots[i].stamp = stamp
}

func (t *mediaTable) delete(lba uint64) {
	if lba == 0 {
		t.zero, t.haveZero = 0, false
		return
	}
	if t.n == 0 {
		return
	}
	i, ok := t.find(lba)
	if !ok {
		return
	}
	t.n--
	// Backward shift: walk the run after the hole and move back every key
	// whose home does not lie strictly between the hole and the key's slot.
	mask := uint64(len(t.slots) - 1)
	for j := (i + 1) & mask; t.slots[j].lba != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j].lba))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = mediaSlot{}
}

// grow doubles the array (or makes the first one) and re-inserts every key.
func (t *mediaTable) grow() {
	old := t.slots
	size := max(2*len(old), minMediaSlots)
	t.slots = make([]mediaSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	mask := uint64(size - 1)
	for _, s := range old {
		if s.lba == 0 {
			continue
		}
		i := t.home(s.lba)
		for t.slots[i].lba != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
	}
}

// appendLBAs appends every key, in no particular order.
func (t *mediaTable) appendLBAs(out []uint64) []uint64 {
	if t.haveZero {
		out = append(out, 0)
	}
	for _, s := range t.slots {
		if s.lba != 0 {
			out = append(out, s.lba)
		}
	}
	return out
}
