package kv

// bloom is a classic bloom filter, used twice under NegativeLookup. The
// store-wide filter covers the live key set, is maintained on Put/Delete
// and is consulted by Get before any memtable or SST probe: a definite
// "absent" answers at the initiator with zero fabric traffic — the point
// of the filter on a remote store, where every SST probe is an
// index-block read across the network. A per-SST filter (writeSST) covers
// one file's live keys and tombstones and lets Get pass over a file that
// cannot decide the key without reading its index block.
//
// Correctness rule: a filter must always be a SUPERSET of what it covers
// — a false positive costs one wasted probe, a false negative returns a
// wrong result. For a per-SST filter that includes the file's tombstones:
// one left out would let Get walk past the delete to an older put. For
// the store-wide filter there are three consequences:
//
//   - Delete never clears bits (classic bloom limitation); the filter
//     over-approximates until a compaction rebuilds it exactly from the
//     merged live key set.
//   - Crash recovery cannot reconstruct the exact key set (keys live in
//     process memory, durable files persist only sizes), so Reopen
//     SATURATES the filter whenever any durable record exists: every
//     key answers "maybe", which is the only superset available.
//   - The rebuild at compaction is the re-exactification point: the
//     compactor holds the full merged live key set anyway.
type bloom struct {
	bits []uint64
	k    int
	n    uint64 // bit count (len(bits) * 64)
	sat  bool   // saturated: every query answers "maybe"
}

// bloomK is the hash count: with bloomBits (1 Mi) and the serve
// workloads' ≤ 100 Ki live keys, k=4 keeps the store-wide filter's
// false-positive rate well under 1%; a per-SST filter's 10 bits per key
// give about 1.2%.
const bloomK = 4

func newBloom(bits int) *bloom {
	words := (bits + 63) / 64
	if words < 1 {
		words = 1
	}
	return &bloom{bits: make([]uint64, words), k: bloomK, n: uint64(words) * 64}
}

// fnv1a is the 64-bit FNV-1a hash, the base of the double-hashing
// scheme (h1 + i*h2) that derives the k probe positions.
func fnv1a(key string, seed uint64) uint64 {
	h := uint64(14695981039346656037) ^ seed
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// keyHash is a key's two base hashes. Every filter derives its probe
// positions from them, so a Get hashes its key once for the store-wide
// filter and every per-SST one.
type keyHash struct{ h1, h2 uint64 }

func hashOf(key string) keyHash {
	return keyHash{fnv1a(key, 0), fnv1a(key, 0x9e3779b97f4a7c15)}
}

func (b *bloom) add(key string) {
	if b.sat {
		return
	}
	h := hashOf(key)
	for i := 0; i < b.k; i++ {
		bit := (h.h1 + uint64(i)*h.h2) % b.n
		b.bits[bit/64] |= 1 << (bit % 64)
	}
}

func (b *bloom) mayContain(key string) bool { return b.mayContainHash(hashOf(key)) }

func (b *bloom) mayContainHash(h keyHash) bool {
	if b.sat {
		return true
	}
	for i := 0; i < b.k; i++ {
		bit := (h.h1 + uint64(i)*h.h2) % b.n
		if b.bits[bit/64]&(1<<(bit%64)) == 0 {
			return false
		}
	}
	return true
}

// reset clears the filter for an exact rebuild.
func (b *bloom) reset() {
	for i := range b.bits {
		b.bits[i] = 0
	}
	b.sat = false
}

// saturate turns the filter into the trivial superset (post-crash
// attach: the exact key set is unrecoverable).
func (b *bloom) saturate() { b.sat = true }
