package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEntryEncodeDecodeRoundTrip(t *testing.T) {
	f := func(stream uint16, reqID uint32, seqS, seqE uint64, idx uint64,
		lba uint64, blocks uint32, num uint16, flags uint8, si, sc uint16) bool {
		e := Entry{
			Attr: Attr{
				Stream: stream, ReqID: reqID,
				SeqStart: seqS, SeqEnd: seqE,
				ServerIdx: idx, LBA: lba, Blocks: blocks, Num: num,
				Boundary: flags&1 != 0, Flush: flags&2 != 0,
				IPU: flags&4 != 0, Split: flags&8 != 0,
				SplitIdx: si, SplitCnt: sc,
			},
			Persist: flags&16 != 0,
		}
		var buf [EntrySize]byte
		encodeEntry(buf[:], e)
		got, ok := decodeEntry(buf[:])
		return ok && got == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	var zero [EntrySize]byte
	if _, ok := decodeEntry(zero[:]); ok {
		t.Fatal("all-zero slot must not decode")
	}
	var buf [EntrySize]byte
	encodeEntry(buf[:], Entry{Attr: Attr{Stream: 1, SeqStart: 5, SeqEnd: 5}})
	buf[9] ^= 0xff // torn write
	if _, ok := decodeEntry(buf[:]); ok {
		t.Fatal("corrupted slot must fail checksum")
	}
}

func TestLogAppendScan(t *testing.T) {
	region := make([]byte, 16*EntrySize)
	l := NewLog(region)
	if l.Cap() != 16 {
		t.Fatalf("cap = %d, want 16", l.Cap())
	}
	var slots []uint64
	for i := 0; i < 10; i++ {
		a := Attr{Stream: 0, ReqID: uint32(i), SeqStart: uint64(i + 1), SeqEnd: uint64(i + 1), ServerIdx: uint64(i + 1)}
		s, ok := l.Append(a)
		if !ok {
			t.Fatalf("append %d failed", i)
		}
		slots = append(slots, s)
	}
	got := ScanRegion(region)
	if len(got) != 10 {
		t.Fatalf("scan found %d entries, want 10", len(got))
	}
	for _, e := range got {
		if e.Persist {
			t.Fatal("fresh entries must have persist=0")
		}
	}
	l.MarkPersist(slots[3])
	got = ScanRegion(region)
	persisted := 0
	for _, e := range got {
		if e.Persist {
			persisted++
			if e.ReqID != 3 {
				t.Fatalf("wrong entry persisted: %+v", e)
			}
		}
	}
	if persisted != 1 {
		t.Fatalf("persisted = %d, want 1", persisted)
	}
}

func TestLogBackpressureAndRecycle(t *testing.T) {
	region := make([]byte, 4*EntrySize)
	l := NewLog(region)
	var slots []uint64
	for i := 0; i < 4; i++ {
		s, ok := l.Append(Attr{ReqID: uint32(i), SeqStart: uint64(i + 1), SeqEnd: uint64(i + 1)})
		if !ok {
			t.Fatalf("append %d failed", i)
		}
		slots = append(slots, s)
	}
	if _, ok := l.Append(Attr{}); ok {
		t.Fatal("append to full log must fail (backpressure)")
	}
	// Retiring out of order: head only advances over a contiguous prefix.
	l.Retire(slots[1])
	if l.Free() != 0 {
		t.Fatalf("free = %d after out-of-order retire, want 0", l.Free())
	}
	l.Retire(slots[0])
	if l.Free() != 2 {
		t.Fatalf("free = %d, want 2 (slots 0 and 1 recycled)", l.Free())
	}
	// New appends reuse recycled slots.
	if _, ok := l.Append(Attr{ReqID: 9, SeqStart: 9, SeqEnd: 9}); !ok {
		t.Fatal("append after recycle failed")
	}
	l.Retire(slots[0]) // double retire is a no-op
}

func TestFormatClearsRegion(t *testing.T) {
	region := make([]byte, 8*EntrySize)
	l := NewLog(region)
	for i := 0; i < 8; i++ {
		l.Append(Attr{ReqID: uint32(i), SeqStart: uint64(i + 1), SeqEnd: uint64(i + 1)})
	}
	Format(region)
	if got := ScanRegion(region); len(got) != 0 {
		t.Fatalf("scan after Format found %d entries", len(got))
	}
}

func TestScanSkipsStaleButKeepsValid(t *testing.T) {
	region := make([]byte, 4*EntrySize)
	l := NewLog(region)
	// Fill, retire everything, refill half: scan sees the new 2 entries
	// plus 2 stale ones (persist=1 from before retirement is modelled by
	// marking them persisted first).
	var slots []uint64
	for i := 0; i < 4; i++ {
		s, _ := l.Append(Attr{ReqID: uint32(i), SeqStart: uint64(i + 1), SeqEnd: uint64(i + 1)})
		l.MarkPersist(s)
		slots = append(slots, s)
	}
	for _, s := range slots {
		l.Retire(s)
	}
	for i := 4; i < 6; i++ {
		if _, ok := l.Append(Attr{ReqID: uint32(i), SeqStart: uint64(i + 1), SeqEnd: uint64(i + 1)}); !ok {
			t.Fatalf("append %d failed after full recycle", i)
		}
	}
	entries := ScanRegion(region)
	if len(entries) != 4 {
		t.Fatalf("scan = %d entries, want 4 (2 live + 2 stale)", len(entries))
	}
	stalePersisted := 0
	for _, e := range entries {
		if e.ReqID < 4 {
			if !e.Persist {
				t.Fatalf("stale entry %d must carry persist=1", e.ReqID)
			}
			stalePersisted++
		}
	}
	if stalePersisted != 2 {
		t.Fatalf("stale persisted = %d, want 2", stalePersisted)
	}
}

// mapLog is Log with its live slots in a map, and MarkPersist a decode and
// a re-encode: the reference semantics the slot ring must keep.
type mapLog struct {
	region     []byte
	cap        int
	head, tail uint64
	live       map[uint64]bool // absolute slot -> retired?
}

func (m *mapLog) bytes(slot uint64) []byte {
	off := int(slot%uint64(m.cap)) * EntrySize
	return m.region[off : off+EntrySize]
}

func (m *mapLog) free() int { return m.cap - int(m.tail-m.head) }

func (m *mapLog) append(a Attr) (uint64, bool) {
	if m.free() == 0 {
		return 0, false
	}
	slot := m.tail
	m.tail++
	m.live[slot] = false
	encodeEntry(m.bytes(slot), Entry{Attr: a})
	return slot, true
}

func (m *mapLog) markPersist(slot uint64) {
	e, ok := decodeEntry(m.bytes(slot))
	if !ok {
		panic("mapLog: persist of an invalid slot")
	}
	e.Persist = true
	encodeEntry(m.bytes(slot), e)
}

func (m *mapLog) retire(slot uint64) {
	if _, tracked := m.live[slot]; !tracked {
		return
	}
	m.live[slot] = true
	for m.head < m.tail {
		done, tracked := m.live[m.head]
		if !tracked || !done {
			break
		}
		delete(m.live, m.head)
		m.head++
	}
}

// Random Append / MarkPersist / Retire sequences — out-of-order, double and
// stale retires, retires of slots never appended, wrap-around and a full log
// — leave Log exactly where the map-based model is: Free, head, tail and
// every byte of the region.
func TestLogRetireMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var refused, wrapped, outOfOrder, double, stale, unappended int
	for run := 0; run < 300; run++ {
		c := 1 + rng.Intn(9)
		l := NewLog(make([]byte, c*EntrySize))
		m := &mapLog{region: make([]byte, c*EntrySize), cap: c, live: map[uint64]bool{}}
		for op := 0; op < 300; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				a := Attr{
					Stream: uint16(rng.Intn(4)), ReqID: rng.Uint32(), SeqStart: rng.Uint64(), SeqEnd: rng.Uint64(),
					ServerIdx: rng.Uint64(), LBA: rng.Uint64(), Blocks: rng.Uint32(), Num: uint16(rng.Uint32()),
					Flush: rng.Intn(2) == 0, Boundary: rng.Intn(2) == 0, Split: rng.Intn(3) == 0,
				}
				got, ok := l.Append(a)
				want, wantOK := m.append(a)
				if got != want || ok != wantOK {
					t.Fatalf("run %d op %d: Append = (%d, %v), model (%d, %v)", run, op, got, ok, want, wantOK)
				}
				if !ok {
					refused++
				} else if got >= uint64(c) {
					wrapped++
				}
			case k < 6:
				if m.tail == 0 {
					continue
				}
				// Any slot ever written, retired or not, holds a valid entry.
				lo := max(int64(m.tail)-int64(c), 0)
				slot := uint64(lo + rng.Int63n(int64(m.tail)-lo))
				l.MarkPersist(slot)
				m.markPersist(slot)
			default:
				// Mostly live slots, out of order; else below head, at or
				// past tail, or retired already.
				slot := m.head + uint64(rng.Intn(c+2))
				if rng.Intn(3) == 0 {
					slot = uint64(max(int64(m.head)-int64(1+rng.Intn(c)), 0))
				}
				switch done, tracked := m.live[slot]; {
				case slot < m.head:
					stale++
				case slot >= m.tail:
					unappended++
				case tracked && done:
					double++
				case slot > m.head:
					outOfOrder++
				}
				l.Retire(slot)
				m.retire(slot)
			}
			if l.Free() != m.free() || l.head != m.head || l.tail != m.tail {
				t.Fatalf("run %d op %d: free %d head %d tail %d, model %d %d %d",
					run, op, l.Free(), l.head, l.tail, m.free(), m.head, m.tail)
			}
			if !bytes.Equal(l.region, m.region) {
				t.Fatalf("run %d op %d: region bytes differ from the model's", run, op)
			}
		}
	}
	for name, n := range map[string]int{
		"refused appends": refused, "wrapped appends": wrapped, "out-of-order retires": outOfOrder,
		"double retires": double, "stale retires": stale, "retires past tail": unappended,
	} {
		if n < 100 {
			t.Errorf("only %d %s: the sequences no longer cover that case", n, name)
		}
	}
}

// FuzzEntryPersist checks the PMR entry encoding on an arbitrary attribute:
// decode(encode(e)) is e; MarkPersist leaves the 64 bytes that decoding,
// setting Persist and re-encoding would; and flipping any one byte of the
// encoded entry (by the fuzzed mask) is rejected, never read as another
// valid entry — exactly so, since CRC-32C detects every burst error of up
// to 32 bits, a changed byte always changes the checksum.
func FuzzEntryPersist(f *testing.F) {
	f.Fuzz(func(t *testing.T, init, stream uint16, req uint32, seqStart, seqEnd, serverIdx, lba uint64,
		blocks uint32, num, ns, splitIdx, splitCnt uint16, flags, flip uint8) {
		e := Entry{
			Attr: Attr{
				Initiator: init, Stream: stream, ReqID: req, SeqStart: seqStart, SeqEnd: seqEnd, Num: num,
				ServerIdx: serverIdx, LBA: lba, Blocks: blocks, NS: ns,
				Boundary: flags&1 != 0, Flush: flags&2 != 0, IPU: flags&4 != 0, Split: flags&8 != 0,
				SplitIdx: splitIdx, SplitCnt: splitCnt, EpochMark: flags&16 != 0,
			},
			Persist: flags&32 != 0,
		}
		var enc [EntrySize]byte
		encodeEntry(enc[:], e)
		got, ok := decodeEntry(enc[:])
		if !ok || got != e {
			t.Fatalf("decode(encode(%+v)) = %+v, %v", e, got, ok)
		}

		marked := enc
		NewLog(marked[:]).MarkPersist(0)
		var want [EntrySize]byte
		got.Persist = true
		encodeEntry(want[:], got)
		if marked != want {
			t.Fatalf("MarkPersist wrote\n%x\nwant (decode, Persist, encode)\n%x", marked, want)
		}

		if flip == 0 {
			flip = 0xff
		}
		for i := range enc {
			torn := enc
			torn[i] ^= flip
			if d, ok := decodeEntry(torn[:]); ok {
				t.Fatalf("byte %d ^ %#x decoded as %+v", i, flip, d)
			}
		}
	})
}
