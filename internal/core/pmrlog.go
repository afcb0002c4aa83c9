package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// EntrySize is the fixed on-PMR size of one persistent ordering attribute.
// One MMIO burst persists one entry (the paper reports ~0.6 µs for this).
const EntrySize = 64

const entryMagic = 0x510 // "RIO"

// Entry flag bits.
const (
	flagBoundary = 1 << iota
	flagFlush
	flagIPU
	flagSplit
	flagPersist
	flagEpochMark
)

// Entry is a decoded persistent ordering attribute plus its persist state.
// Server is runtime provenance (which server's PMR it was scanned from),
// filled in during recovery; it is not part of the on-PMR encoding.
type Entry struct {
	Attr
	Persist bool
	Server  int
}

// encodeEntry serializes e into buf (little-endian, checksummed):
//
//	off  0: magic   u16      off  2: stream   u16
//	off  4: reqID   u32      off  8: seqStart u64
//	off 16: seqEnd  u64      off 24: serverIdx u64
//	off 32: lba     u64      off 40: blocks   u32
//	off 44: num     u16      off 46: flags    u16
//	off 48: splitIdx u16     off 50: splitCnt u16
//	off 52: ns      u16      off 54: initiator u16
//	off 56: pad     u32      off 60: checksum u32
func encodeEntry(buf []byte, e Entry) {
	if len(buf) < EntrySize {
		panic("core: short buffer for PMR entry")
	}
	le := binary.LittleEndian
	le.PutUint16(buf[0:], entryMagic)
	le.PutUint16(buf[2:], e.Stream)
	le.PutUint32(buf[4:], e.ReqID)
	le.PutUint64(buf[8:], e.SeqStart)
	le.PutUint64(buf[16:], e.SeqEnd)
	le.PutUint64(buf[24:], e.ServerIdx)
	le.PutUint64(buf[32:], e.LBA)
	le.PutUint32(buf[40:], e.Blocks)
	le.PutUint16(buf[44:], e.Num)
	var flags uint16
	if e.Boundary {
		flags |= flagBoundary
	}
	if e.Flush {
		flags |= flagFlush
	}
	if e.IPU {
		flags |= flagIPU
	}
	if e.Split {
		flags |= flagSplit
	}
	if e.Persist {
		flags |= flagPersist
	}
	if e.EpochMark {
		flags |= flagEpochMark
	}
	le.PutUint16(buf[46:], flags)
	le.PutUint16(buf[48:], e.SplitIdx)
	le.PutUint16(buf[50:], e.SplitCnt)
	le.PutUint16(buf[52:], e.NS)
	le.PutUint16(buf[54:], e.Initiator)
	for i := 56; i < 60; i++ {
		buf[i] = 0
	}
	le.PutUint32(buf[60:], checksum(buf[:60]))
}

// validEntry reports whether buf holds an entry: the magic, and a checksum
// that matches. Empty, torn and foreign content fails.
func validEntry(buf []byte) bool {
	le := binary.LittleEndian
	return le.Uint16(buf[0:]) == entryMagic && le.Uint32(buf[60:]) == checksum(buf[:60])
}

// decodeEntry parses one slot, reporting ok=false for empty, torn or
// foreign content.
func decodeEntry(buf []byte) (Entry, bool) {
	if !validEntry(buf) {
		return Entry{}, false
	}
	le := binary.LittleEndian
	var e Entry
	e.Stream = le.Uint16(buf[2:])
	e.ReqID = le.Uint32(buf[4:])
	e.SeqStart = le.Uint64(buf[8:])
	e.SeqEnd = le.Uint64(buf[16:])
	e.ServerIdx = le.Uint64(buf[24:])
	e.LBA = le.Uint64(buf[32:])
	e.Blocks = le.Uint32(buf[40:])
	e.Num = le.Uint16(buf[44:])
	flags := le.Uint16(buf[46:])
	e.Boundary = flags&flagBoundary != 0
	e.Flush = flags&flagFlush != 0
	e.IPU = flags&flagIPU != 0
	e.Split = flags&flagSplit != 0
	e.Persist = flags&flagPersist != 0
	e.EpochMark = flags&flagEpochMark != 0
	e.SplitIdx = le.Uint16(buf[48:])
	e.SplitCnt = le.Uint16(buf[50:])
	e.NS = le.Uint16(buf[52:])
	e.Initiator = le.Uint16(buf[54:])
	return e, true
}

// castagnoli is the CRC-32C table; the stdlib computes it in hardware on
// amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is CRC-32C: torn-entry detection, not cryptographic. It detects
// every burst error of up to 32 bits, so any one changed byte changes it.
func checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Log manages a PMR region as a circular log of ordering attributes
// (§4.3.2). head and tail are the paper's two in-memory pointers: they are
// NOT persisted — after a crash, Scan rebuilds state from entry contents
// alone.
type Log struct {
	region []byte
	cap    int
	head   uint64 // oldest live slot (absolute counter)
	tail   uint64 // next free slot (absolute counter)
	done   []bool // done[slot%cap]: slot retired; meaningful for head <= slot < tail
}

// NewLog wraps a PMR byte region (its length determines capacity).
func NewLog(region []byte) *Log {
	c := len(region) / EntrySize
	if c == 0 {
		panic("core: PMR region smaller than one entry")
	}
	return &Log{region: region, cap: c, done: make([]bool, c)}
}

// Cap returns the number of entry slots.
func (l *Log) Cap() int { return l.cap }

// Free reports how many slots are available.
func (l *Log) Free() int { return l.cap - int(l.tail-l.head) }

// Append writes e (with Persist=false) into the next slot and returns the
// slot handle. ok=false means the log is full and the caller must retire
// completed entries first (backpressure).
func (l *Log) Append(a Attr) (slot uint64, ok bool) {
	if l.Free() == 0 {
		return 0, false
	}
	slot = l.tail
	l.tail++
	l.done[slot%uint64(l.cap)] = false
	encodeEntry(l.slotBytes(slot), Entry{Attr: a})
	return slot, true
}

// MarkPersist sets the persist flag of the entry in slot (step 7 of
// Fig. 4): the associated data blocks are durable. The flag is set and the
// checksum rewritten in place, which is the encoding of the decoded entry
// with Persist set.
func (l *Log) MarkPersist(slot uint64) {
	buf := l.slotBytes(slot)
	if !validEntry(buf) {
		panic(fmt.Sprintf("core: MarkPersist on invalid slot %d", slot))
	}
	le := binary.LittleEndian
	le.PutUint16(buf[46:], le.Uint16(buf[46:])|flagPersist)
	le.PutUint32(buf[60:], checksum(buf[:60]))
}

// Retire marks the entry complete (its completion has been returned to the
// application) and advances head over any contiguous retired prefix,
// recycling space. A slot outside [head, tail) — already recycled, or never
// appended — is ignored.
func (l *Log) Retire(slot uint64) {
	if slot < l.head || slot >= l.tail {
		return
	}
	l.done[slot%uint64(l.cap)] = true
	for l.head < l.tail && l.done[l.head%uint64(l.cap)] {
		l.head++
	}
}

func (l *Log) slotBytes(slot uint64) []byte {
	off := int(slot%uint64(l.cap)) * EntrySize
	return l.region[off : off+EntrySize]
}

// ScanRegion decodes every valid entry found in a PMR region. It is a
// free function because it runs during recovery, when the in-memory Log
// (head/tail) has been lost. Entries from recycled slots may appear; they
// always carry Persist=true (they were retired only after their data was
// durable and ordered), so they merely extend the valid prefix and never
// corrupt recovery decisions.
func ScanRegion(region []byte) []Entry {
	var out []Entry
	for off := 0; off+EntrySize <= len(region); off += EntrySize {
		if e, ok := decodeEntry(region[off : off+EntrySize]); ok {
			out = append(out, e)
		}
	}
	return out
}

// Format zeroes the region; used after recovery completes so stale entries
// from before the crash cannot leak into the next incarnation's scans.
func Format(region []byte) {
	for i := range region {
		region[i] = 0
	}
}
