// Package core implements the Rio protocol from §4 of the paper: ordering
// attributes (Fig. 5), the Rio sequencer with per-stream global order and
// per-server order, in-order submission and in-order completion gates, the
// persistent-ordering-attribute circular log kept in PMR (§4.3.2), the
// merge/split rules of the Rio I/O scheduler (§4.5, Fig. 8), and the crash
// recovery algorithm (§4.4) whose output is checked against the prefix
// invariant proved in §4.8.
//
// Everything in this package is hardware-independent: it operates on plain
// values and byte slices, and is driven by the drivers in internal/stack,
// which charge simulated CPU and device time around these calls.
package core

import "fmt"

// Attr is the ordering attribute: the logical identity of an ordered write
// request (Fig. 5). It is created by the sequencer, carried in reserved
// NVMe-oF command fields across the network (Table 1), persisted to PMR by
// the target driver, and used to reconstruct storage order at any time.
type Attr struct {
	// Initiator is the ordering-domain namespace of a multi-initiator
	// cluster: streams (and their sequence numbers, per-server chains and
	// PMR log entries) are independent per initiator, so two initiator
	// servers sharing a target fleet never coordinate on the data path.
	Initiator uint16

	Stream uint16 // independent ordering domain (§4.5), scoped per initiator
	ReqID  uint32 // request identity within the stream (fragments share it)

	// Global order: the group sequence number(s) this request belongs to.
	// SeqStart == SeqEnd for plain requests; a merged request covers the
	// contiguous range [SeqStart, SeqEnd] (Fig. 8a).
	SeqStart uint64
	SeqEnd   uint64

	// Num is, on a Boundary request, the total number of requests in the
	// group (or in all merged groups). Zero on non-boundary requests.
	Num uint16

	// Per-server order (§4.3.1): ServerIdx is a dense, 1-based submission
	// index per (stream, target server). The paper's `prev` pointer is
	// ServerIdx-1; the target driver submits a request to the SSD only
	// after every smaller ServerIdx of the stream has been submitted.
	ServerIdx uint64

	LBA    uint64
	Blocks uint32
	NS     uint16 // namespace: which SSD of the target server holds the blocks

	Boundary bool // last request of its group
	Flush    bool // carries the durability barrier of its group
	IPU      bool // in-place update: recovery defers to the upper layer
	Split    bool
	SplitIdx uint16 // fragment number, 0-based
	SplitCnt uint16 // total fragments of the original request

	// EpochMark tags a replication membership-change record instead of a
	// write: when a replica set degrades (a member is power-cut) or a
	// resynced member rejoins, the surviving members persist a mark so the
	// degraded window is evidenced in the PMR. Marks are not ordering
	// evidence — recovery analysis skips them. For a mark, Stream holds the
	// replica-set id, SeqStart the new set epoch and LBA the member id.
	EpochMark bool
}

// EpochMarkAttr builds the degraded-set epoch mark persisted by surviving
// replicas on a membership change: set is the replica-set id, epoch the
// set's new membership epoch, and member the target that left or rejoined.
func EpochMarkAttr(initiator uint16, set int, epoch int, member int) Attr {
	return Attr{
		Initiator: initiator,
		Stream:    uint16(set),
		SeqStart:  uint64(epoch),
		SeqEnd:    uint64(epoch),
		LBA:       uint64(member),
		EpochMark: true,
	}
}

// MajorityQuorum returns the write quorum for a replica factor r under
// the majority rule: floor(r/2)+1, so one member of a 3-way set may fail
// without stalling completions.
func MajorityQuorum(r int) int {
	if r <= 1 {
		return 1
	}
	return r/2 + 1
}

// Merged reports whether the attribute covers more than one group.
func (a Attr) Merged() bool { return a.SeqEnd > a.SeqStart }

// Covers reports whether group seq is within this attribute's range.
func (a Attr) Covers(seq uint64) bool { return a.SeqStart <= seq && seq <= a.SeqEnd }

func (a Attr) String() string {
	if a.EpochMark {
		return fmt.Sprintf("epoch-mark set%d epoch%d member%d", a.Stream, a.SeqStart, a.LBA)
	}
	s := fmt.Sprintf("st%d seq%d", a.Stream, a.SeqStart)
	if a.Merged() {
		s = fmt.Sprintf("st%d seq%d-%d", a.Stream, a.SeqStart, a.SeqEnd)
	}
	if a.Initiator != 0 {
		s = fmt.Sprintf("in%d ", a.Initiator) + s
	}
	if a.Split {
		s += fmt.Sprintf(" frag%d/%d", a.SplitIdx, a.SplitCnt)
	}
	return fmt.Sprintf("%s idx%d lba%d+%d", s, a.ServerIdx, a.LBA, a.Blocks)
}

// CanMerge implements the three requirements of §4.5 for request merging:
// same stream, continuous sequence numbers, and contiguous non-overlapping
// LBAs. Additionally (Principle 3 made checkable): only complete groups
// merge — a's range must end at a group boundary and b must start a new
// group — and split requests never merge.
func CanMerge(a, b Attr) bool {
	switch {
	case a.EpochMark || b.EpochMark:
		return false // membership marks are not requests
	case a.Initiator != b.Initiator:
		return false // ordering domains never merge across initiators
	case a.Stream != b.Stream:
		return false
	case a.Split || b.Split:
		return false // "A merged request can not be split, and vice versa."
	case !a.Boundary || a.Num == 0 || !b.Boundary || b.Num == 0:
		// Both sides must cover complete groups, so the merged attribute's
		// [SeqStart, SeqEnd] range accounts for every request in it — the
		// property recovery's atomicity argument (§4.8) relies on.
		return false
	case b.SeqStart != a.SeqEnd+1:
		return false // sequence numbers must be continuous
	case a.LBA+uint64(a.Blocks) != b.LBA:
		return false // LBAs must be consecutive and non-overlapping
	}
	return true
}

// Merge combines two mergeable attributes into one (Fig. 8a). The result
// is atomic across the merged range: one PMR entry, one persist bit.
func Merge(a, b Attr) Attr {
	if !CanMerge(a, b) {
		panic("core: Merge called on unmergeable attributes " + a.String() + " + " + b.String())
	}
	m := a
	m.SeqEnd = b.SeqEnd
	m.Num = a.Num + b.Num
	m.Blocks = a.Blocks + b.Blocks
	m.Boundary = true
	m.Flush = a.Flush || b.Flush
	// ServerIdx: the merged request takes the *later* slot in the
	// per-server chain; the earlier slot is retired by the sequencer.
	if b.ServerIdx > m.ServerIdx {
		m.ServerIdx = b.ServerIdx
	}
	return m
}

// A media identity packs (initiator, stream, group sequence, request id)
// into 64 bits, top bit down. Packed, not hashed: it decodes, and orders as
// the writes do, which is what lets a recovered entry — possibly merged over
// several groups — say whether it wrote a block it finds (Owns). The sequence
// field is as wide as the SQE's and the request field as wide as Attr.Num, so
// neither narrows what a stream can submit; stack.New rejects a deployment
// beyond StampInitiators x StampStreams.
const (
	stampReqBits, stampSeqBits, stampStreamBits, stampInitBits = 16, 32, 10, 6

	StampInitiators = 1 << stampInitBits
	StampStreams    = 1 << stampStreamBits
)

// stampGroup packs the (initiator, stream, group) part of an identity.
func stampGroup(initiator, stream uint16, seq uint64) uint64 {
	return (uint64(initiator)<<stampStreamBits|uint64(stream))<<stampSeqBits | seq&(1<<stampSeqBits-1)
}

// AttrStamp is the media identity of the ordered write request a
// sequencer-minted attribute belongs to: every block the request writes
// carries it, on every replica member and across a replay, so it leaves out
// ServerIdx, LBA, NS and the flags, and it is taken from the request's own
// never-merged attribute (the stack applies it once, when it builds the
// request's wire commands). The request id stays in: two requests of one
// group that overwrite one block are two versions. Sequence numbers start
// at 1, so an identity is never 0 — which readers take for "never written".
func AttrStamp(a Attr) uint64 {
	return stampGroup(a.Initiator, a.Stream, a.SeqStart)<<stampReqBits | uint64(uint16(a.ReqID))
}

// Owns reports whether the write this attribute describes put stamp on
// media: same initiator and stream, a group the attribute covers and — for
// an attribute that is one request (or a fragment of one) — that request.
// A merged attribute owns every request of the groups it spans. Recovery
// asks this of the blocks a scanned entry addresses instead of recomputing
// what the blocks should hold.
func (a Attr) Owns(stamp uint64) bool {
	switch {
	case a.EpochMark:
		return false // a membership mark wrote nothing
	case !a.Merged():
		return stamp == AttrStamp(a)
	}
	g := stamp >> stampReqBits
	return stampGroup(a.Initiator, a.Stream, a.SeqStart) <= g && g <= stampGroup(a.Initiator, a.Stream, a.SeqEnd)
}

// SplitAttr divides a request's attribute into cnt fragments with the given
// per-fragment block counts (Fig. 8b). Fragments share ReqID and seq and
// are merged back during recovery.
func SplitAttr(a Attr, blocks []uint32) []Attr {
	return SplitAttrInto(nil, a, blocks)
}

// SplitAttrInto is SplitAttr appending into dst[:0], so dispatch-path
// callers can reuse one scratch slice across requests.
func SplitAttrInto(dst []Attr, a Attr, blocks []uint32) []Attr {
	if a.Merged() {
		panic("core: cannot split a merged request")
	}
	if len(blocks) < 2 {
		panic("core: split needs at least two fragments")
	}
	var total uint32
	for _, b := range blocks {
		total += b
	}
	if total != a.Blocks {
		panic("core: split block counts do not sum to request size")
	}
	out := dst[:0]
	lba := a.LBA
	for i, b := range blocks {
		f := a
		f.LBA = lba
		f.Blocks = b
		f.Split = true
		f.SplitIdx = uint16(i)
		f.SplitCnt = uint16(len(blocks))
		out = append(out, f)
		lba += uint64(b)
	}
	return out
}
