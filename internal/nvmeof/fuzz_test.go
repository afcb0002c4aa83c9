package nvmeof

import (
	"encoding/binary"
	"testing"

	"repro/internal/core"
)

// wordsAt reads dword i of an arbitrary byte string (little-endian, zero
// past its end), so one fuzz input fills any number of SQE and CQE words.
func wordsAt(b []byte, i int) uint32 {
	var w [4]byte
	if off := 4 * i; off < len(b) {
		copy(w[:], b[off:])
	}
	return binary.LittleEndian.Uint32(w[:])
}

// FuzzCommandEncoding checks the Table-1 encoding, which no data-path code
// decodes (commands cross the simulated wire by reference):
//   - on arbitrary SQE and CQE words, DecodeAttr, CheckVector and
//     CheckCQEVector never panic, and DecodeAttr refuses exactly the
//     commands that are not Rio submits;
//   - EncodeAttr over arbitrary SQE words, then DecodeAttr, returns any
//     in-range attribute unchanged: 32-bit sequence fields and chain
//     index, 1–65 536 blocks, the namespace from the SQE's NSID;
//   - a batch of n SQEs or CQEs passes its vector check iff its marks are
//     positions 0..n-1 of n. intact marks the batch with EncodeVector /
//     EncodeCQEVector first; tear > 0 then overwrites entry tear-1 (mod n)
//     with a raw word, which may or may not still be its right mark.
//
// Its seeds are in testdata/fuzz/FuzzCommandEncoding.
func FuzzCommandEncoding(f *testing.F) {
	f.Fuzz(func(t *testing.T, words []byte, seqStart, seqEnd, prev uint32, lba uint64, blocks uint32,
		ids uint64, reqID, split uint32, flags, n uint8, intact bool, tear uint8) {
		var sqe SQE
		for i := range sqe {
			sqe[i] = wordsAt(words, i)
		}
		var cqe CQE
		for i := range cqe {
			cqe[i] = wordsAt(words, len(sqe)+i)
		}
		if _, err := DecodeAttr(&sqe); (err == nil) != (sqe.RioOp() == RioOpSubmit) {
			t.Fatalf("DecodeAttr on rio op %d: err = %v", sqe.RioOp(), err)
		}
		_ = CheckVector([]*SQE{&sqe})
		_ = CheckCQEVector([]CQE{cqe})

		a := core.Attr{
			Initiator: uint16(ids), Stream: uint16(ids >> 16), Num: uint16(ids >> 32), NS: uint16(ids >> 48),
			ReqID: reqID, SeqStart: uint64(seqStart), SeqEnd: uint64(seqEnd), ServerIdx: uint64(prev) + 1,
			LBA: lba, Blocks: blocks%(1<<16) + 1,
			Boundary: flags&1 != 0, Flush: flags&2 != 0, IPU: flags&4 != 0, Split: flags&8 != 0,
			SplitIdx: uint16(split), SplitCnt: uint16(split >> 16),
		}
		c := sqe
		c.SetNSID(uint32(a.NS))
		EncodeAttr(&c, a)
		if got, err := DecodeAttr(&c); err != nil || got != a {
			t.Fatalf("EncodeAttr then DecodeAttr:\n got %+v, %v\nwant %+v", got, err, a)
		}

		m := int(n%16) + 1
		sqes, cqes := make([]*SQE, m), make([]CQE, m)
		for i := range sqes {
			sqes[i] = new(SQE)
			sqes[i][15] = wordsAt(words, i)
			cqes[i][3] = wordsAt(words, i)
		}
		if intact {
			EncodeVector(sqes)
			EncodeCQEVector(cqes)
		}
		if tear > 0 {
			k := int(tear-1) % m
			sqes[k][15] = wordsAt(words, m+k)
			cqes[k][3] = wordsAt(words, m+k)
		}
		// The model reads the raw mark dwords: entry i of m is whole iff it
		// holds position i in bits 0-15 and m in bits 16-31.
		whole := func(mark func(i int) uint32) bool {
			for i := 0; i < m; i++ {
				if mark(i) != uint32(i)|uint32(m)<<16 {
					return false
				}
			}
			return true
		}
		if want := whole(func(i int) uint32 { return sqes[i][15] }); (CheckVector(sqes) == nil) != want {
			t.Fatalf("CheckVector on %d SQEs: err = %v, want whole = %v", m, CheckVector(sqes), want)
		}
		if want := whole(func(i int) uint32 { return cqes[i][3] }); (CheckCQEVector(cqes) == nil) != want {
			t.Fatalf("CheckCQEVector on %d CQEs: err = %v, want whole = %v", m, CheckCQEVector(cqes), want)
		}
	})
}
