package core

import "testing"

// The requests of three consecutive single-write groups of stream 2 and of
// their neighbours, as a sequencer mints them: ReqID is the stream-wide
// counter, LBAs contiguous so the middle three merge.
func ownsFixture() (before, a, b, c, after Attr) {
	mk := func(seq uint64) Attr {
		at := mkAttr(2, seq, 100+seq, 1)
		at.Initiator, at.ReqID = 1, uint32(40+seq)
		return at
	}
	return mk(4), mk(5), mk(6), mk(7), mk(8)
}

func TestOwns(t *testing.T) {
	before, a, b, c, after := ownsFixture()
	merged := Merge(Merge(a, b), c)
	twin := b // a second request of b's group overwriting the same block
	twin.ReqID++
	frags := SplitAttr(Attr{Initiator: 1, Stream: 2, ReqID: 46, SeqStart: 6, SeqEnd: 6, LBA: 0, Blocks: 8}, []uint32{3, 5})
	otherStream, otherInit := b, b
	otherStream.Stream++
	otherInit.Initiator++
	replayed := b // the same request on another member, replayed, at its device address
	replayed.ServerIdx, replayed.LBA, replayed.NS = 99, 7777, 1
	mark := EpochMarkAttr(1, 2, 6, 0) // a mark's fields overlay b's domain and sequence

	for _, tc := range []struct {
		name  string
		entry Attr
		of    Attr // the request whose identity a block carries
		want  bool
	}{
		{"unmerged entry owns its own request", b, b, true},
		{"unmerged entry owns it on every member and across replay", b, replayed, true},
		{"unmerged entry does not own another request of its group", b, twin, false},
		{"unmerged entry does not own the group before", b, a, false},
		{"unmerged entry does not own the group after", b, c, false},
		{"merged entry owns its first constituent", merged, a, true},
		{"merged entry owns its middle constituent", merged, b, true},
		{"merged entry owns its last constituent", merged, c, true},
		{"merged entry owns every request of a group it spans", merged, twin, true},
		{"merged entry owns nothing of the group before", merged, before, false},
		{"merged entry owns nothing of the group after", merged, after, false},
		{"first fragment owns its request", frags[0], b, true},
		{"second fragment owns its request", frags[1], b, true},
		{"fragment does not own another request of the group", frags[1], twin, false},
		{"no entry owns another stream's stamp", b, otherStream, false},
		{"no merged entry owns another stream's stamp", merged, otherStream, false},
		{"no entry owns another initiator's stamp", b, otherInit, false},
		{"no merged entry owns another initiator's stamp", merged, otherInit, false},
		{"an epoch mark owns nothing", mark, b, false},
	} {
		if got := tc.entry.Owns(AttrStamp(tc.of)); got != tc.want {
			t.Errorf("%s: (%v).Owns(stamp of %v) = %v, want %v", tc.name, tc.entry, tc.of, got, tc.want)
		}
	}
	if merged.Owns(0) || b.Owns(0) {
		t.Error("an entry owns the zero stamp of a never-written block")
	}
}

// FuzzAttrOwns checks Owns against its definition on two arbitrary
// attributes within the packed field widths: a owns the identity of b's
// request iff they share the ordering domain, a covers b's group and — when a
// is one request — it is that request (by the low half of the stream-wide
// ReqID, which is what tells the requests of one group apart). Everything
// the identity leaves out (ServerIdx, LBA, NS, flags) is fuzzed along and
// must not matter, and an epoch mark owns nothing.
func FuzzAttrOwns(f *testing.F) {
	f.Add(uint16(0), uint16(0), uint32(0), uint32(1), uint32(0), uint16(0), uint16(0), uint32(0), uint32(1), uint64(0), false)
	f.Add(uint16(1), uint16(2), uint32(45), uint32(5), uint32(2), uint16(1), uint16(2), uint32(47), uint32(7), uint64(9), false)
	f.Add(uint16(1), uint16(2), uint32(45), uint32(5), uint32(2), uint16(1), uint16(2), uint32(48), uint32(8), uint64(1<<40), false)
	f.Add(uint16(1), uint16(2), uint32(45), uint32(5), uint32(2), uint16(1), uint16(2), uint32(44), uint32(4), uint64(5), false)
	f.Add(uint16(63), uint16(1023), uint32(1<<32-1), uint32(1<<32-1), uint32(0), uint16(63), uint16(1023), uint32(1<<16-1), uint32(1<<32-1), uint64(3), false)
	f.Add(uint16(3), uint16(7), uint32(9), uint32(6), uint32(0), uint16(3), uint16(7), uint32(9), uint32(6), uint64(0), true)
	f.Fuzz(func(t *testing.T, aInit, aStream uint16, aReq, aSeq, aSpan uint32, bInit, bStream uint16, bReq, bSeq uint32, noise uint64, mark bool) {
		if uint64(aSeq)+uint64(aSpan) > 1<<32-1 {
			aSpan = 0
		}
		a := Attr{
			Initiator: aInit % StampInitiators, Stream: aStream % StampStreams, ReqID: aReq,
			SeqStart: uint64(aSeq), SeqEnd: uint64(aSeq) + uint64(aSpan),
			ServerIdx: noise, LBA: noise >> 3, NS: uint16(noise >> 7), Flush: noise&1 != 0, EpochMark: mark,
		}
		b := Attr{
			Initiator: bInit % StampInitiators, Stream: bStream % StampStreams, ReqID: bReq,
			SeqStart: uint64(bSeq), SeqEnd: uint64(bSeq),
			ServerIdx: ^noise, LBA: noise >> 5, NS: uint16(noise >> 9), Boundary: noise&2 != 0,
		}
		want := !mark && a.Initiator == b.Initiator && a.Stream == b.Stream && a.Covers(b.SeqStart) &&
			(a.Merged() || uint16(a.ReqID) == uint16(b.ReqID))
		if got := a.Owns(AttrStamp(b)); got != want {
			t.Fatalf("(%v req %d).Owns(stamp of %v req %d) = %v, want %v", a, a.ReqID, b, b.ReqID, got, want)
		}
	})
}
