package core

import (
	"strings"
	"testing"
)

func mkAttr(stream uint16, seq uint64, lba uint64, blocks uint32) Attr {
	return Attr{
		Stream: stream, SeqStart: seq, SeqEnd: seq,
		LBA: lba, Blocks: blocks, Boundary: true, Num: 1,
	}
}

func TestCanMergePaperRequirements(t *testing.T) {
	base := mkAttr(0, 1, 10, 2)
	next := mkAttr(0, 2, 12, 1)
	if !CanMerge(base, next) {
		t.Fatal("contiguous seq + contiguous LBA in one stream should merge")
	}
	// Requirement 1: merging is performed within a sole stream.
	other := next
	other.Stream = 1
	if CanMerge(base, other) {
		t.Error("cross-stream merge must be rejected")
	}
	// Requirement 2: sequence numbers must be continuous.
	gap := next
	gap.SeqStart, gap.SeqEnd = 3, 3
	if CanMerge(base, gap) {
		t.Error("non-continuous seq merge must be rejected")
	}
	// Requirement 3: LBAs must be consecutive and non-overlapping.
	hole := next
	hole.LBA = 13
	if CanMerge(base, hole) {
		t.Error("non-contiguous LBA merge must be rejected")
	}
	overlap := next
	overlap.LBA = 11
	if CanMerge(base, overlap) {
		t.Error("overlapping LBA merge must be rejected")
	}
}

func TestMergedRequestCannotSplitAndViceVersa(t *testing.T) {
	a := mkAttr(0, 1, 0, 2)
	b := mkAttr(0, 2, 2, 2)
	m := Merge(a, b)
	defer func() {
		if recover() == nil {
			t.Fatal("splitting a merged request must panic")
		}
	}()
	SplitAttr(m, []uint32{2, 2})
}

func TestSplitCannotMerge(t *testing.T) {
	a := mkAttr(0, 1, 0, 4)
	frags := SplitAttr(a, []uint32{2, 2})
	b := mkAttr(0, 2, 4, 1)
	if CanMerge(frags[1], b) {
		t.Fatal("split fragment must not merge")
	}
}

func TestMergeCompactsAttributes(t *testing.T) {
	// Fig. 8(a): W1_1+W1_2 (group 1, num 2) and W2 (group 2, num 1) merge
	// into W1-2 with seq range 1-2 and num 3. Here group 1's two requests
	// are already one LBA-contiguous boundary request of num=2.
	w1 := Attr{Stream: 0, SeqStart: 1, SeqEnd: 1, Num: 2, LBA: 1, Blocks: 5, Boundary: true}
	w2 := Attr{Stream: 0, SeqStart: 2, SeqEnd: 2, Num: 1, LBA: 6, Blocks: 1, Boundary: true}
	m := Merge(w1, w2)
	if m.SeqStart != 1 || m.SeqEnd != 2 {
		t.Fatalf("merged range = %d-%d, want 1-2", m.SeqStart, m.SeqEnd)
	}
	if m.Num != 3 {
		t.Fatalf("merged num = %d, want 3", m.Num)
	}
	if m.LBA != 1 || m.Blocks != 6 {
		t.Fatalf("merged extent = lba%d+%d, want lba1+6", m.LBA, m.Blocks)
	}
	if !m.Merged() || !m.Covers(1) || !m.Covers(2) || m.Covers(3) {
		t.Fatal("merged coverage wrong")
	}
}

func TestMergePreservesFlush(t *testing.T) {
	a := mkAttr(0, 1, 0, 1)
	b := mkAttr(0, 2, 1, 1)
	b.Flush = true
	if m := Merge(a, b); !m.Flush {
		t.Fatal("merge must preserve the durability barrier")
	}
}

func TestMergeUnmergeablePanics(t *testing.T) {
	a := mkAttr(0, 1, 0, 1)
	b := mkAttr(1, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Merge of unmergeable attrs must panic")
		}
	}()
	Merge(a, b)
}

func TestSplitAttrGeometry(t *testing.T) {
	// Fig. 8(b): W2 (lba 2-65) split into two fragments.
	a := mkAttr(0, 2, 2, 64)
	a.ReqID = 42
	frags := SplitAttr(a, []uint32{32, 32})
	if len(frags) != 2 {
		t.Fatalf("fragments = %d, want 2", len(frags))
	}
	if frags[0].LBA != 2 || frags[0].Blocks != 32 {
		t.Fatalf("frag0 = %+v", frags[0])
	}
	if frags[1].LBA != 34 || frags[1].Blocks != 32 {
		t.Fatalf("frag1 = %+v", frags[1])
	}
	for i, f := range frags {
		if !f.Split || int(f.SplitIdx) != i || f.SplitCnt != 2 {
			t.Fatalf("frag%d split metadata = %+v", i, f)
		}
		if f.ReqID != 42 || f.SeqStart != 2 || f.SeqEnd != 2 {
			t.Fatalf("frag%d identity = %+v", i, f)
		}
	}
}

func TestSplitAttrValidation(t *testing.T) {
	a := mkAttr(0, 1, 0, 4)
	for _, bad := range [][]uint32{{4}, {1, 1}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SplitAttr(%v) should panic", bad)
				}
			}()
			SplitAttr(a, bad)
		}()
	}
}

func TestAttrString(t *testing.T) {
	a := mkAttr(3, 7, 100, 2)
	if s := a.String(); !strings.Contains(s, "st3") || !strings.Contains(s, "seq7") {
		t.Fatalf("String() = %q", s)
	}
	m := Merge(mkAttr(0, 1, 0, 1), mkAttr(0, 2, 1, 1))
	if s := m.String(); !strings.Contains(s, "seq1-2") {
		t.Fatalf("merged String() = %q", s)
	}
	f := SplitAttr(mkAttr(0, 3, 0, 4), []uint32{2, 2})[1]
	if s := f.String(); !strings.Contains(s, "frag1/2") {
		t.Fatalf("split String() = %q", s)
	}
}

func TestMajority(t *testing.T) {
	for r, want := range map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3} {
		if got := MajorityQuorum(r); got != want {
			t.Fatalf("MajorityQuorum(%d) = %d, want %d", r, got, want)
		}
	}
}
