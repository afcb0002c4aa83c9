package core

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSubmitAssignsGroupsAndSeqs(t *testing.T) {
	s := NewSequencer(2)
	st := s.Stream(0)
	// Group 1: two requests (journal description + metadata), then commit
	// as its own group — the paper's motivating journaling pattern.
	t1 := st.Submit(0, 2, false, false, false, nil)
	t2 := st.Submit(2, 1, true, false, false, nil)
	t3 := st.Submit(3, 1, true, true, false, nil)
	if t1.Attr.SeqStart != 1 || t2.Attr.SeqStart != 1 {
		t.Fatalf("group 1 seqs = %d,%d, want 1,1", t1.Attr.SeqStart, t2.Attr.SeqStart)
	}
	if t1.Attr.Num != 0 || t2.Attr.Num != 2 {
		t.Fatalf("num fields = %d,%d, want 0,2", t1.Attr.Num, t2.Attr.Num)
	}
	if !t2.Attr.Boundary || t1.Attr.Boundary {
		t.Fatal("boundary flags wrong")
	}
	if t3.Attr.SeqStart != 2 || t3.Attr.Num != 1 || !t3.Attr.Flush {
		t.Fatalf("commit attr = %+v", t3.Attr)
	}
	// Streams are independent ordering domains.
	u1 := s.Stream(1).Submit(100, 1, true, false, false, nil)
	if u1.Attr.SeqStart != 1 || u1.Attr.Stream != 1 {
		t.Fatalf("stream 1 attr = %+v", u1.Attr)
	}
}

func TestNextServerIdxDensePerServer(t *testing.T) {
	st := NewSequencer(1).Stream(0)
	if i := st.NextServerIdx(0); i != 1 {
		t.Fatalf("first idx = %d, want 1", i)
	}
	if i := st.NextServerIdx(1); i != 1 {
		t.Fatalf("other server first idx = %d, want 1", i)
	}
	if i := st.NextServerIdx(0); i != 2 {
		t.Fatalf("second idx = %d, want 2", i)
	}
}

func TestInOrderCompletionSimple(t *testing.T) {
	st := NewSequencer(1).Stream(0)
	var delivered []int
	mk := func(id int) *Ticket {
		return st.Submit(uint64(id), 1, true, false, false, func() {
			delivered = append(delivered, id)
		})
	}
	t1, t2, t3 := mk(1), mk(2), mk(3)
	// Hardware completes out of order: 3, 1, 2.
	st.Completed(t3.Attr.ReqID)
	if len(delivered) != 0 {
		t.Fatal("group 3 delivered before groups 1-2")
	}
	st.Completed(t1.Attr.ReqID)
	if len(delivered) != 1 || delivered[0] != 1 {
		t.Fatalf("delivered = %v, want [1]", delivered)
	}
	st.Completed(t2.Attr.ReqID)
	if len(delivered) != 3 || delivered[1] != 2 || delivered[2] != 3 {
		t.Fatalf("delivered = %v, want [1 2 3]", delivered)
	}
	if st.FullyDone() != 3 {
		t.Fatalf("FullyDone = %d, want 3", st.FullyDone())
	}
}

func TestGroupCompletionWaitsForAllMembers(t *testing.T) {
	st := NewSequencer(1).Stream(0)
	var delivered []string
	a := st.Submit(0, 2, false, false, false, func() { delivered = append(delivered, "a") })
	b := st.Submit(2, 1, true, false, false, func() { delivered = append(delivered, "b") })
	c := st.Submit(3, 1, true, false, false, func() { delivered = append(delivered, "c") })
	// Group 2 (c) completes first: buffered.
	st.Completed(c.Attr.ReqID)
	if len(delivered) != 0 {
		t.Fatal("c delivered before group 1")
	}
	// Group 1 partially complete: 'a' delivers (its turn), but frontier
	// holds until 'b' also completes.
	st.Completed(a.Attr.ReqID)
	if len(delivered) != 1 || delivered[0] != "a" {
		t.Fatalf("delivered = %v, want [a]", delivered)
	}
	st.Completed(b.Attr.ReqID)
	if len(delivered) != 3 || delivered[1] != "b" || delivered[2] != "c" {
		t.Fatalf("delivered = %v, want [a b c]", delivered)
	}
}

func TestDuplicateCompletionIgnored(t *testing.T) {
	st := NewSequencer(1).Stream(0)
	n := 0
	tk := st.Submit(0, 1, true, false, false, func() { n++ })
	st.Completed(tk.Attr.ReqID)
	st.Completed(tk.Attr.ReqID) // replay after target crash: idempotent
	if n != 1 {
		t.Fatalf("deliver ran %d times, want 1", n)
	}
}

// ReqID is 32 bits on the wire and in the PMR entry; the inflight table is
// keyed by the 64-bit request number it was cut from. A stream that crosses
// the wrap with requests in flight on both sides still delivers each in
// group order exactly once, ignores duplicate completions, and keeps its
// table as small as its live span.
func TestSequencerCrossesReqIDWrap(t *testing.T) {
	st := NewSequencer(1).Stream(0)
	st.nextReq = 1<<32 - 5
	var tks []*Ticket
	for i := 0; i < 12; i++ {
		tks = append(tks, st.Submit(uint64(i), 1, i%3 == 2, false, false, nil))
	}
	if tks[0].Attr.ReqID != 1<<32-5 || tks[5].Attr.ReqID != 0 || tks[11].Attr.ReqID != 6 {
		t.Fatalf("ReqIDs %d, %d, %d: the stream did not cross the wrap", tks[0].Attr.ReqID, tks[5].Attr.ReqID, tks[11].Attr.ReqID)
	}
	var got []*Ticket
	for _, i := range []int{11, 4, 5, 0, 3, 9, 1, 2, 10, 6, 8, 7} {
		got = append(got, st.Completed(tks[i].Attr.ReqID)...)
		if len(st.Completed(tks[i].Attr.ReqID)) != 0 {
			t.Fatalf("duplicate completion of request %d delivered", i)
		}
	}
	if len(got) != len(tks) || st.FullyDone() != 4 || st.inflight.Len() != 0 {
		t.Fatalf("delivered %d of %d, fully done %d, %d in flight", len(got), len(tks), st.FullyDone(), st.inflight.Len())
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Attr.SeqStart > got[i].Attr.SeqStart {
			t.Fatalf("delivery %d is group %d after group %d", i, got[i].Attr.SeqStart, got[i-1].Attr.SeqStart)
		}
	}
	if len(st.inflight.slots) > 16 {
		t.Fatalf("inflight table has %d slots for 12 live requests", len(st.inflight.slots))
	}
}

// Property: under any completion order, deliveries happen in
// non-decreasing group order, every request is delivered exactly once, and
// a group's deliveries never begin before all prior groups fully complete.
func TestInOrderCompletionProperty(t *testing.T) {
	f := func(groupSizes []uint8, seed int64) bool {
		if len(groupSizes) == 0 {
			return true
		}
		if len(groupSizes) > 12 {
			groupSizes = groupSizes[:12]
		}
		st := NewSequencer(1).Stream(0)
		type req struct {
			id  uint32
			seq uint64
		}
		var all []req
		var deliveredSeqs []uint64
		for _, szRaw := range groupSizes {
			sz := int(szRaw%4) + 1
			for j := 0; j < sz; j++ {
				boundary := j == sz-1
				tk := st.Submit(uint64(len(all)), 1, boundary, false, false, nil)
				all = append(all, req{tk.Attr.ReqID, tk.Attr.SeqStart})
			}
		}
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(all))
		delivered := 0
		for _, i := range perm {
			for _, tk := range st.Completed(all[i].id) {
				deliveredSeqs = append(deliveredSeqs, tk.Attr.SeqStart)
				delivered++
			}
		}
		if delivered != len(all) {
			return false
		}
		for i := 1; i < len(deliveredSeqs); i++ {
			if deliveredSeqs[i] < deliveredSeqs[i-1] {
				return false
			}
		}
		return st.FullyDone() == uint64(len(groupSizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
