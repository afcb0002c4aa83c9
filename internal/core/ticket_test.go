package core

import "testing"

// TestSubmitIntoReusesStorage: a delivered ticket's storage may carry a
// later submission, and the old submission's deliver callback is not
// re-fired by the new lifetime.
func TestSubmitIntoReusesStorage(t *testing.T) {
	st := newStreamSeq(0, 0)
	var slot Ticket
	firstDelivers, secondDelivers := 0, 0

	tk := st.SubmitInto(&slot, 100, 1, true, false, false, func() { firstDelivers++ })
	if tk != &slot {
		t.Fatal("SubmitInto did not use the provided storage")
	}
	first := tk.Attr
	st.Completed(first.ReqID)
	if firstDelivers != 1 {
		t.Fatalf("first lifetime delivered %d times, want 1", firstDelivers)
	}

	// Reuse the same storage for a new submission.
	tk2 := st.SubmitInto(&slot, 200, 1, true, false, false, func() { secondDelivers++ })
	if tk2.Attr.ReqID == first.ReqID {
		t.Fatal("recycled ticket kept the old request identity")
	}
	st.Completed(tk2.Attr.ReqID)
	if firstDelivers != 1 || secondDelivers != 1 {
		t.Fatalf("deliver counts = %d/%d, want 1/1 (reuse must not resurrect the old delivery)",
			firstDelivers, secondDelivers)
	}
}

// TestSubmitIntoRejectsLiveTicket: reusing storage whose lifetime has not
// ended in delivery would corrupt the inflight set, so it must panic.
func TestSubmitIntoRejectsLiveTicket(t *testing.T) {
	st := newStreamSeq(0, 0)
	var slot Ticket
	st.SubmitInto(&slot, 0, 1, true, false, false, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("SubmitInto on a live ticket did not panic")
		}
	}()
	st.SubmitInto(&slot, 8, 1, true, false, false, nil)
}

// TestGroupTrackRecycling: retired group trackers are recycled without
// corrupting in-order delivery across many groups.
func TestGroupTrackRecycling(t *testing.T) {
	st := newStreamSeq(0, 0)
	var order []uint32
	const groups = 64
	var tickets []*Ticket
	for g := 0; g < groups; g++ {
		tk := st.Submit(uint64(g), 1, true, false, false, nil)
		tickets = append(tickets, tk)
	}
	// Complete in reverse: deliveries must still come out in group order.
	for i := groups - 1; i >= 0; i-- {
		for _, d := range st.Completed(tickets[i].Attr.ReqID) {
			order = append(order, d.Attr.ReqID)
		}
	}
	if len(order) != groups {
		t.Fatalf("delivered %d, want %d", len(order), groups)
	}
	for i, id := range order {
		if id != uint32(i) {
			t.Fatalf("delivery %d has ReqID %d: group order broken", i, id)
		}
	}
	if st.FullyDone() != uint64(groups) {
		t.Fatalf("fullyDone = %d, want %d", st.FullyDone(), groups)
	}
	if len(st.groupFree) == 0 {
		t.Fatal("no group trackers were recycled")
	}
}

// TestSplitAttrInto reuses a scratch slice across calls.
func TestSplitAttrInto(t *testing.T) {
	a := Attr{Stream: 1, ReqID: 9, SeqStart: 3, SeqEnd: 3, LBA: 100, Blocks: 6}
	scratch := make([]Attr, 0, 8)
	out := SplitAttrInto(scratch, a, []uint32{2, 4})
	if len(out) != 2 || out[0].Blocks != 2 || out[1].Blocks != 4 {
		t.Fatalf("split = %+v", out)
	}
	if out[1].LBA != 102 || !out[1].Split || out[1].SplitIdx != 1 || out[1].SplitCnt != 2 {
		t.Fatalf("fragment geometry wrong: %+v", out[1])
	}
	// Second use of the same scratch.
	out2 := SplitAttrInto(out, a, []uint32{3, 3})
	if len(out2) != 2 || out2[0].Blocks != 3 {
		t.Fatalf("scratch reuse broken: %+v", out2)
	}
}

// TestSequencerWideDeliver: a ticket submitted without a callback of its
// own is delivered through the sequencer's func, which finds the
// submitter's record in Owner; a per-request callback takes precedence;
// and Completed reports both in the slice it reuses from call to call.
func TestSequencerWideDeliver(t *testing.T) {
	type owner struct{ delivered int }
	st := NewSequencerFor(0, 1, func(tk *Ticket) { tk.Owner.(*owner).delivered++ }).Stream(0)

	var a, b Ticket
	oa := &owner{}
	a.Owner = oa
	ownCalls := 0
	st.SubmitInto(&a, 0, 1, true, false, false, nil)
	st.SubmitInto(&b, 1, 1, true, false, false, func() { ownCalls++ })

	// b completes first: buffered behind a's group.
	if got := st.Completed(b.Attr.ReqID); len(got) != 0 || ownCalls != 0 {
		t.Fatalf("out-of-order completion delivered %d tickets (%d callbacks)", len(got), ownCalls)
	}
	got := st.Completed(a.Attr.ReqID)
	if len(got) != 2 || got[0] != &a || got[1] != &b {
		t.Fatalf("in-order completion delivered %v, want [a b]", got)
	}
	if oa.delivered != 1 || ownCalls != 1 {
		t.Fatalf("sequencer-wide func ran %d times, per-request callback %d times, want 1 and 1", oa.delivered, ownCalls)
	}
	// The next Completed reuses the result slice.
	st.SubmitInto(&a, 2, 1, true, false, false, nil)
	if next := st.Completed(a.Attr.ReqID); len(next) != 1 || &next[0] != &got[0] {
		t.Fatalf("Completed did not reuse its result storage")
	}
}
