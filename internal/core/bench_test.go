package core

import "testing"

// BenchmarkSeqSubmitComplete is one request through the sequencer
// (`make bench-layers`): attribute minted into caller-owned ticket storage,
// per-server index stamped, completion delivered in order through the
// sequencer-wide deliver func.
func BenchmarkSeqSubmitComplete(b *testing.B) {
	delivered := 0
	st := NewSequencerFor(0, 1, func(*Ticket) { delivered++ }).Stream(0)
	var slot Ticket
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := st.SubmitInto(&slot, uint64(i), 1, true, false, false, nil)
		st.NextServerIdx(0)
		st.Completed(t.Attr.ReqID)
	}
	if delivered != b.N {
		b.Fatalf("delivered %d of %d", delivered, b.N)
	}
}
