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

// benchAttr is one unmerged 4 KB write's attribute.
var benchAttr = Attr{Stream: 3, ReqID: 9, SeqStart: 7, SeqEnd: 7, Num: 1, ServerIdx: 5, LBA: 4096, Blocks: 1, Boundary: true}

// BenchmarkLogAppendPersistRetire is one entry's life in a 2 MB PMR log
// (`make bench-layers`): appended when the target takes the command,
// persist flag set once the data is durable, retired in order as the
// completion reaches the application.
func BenchmarkLogAppendPersistRetire(b *testing.B) {
	l := NewLog(make([]byte, 2<<20))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot, ok := l.Append(benchAttr)
		if !ok {
			b.Fatal("log full with every entry retired")
		}
		l.MarkPersist(slot)
		l.Retire(slot)
	}
}

// benchRegion is a full 2 MB PMR region as a crash leaves it: 8 streams of
// one-request groups, every entry but the newest 64 persisted.
func benchRegion() []byte {
	region := make([]byte, 2<<20)
	l := NewLog(region)
	for i := 0; i < l.Cap(); i++ {
		a := benchAttr
		a.Stream = uint16(i % 8)
		a.SeqStart = uint64(i/8 + 1)
		a.SeqEnd = a.SeqStart
		a.ReqID = uint32(i / 8)
		a.ServerIdx = a.SeqStart
		a.LBA = uint64(i)
		slot, _ := l.Append(a)
		if i < l.Cap()-64 {
			l.MarkPersist(slot)
		}
	}
	return region
}

// BenchmarkScanRegion decodes benchRegion: recovery's first step per
// server. One op is one whole-region scan; ns/entry divides it by the
// region's slots.
func BenchmarkScanRegion(b *testing.B) {
	region := benchRegion()
	slots := len(region) / EntrySize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := len(ScanRegion(region)); got != slots {
			b.Fatalf("scan found %d entries, want %d", got, slots)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(slots), "ns/entry")
}

// BenchmarkAnalyze merges benchRegion's scanned view into the recovery
// report: recovery's second step. One op is one whole analysis; ns/entry
// divides it by the view's entries.
func BenchmarkAnalyze(b *testing.B) {
	views := []ServerView{{PLP: true, Entries: ScanRegion(benchRegion())}}
	entries := len(views[0].Entries)
	want := uint64(entries/8 - 8) // each stream's newest 8 groups are not persisted
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := Analyze(views).Prefix(0); got != want {
			b.Fatalf("prefix %d, want %d", got, want)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(entries), "ns/entry")
}
