package core

import (
	"testing"
	"testing/quick"
)

// Property: the circular log never loses a live entry across arbitrary
// append/persist/retire interleavings, and Free never goes negative.
func TestLogCyclingProperty(t *testing.T) {
	f := func(ops []uint8, capRaw uint8) bool {
		capSlots := int(capRaw%12) + 2
		region := make([]byte, capSlots*EntrySize)
		l := NewLog(region)
		var liveSlots []uint64
		next := uint64(1)
		for _, op := range ops {
			switch op % 3 {
			case 0: // append
				slot, ok := l.Append(Attr{ReqID: uint32(next), SeqStart: next, SeqEnd: next, ServerIdx: next})
				if !ok {
					if l.Free() != 0 {
						return false // refused despite free space
					}
					continue
				}
				next++
				liveSlots = append(liveSlots, slot)
			case 1: // persist the oldest live
				if len(liveSlots) > 0 {
					l.MarkPersist(liveSlots[0])
				}
			case 2: // retire the oldest live
				if len(liveSlots) > 0 {
					l.Retire(liveSlots[0])
					liveSlots = liveSlots[1:]
				}
			}
			if l.Free() < 0 || l.Free() > l.Cap() {
				return false
			}
		}
		// Every still-live entry must be readable in the region.
		found := map[uint32]bool{}
		for _, e := range ScanRegion(region) {
			found[e.ReqID] = true
		}
		for _, slot := range liveSlots {
			e, ok := decodeEntry(region[int(slot%uint64(l.Cap()))*EntrySize:])
			if !ok || !found[e.ReqID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: AttrStamp is collision-free and never zero over the identities
// a deployment can produce — (initiator, stream, group, request of the
// group) — densely near the origin and at the edges of every packed field:
// the last initiator and stream stack.New admits, the widest sequence number
// the SQE carries, and request ids up to a whole group apart (Attr.Num is 16
// bits; the stream-wide ReqID counter contributes its low half).
func TestAttrStampUniquenessProperty(t *testing.T) {
	seen := map[uint64][4]uint64{}
	check := func(init, stream, seq, req uint64) {
		t.Helper()
		key := [4]uint64{init, stream, seq, req}
		st := AttrStamp(Attr{Initiator: uint16(init), Stream: uint16(stream), SeqStart: seq, SeqEnd: seq, ReqID: 7<<16 | uint32(req)})
		if st == 0 {
			t.Fatalf("identity %v is zero, which readers take for never written", key)
		}
		if prev, ok := seen[st]; ok && prev != key {
			t.Fatalf("stamp collision: %v and %v -> %#x", prev, key, st)
		}
		seen[st] = key
	}
	edges := func(max uint64) []uint64 { return []uint64{0, 1, 2, 63, max / 2, max - 1, max} }
	for _, init := range edges(StampInitiators - 1) {
		for _, stream := range edges(StampStreams - 1) {
			for _, seq := range edges(1<<32 - 1)[1:] { // sequence numbers start at 1
				for _, req := range edges(1<<16 - 1) {
					check(init, stream, seq, req)
				}
			}
		}
	}
	for stream := uint64(0); stream < 8; stream++ {
		for seq := uint64(1); seq < 64; seq++ {
			for req := uint64(0); req < 64; req++ {
				check(0, stream, seq, req)
			}
		}
	}
}

// AttrStamp must be stable across replay (ServerIdx excluded).
func TestAttrStampIgnoresServerIdxAndLBA(t *testing.T) {
	a := Attr{Stream: 1, SeqStart: 5, SeqEnd: 5, ReqID: 9, ServerIdx: 3, LBA: 100}
	b := a
	b.ServerIdx = 77
	b.LBA = 9999
	if AttrStamp(a) != AttrStamp(b) {
		t.Fatal("AttrStamp must not depend on ServerIdx or LBA")
	}
}

// Property: DurableSet never classifies the same entry as both durable and
// uncertain, and together they partition the input.
func TestDurableSetPartitionProperty(t *testing.T) {
	f := func(n uint8, persistMask uint16, flushMask uint16, plp bool) bool {
		count := int(n%20) + 1
		var entries []Entry
		for i := 0; i < count; i++ {
			e := entry(0, uint32(i), uint64(i+1), uint64(i+1), 1, persistMask&(1<<uint(i%16)) != 0)
			e.Flush = flushMask&(1<<uint(i%16)) != 0
			entries = append(entries, e)
		}
		d, u := DurableSet(ServerView{PLP: plp, Entries: entries})
		if len(d)+len(u) != count {
			return false
		}
		durable := map[uint32]bool{}
		for _, e := range d {
			durable[e.ReqID] = true
		}
		for _, e := range u {
			if durable[e.ReqID] {
				return false
			}
		}
		// Non-PLP flush rule: an entry with persist=1 is always durable.
		for _, e := range entries {
			if e.Persist && !durable[e.ReqID] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Stream stealing (§4.5, Fig. 7b): two "cores" submitting to the same
// stream still get one global order with dense seqs.
func TestStreamSharedBetweenSubmitters(t *testing.T) {
	st := NewSequencer(1).Stream(0)
	var seqs []uint64
	for i := 0; i < 10; i++ {
		// Alternate "cores" (callers) — the sequencer only sees the stream.
		tk := st.Submit(uint64(i), 1, true, false, false, nil)
		seqs = append(seqs, tk.Attr.SeqStart)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seqs = %v, want dense 1..10", seqs)
		}
	}
}

func TestReportPrefixUnknownStream(t *testing.T) {
	rep := Analyze(nil)
	if rep.Prefix(42) != 0 {
		t.Fatal("unknown stream prefix must be 0")
	}
}

func TestScanRegionShortRegion(t *testing.T) {
	if got := ScanRegion(make([]byte, EntrySize-1)); len(got) != 0 {
		t.Fatalf("scan of short region = %d entries", len(got))
	}
}

func TestNewLogTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLog on tiny region must panic")
		}
	}()
	NewLog(make([]byte, 10))
}
