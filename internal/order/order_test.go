package order

import (
	"math/rand"
	"testing"

	"repro/internal/core"
)

// driveGate feeds a permutation of 1..n through a domain the way the
// target's submission path does (admit-or-park, then drain), returning
// the order indices were processed in.
func driveGate(t *testing.T, d *Domain[uint64], perm []uint64) []uint64 {
	t.Helper()
	var processed []uint64
	for _, idx := range perm {
		if !d.Admit(idx) {
			d.Park(idx, idx)
			continue
		}
		processed = append(processed, idx)
		d.Advance(idx)
		for {
			v, ok := d.TakeNext()
			if !ok {
				break
			}
			processed = append(processed, v)
			d.Advance(v)
		}
		if bad := d.AuditParked(); bad != 0 {
			t.Fatalf("audit mid-drive: %d parked entries at/below frontier", bad)
		}
	}
	return processed
}

func TestGateDenseChainAnyPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		perm := make([]uint64, n)
		for i := range perm {
			perm[i] = uint64(i + 1)
		}
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		var d Domain[uint64]
		d.initDomain(4) // force parked-ring growth
		got := driveGate(t, &d, perm)
		if len(got) != n {
			t.Fatalf("trial %d: processed %d of %d", trial, len(got), n)
		}
		for i, idx := range got {
			if idx != uint64(i+1) {
				t.Fatalf("trial %d: out of order at %d: got idx %d", trial, i, idx)
			}
		}
		if d.ParkedLen() != 0 {
			t.Fatalf("trial %d: %d stranded parked entries", trial, d.ParkedLen())
		}
	}
}

func TestAuditFlagsCorruptPark(t *testing.T) {
	var d Domain[int]
	d.initDomain(8)
	d.Advance(4) // frontier now 5
	d.Park(3, 3) // a parked index at/below the frontier is corruption
	d.Park(7, 7) // a genuine future index is fine
	if got := d.AuditParked(); got != 1 {
		t.Fatalf("AuditParked = %d, want 1", got)
	}
}

func TestSlotTableAndRetire(t *testing.T) {
	var d Domain[int]
	d.initDomain(4)
	for idx := uint64(1); idx <= 100; idx++ {
		d.RecordSlot(idx, 1000+idx)
	}
	if s, ok := d.Slot(42); !ok || s != 1042 {
		t.Fatalf("Slot(42) = %d,%v", s, ok)
	}
	var freed []uint64
	if !d.RetireUpTo(60, func(s uint64) { freed = append(freed, s) }) {
		t.Fatal("RetireUpTo(60) did not advance")
	}
	if len(freed) != 60 || freed[0] != 1001 || freed[59] != 1060 {
		t.Fatalf("freed %d slots, first %d last %d", len(freed), freed[0], freed[len(freed)-1])
	}
	if d.RetiredTo() != 60 {
		t.Fatalf("RetiredTo = %d", d.RetiredTo())
	}
	if _, ok := d.Slot(60); ok {
		t.Fatal("retired slot still present")
	}
	if _, ok := d.Slot(61); !ok {
		t.Fatal("live slot lost by retire")
	}
	// A stale watermark must not re-fire or regress.
	if d.RetireUpTo(50, func(uint64) { t.Fatal("re-freed a retired slot") }) {
		t.Fatal("stale RetireUpTo advanced")
	}
}

func TestSlotTableOutOfOrderWindow(t *testing.T) {
	// Horae's control path records slots per domain from concurrent QPs:
	// insertion order within the live window is arbitrary.
	var d Domain[int]
	d.initDomain(2)
	for _, idx := range []uint64{5, 2, 9, 1, 7, 3, 8, 4, 6, 10} {
		d.RecordSlot(idx, idx*10)
	}
	for idx := uint64(1); idx <= 10; idx++ {
		if s, ok := d.Slot(idx); !ok || s != idx*10 {
			t.Fatalf("Slot(%d) = %d,%v", idx, s, ok)
		}
	}
}

func TestEngineDenseTableAndReset(t *testing.T) {
	e := NewEngine[int](Rio{}, 2, 3, 2, 8)
	if !e.Policy().Gated() || e.Policy().Name() != "rio" {
		t.Fatal("policy mismatch")
	}
	a := e.Domain(0, 1)
	b := e.Domain(1, 1)
	if a == b {
		t.Fatal("domains of different initiators alias")
	}
	a.Advance(5)
	a.RecordSlot(6, 66)
	b.Advance(9)
	e.AddUnflushed(1, SlotRef{Init: 0, Slot: 3})
	e.AddUnflushed(1, SlotRef{Init: 1, Slot: 4})

	e.ResetInitiator(0)
	if got := e.Domain(0, 1).Frontier(); got != 1 {
		t.Fatalf("initiator 0 frontier after reset = %d", got)
	}
	if got := e.Domain(1, 1).Frontier(); got != 10 {
		t.Fatalf("initiator 1 frontier clobbered: %d", got)
	}
	refs := e.TakeUnflushed(1)
	if len(refs) != 1 || refs[0].Init != 1 {
		t.Fatalf("ResetInitiator kept wrong unflushed refs: %+v", refs)
	}

	b.Park(3, 3) // idx <= frontier: corruption
	if e.Audit() != 1 {
		t.Fatalf("Audit = %d, want 1", e.Audit())
	}
	e.ResetInitiator(1)
	if e.Audit() != 0 || e.Domain(1, 1).Frontier() != 1 {
		t.Fatal("ResetInitiator left state behind")
	}
}

func TestQuorumAccounting(t *testing.T) {
	var q Quorum
	q.Reset()
	for _, m := range []int{3, 4, 5} {
		q.Add(m)
	}
	q.Need = 2
	if q.Pos(4) != 1 || q.Pos(9) != -1 {
		t.Fatal("Pos broken")
	}
	if !q.Ack(q.Pos(3)) || q.Acks != 1 || q.Fired {
		t.Fatal("first ack")
	}
	if q.Ack(q.Pos(3)) {
		t.Fatal("duplicate ack counted")
	}
	if !q.Cancel(q.Pos(4)) || q.Cancel(q.Pos(4)) {
		t.Fatal("cancel transitions")
	}
	if q.Done() {
		t.Fatal("done with a member outstanding")
	}
	if !q.Ack(q.Pos(5)) || q.Acks != 2 || !q.Done() {
		t.Fatalf("final ack: acks=%d done=%v", q.Acks, q.Done())
	}
	if q.Ack(q.Pos(4)) {
		t.Fatal("ack after cancel counted (resync late-ack must use its own path)")
	}
	q.Reset()
	if len(q.Members) != 0 || q.Acks != 0 {
		t.Fatal("reset")
	}
}

func TestEpochMarkAppend(t *testing.T) {
	region := make([]byte, 8*core.EntrySize)
	l := core.NewLog(region)
	a := core.EpochMarkAttr(0, 1, 2, 3)
	if !AppendEpochMark(l, a) {
		t.Fatal("append failed on empty log")
	}
	// Immediately retired: the mark never consumes durable log space.
	if l.Free() != l.Cap() {
		t.Fatalf("mark held log space: free %d of %d", l.Free(), l.Cap())
	}
	entries := core.ScanRegion(region)
	if len(entries) != 1 || !entries[0].EpochMark || !entries[0].Persist {
		t.Fatalf("scan = %+v", entries)
	}
}

func TestScanPartitionAndMerge(t *testing.T) {
	region := make([]byte, 32*core.EntrySize)
	l := core.NewLog(region)
	for i := uint64(1); i <= 3; i++ {
		slot, ok := l.Append(core.Attr{
			Stream: 0, ReqID: uint32(i), SeqStart: i, SeqEnd: i,
			ServerIdx: i, Boundary: true, Num: 1, LBA: 100 + i, Blocks: 1,
		})
		if !ok {
			t.Fatal("append")
		}
		if i <= 2 {
			l.MarkPersist(slot)
		}
	}
	v := ScanPartition(0, true, region)
	if v.Server != 0 || !v.PLP || len(v.Entries) != 3 {
		t.Fatalf("view = %+v", v)
	}
	rep := MergeViews([]core.ServerView{v})
	if got := rep.Prefix(0); got != 2 {
		t.Fatalf("durable prefix = %d, want 2", got)
	}
}

func TestMajority(t *testing.T) {
	for r, want := range map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3} {
		if got := Majority(r); got != want {
			t.Fatalf("Majority(%d) = %d, want %d", r, got, want)
		}
	}
}
