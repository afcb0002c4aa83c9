package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func entry(stream uint16, reqID uint32, seq uint64, idx uint64, num uint16, persist bool) Entry {
	return Entry{
		Attr: Attr{
			Stream: stream, ReqID: reqID,
			SeqStart: seq, SeqEnd: seq,
			ServerIdx: idx, LBA: uint64(reqID) * 10, Blocks: 1,
			Boundary: true, Num: num,
		},
		Persist: persist,
	}
}

func TestDurableSetPLPRule(t *testing.T) {
	v := ServerView{PLP: true, Entries: []Entry{
		entry(0, 1, 1, 1, 1, true),
		entry(0, 2, 2, 2, 1, false),
	}}
	d, u := DurableSet(v)
	if len(d) != 1 || d[0].ReqID != 1 {
		t.Fatalf("durable = %v", d)
	}
	if len(u) != 1 || u[0].ReqID != 2 {
		t.Fatalf("uncertain = %v", u)
	}
}

func TestDurableSetFlushRule(t *testing.T) {
	// Non-PLP: entries 1-2 have persist=0 but entry 3 carries a persisted
	// FLUSH with a later ServerIdx, so 1-2 are durable (the flush drained
	// them). Entry 4 (after the flush) stays uncertain.
	e3 := entry(0, 3, 3, 3, 1, true)
	e3.Flush = true
	v := ServerView{PLP: false, Entries: []Entry{
		entry(0, 1, 1, 1, 1, false),
		entry(0, 2, 2, 2, 1, false),
		e3,
		entry(0, 4, 4, 4, 1, false),
	}}
	d, u := DurableSet(v)
	if len(d) != 3 {
		t.Fatalf("durable = %d entries, want 3", len(d))
	}
	if len(u) != 1 || u[0].ReqID != 4 {
		t.Fatalf("uncertain = %v", u)
	}
	// Flush rules are per stream: a flush on stream 0 says nothing about
	// stream 1.
	v.Entries = append(v.Entries, entry(1, 9, 1, 1, 1, false))
	_, u = DurableSet(v)
	if len(u) != 2 {
		t.Fatalf("uncertain with cross-stream entry = %d, want 2", len(u))
	}
}

// TestAnalyzePaperFigure6 reproduces the recovery example of Fig. 6: seven
// groups over two servers; W4 not durable makes the prefix 1..3 (W2 is
// group 2 with two requests W2_1, W2_2 both durable; W5..W7 dropped).
func TestAnalyzePaperFigure6(t *testing.T) {
	s1 := ServerView{Server: 1, PLP: true, Entries: []Entry{
		entry(0, 1, 1, 1, 1, true),  // W1
		entry(0, 3, 3, 2, 1, true),  // W3
		entry(0, 4, 4, 3, 1, false), // W4 (not durable)
		entry(0, 6, 6, 4, 1, true),  // W6
	}}
	// W2 is a two-request group on server 2; W7 has two requests, one not
	// durable.
	w21 := entry(0, 20, 2, 1, 0, true)
	w21.Boundary = false
	w21.Num = 0
	w22 := entry(0, 21, 2, 2, 2, true)
	w71 := entry(0, 70, 7, 4, 0, true)
	w71.Boundary = false
	w71.Num = 0
	w72 := entry(0, 71, 7, 5, 2, false)
	s2 := ServerView{Server: 2, PLP: true, Entries: []Entry{
		w21, w22,
		entry(0, 5, 5, 3, 1, true), // W5
		w71, w72,
	}}
	rep := Analyze([]ServerView{s1, s2})
	sr := rep.Stream(0, 0)
	if sr == nil {
		t.Fatal("no report for stream 0")
	}
	if sr.DurablePrefix != 3 {
		t.Fatalf("prefix = %d, want 3 (W4 not durable)", sr.DurablePrefix)
	}
	if sr.MaxSeen != 7 {
		t.Fatalf("maxSeen = %d, want 7", sr.MaxSeen)
	}
	// Discards: everything covering groups 4..7 (W4, W5, W6, W7_1, W7_2).
	if len(sr.Discard) != 5 {
		t.Fatalf("discard = %d entries, want 5: %v", len(sr.Discard), sr.Discard)
	}
	for _, e := range sr.Discard {
		if e.SeqStart <= 3 {
			t.Fatalf("discard contains prefix entry %+v", e)
		}
	}
}

func TestAnalyzeRetiredFloorFromMinSeen(t *testing.T) {
	// Groups 1..50 were retired and recycled; the log only shows 51
	// (durable) and 52 (not). Prefix must be 51.
	v := ServerView{PLP: true, Entries: []Entry{
		entry(0, 51, 51, 51, 1, true),
		entry(0, 52, 52, 52, 1, false),
	}}
	rep := Analyze([]ServerView{v})
	if got := rep.Prefix(0); got != 51 {
		t.Fatalf("prefix = %d, want 51", got)
	}
}

func TestAnalyzeEmptyViews(t *testing.T) {
	rep := Analyze([]ServerView{{PLP: true}})
	if len(rep.Streams) != 0 {
		t.Fatalf("streams = %d, want 0", len(rep.Streams))
	}
	if rep.Prefix(0) != 0 {
		t.Fatal("prefix of unknown stream must be 0")
	}
}

func TestAnalyzeMergedEntryAtomicity(t *testing.T) {
	// A merged entry covering groups 2-4: if durable, all three groups are
	// durable; if not, none are (§4.8: merging reduces post-crash states
	// to all-or-nothing).
	merged := Entry{Attr: Attr{
		Stream: 0, ReqID: 10, SeqStart: 2, SeqEnd: 4,
		ServerIdx: 2, LBA: 100, Blocks: 3, Boundary: true, Num: 3,
	}, Persist: true}
	views := []ServerView{{PLP: true, Entries: []Entry{
		entry(0, 1, 1, 1, 1, true),
		merged,
		entry(0, 20, 5, 3, 1, true),
	}}}
	rep := Analyze(views)
	if got := rep.Prefix(0); got != 5 {
		t.Fatalf("prefix = %d, want 5", got)
	}
	// Same but merged not durable: prefix stops at 1 and groups 2-5 drop.
	merged.Persist = false
	views[0].Entries[1] = merged
	rep = Analyze(views)
	if got := rep.Prefix(0); got != 1 {
		t.Fatalf("prefix = %d, want 1 (atomic merged range dropped)", got)
	}
	if len(rep.Stream(0, 0).Discard) != 2 {
		t.Fatalf("discard = %v", rep.Stream(0, 0).Discard)
	}
}

// A checksum-valid merged entry of any span is decided in time independent
// of the span: its persist bit settles every group it covers at once. One
// covering 2^62 groups, read back from PMR bytes, once kept Analyze (and
// with it Recover) walking group by group without end.
func TestAnalyzeHugeMergedRange(t *testing.T) {
	const end = 1 << 62
	region := make([]byte, 3*EntrySize)
	encodeEntry(region, Entry{Attr: Attr{
		ReqID: 1, SeqStart: 1, SeqEnd: end, ServerIdx: 1, LBA: 0, Blocks: 8, Boundary: true, Num: 2,
	}, Persist: true})
	encodeEntry(region[EntrySize:], entry(0, 2, end+1, 2, 1, false))
	done := make(chan *Report, 1)
	go func() { done <- Analyze([]ServerView{{PLP: true, Entries: ScanRegion(region)}}) }()
	select {
	case rep := <-done:
		sr := rep.Stream(0, 0)
		if sr.DurablePrefix != end || sr.MaxSeen != end+1 {
			t.Fatalf("prefix %d, max seen %d; want %d, %d", sr.DurablePrefix, sr.MaxSeen, uint64(end), uint64(end+1))
		}
		if len(sr.Discard) != 1 || sr.Discard[0].ReqID != 2 {
			t.Fatalf("discard = %+v, want the later group's entry", sr.Discard)
		}
	case <-time.After(time.Second):
		t.Fatal("Analyze of one merged range of 2^62 groups did not return in 1 s")
	}
}

func TestAnalyzeSplitFragmentsMergeBack(t *testing.T) {
	// Group 2 was split across two servers (Fig. 8b); it is durable only
	// when both fragments are.
	frag := func(idx uint16, persist bool, server int) ServerView {
		e := Entry{Attr: Attr{
			Stream: 0, ReqID: 5, SeqStart: 2, SeqEnd: 2, ServerIdx: 2,
			LBA: uint64(100 + idx*32), Blocks: 32,
			Boundary: true, Num: 1,
			Split: true, SplitIdx: idx, SplitCnt: 2,
		}, Persist: persist}
		return ServerView{Server: server, PLP: true, Entries: []Entry{e}}
	}
	base := ServerView{Server: 0, PLP: true, Entries: []Entry{entry(0, 1, 1, 1, 1, true)}}

	rep := Analyze([]ServerView{base, frag(0, true, 1), frag(1, true, 2)})
	if got := rep.Prefix(0); got != 2 {
		t.Fatalf("prefix with both fragments = %d, want 2", got)
	}
	rep = Analyze([]ServerView{base, frag(0, true, 1), frag(1, false, 2)})
	if got := rep.Prefix(0); got != 1 {
		t.Fatalf("prefix with half-durable split = %d, want 1", got)
	}
}

func TestAnalyzeIPUSeparation(t *testing.T) {
	ipu := entry(0, 3, 3, 3, 1, false)
	ipu.IPU = true
	v := ServerView{PLP: true, Entries: []Entry{
		entry(0, 1, 1, 1, 1, true),
		entry(0, 2, 2, 2, 1, false),
		ipu,
	}}
	rep := Analyze([]ServerView{v})
	sr := rep.Stream(0, 0)
	if sr.DurablePrefix != 1 {
		t.Fatalf("prefix = %d, want 1", sr.DurablePrefix)
	}
	if len(sr.IPU) != 1 || !sr.IPU[0].IPU {
		t.Fatalf("IPU list = %v", sr.IPU)
	}
	for _, e := range sr.Discard {
		if e.IPU {
			t.Fatal("IPU entries must not be in the discard (roll-back) list")
		}
	}
}

func TestAnalyzeMissingBoundaryBlocksGroup(t *testing.T) {
	// Group 2's boundary request never arrived: even though one member is
	// durable, the group is incomplete.
	member := entry(0, 5, 2, 2, 0, true)
	member.Boundary = false
	member.Num = 0
	v := ServerView{PLP: true, Entries: []Entry{
		entry(0, 1, 1, 1, 1, true),
		member,
	}}
	rep := Analyze([]ServerView{v})
	if got := rep.Prefix(0); got != 1 {
		t.Fatalf("prefix = %d, want 1", got)
	}
}

func TestAnalyzeMultiStreamIndependence(t *testing.T) {
	v := ServerView{PLP: true, Entries: []Entry{
		entry(0, 1, 1, 1, 1, true),
		entry(0, 2, 2, 2, 1, false),
		entry(1, 1, 1, 1, 1, true),
		entry(1, 2, 2, 2, 1, true),
	}}
	rep := Analyze([]ServerView{v})
	if rep.Prefix(0) != 1 || rep.Prefix(1) != 2 {
		t.Fatalf("prefixes = %d,%d, want 1,2", rep.Prefix(0), rep.Prefix(1))
	}
}

// TestAnalyzeMultiInitiatorIndependence: two initiators using the SAME
// stream id are separate ordering domains — one initiator's missing
// group must not cap the other's prefix, and roll-back lists never mix.
func TestAnalyzeMultiInitiatorIndependence(t *testing.T) {
	in1 := func(e Entry) Entry {
		e.Initiator = 1
		return e
	}
	v := ServerView{PLP: true, Entries: []Entry{
		entry(0, 1, 1, 1, 1, true),
		entry(0, 2, 2, 2, 1, false), // initiator 0 stalls at 1
		in1(entry(0, 1, 1, 1, 1, true)),
		in1(entry(0, 2, 2, 2, 1, true)), // initiator 1 reaches 2
	}}
	rep := Analyze([]ServerView{v})
	if got := rep.PrefixFor(0, 0); got != 1 {
		t.Fatalf("initiator 0 prefix = %d, want 1", got)
	}
	if got := rep.PrefixFor(1, 0); got != 2 {
		t.Fatalf("initiator 1 prefix = %d, want 2", got)
	}
	if sr := rep.Stream(1, 0); sr == nil || len(sr.Discard) != 0 {
		t.Fatalf("initiator 1 must have nothing to roll back: %+v", sr)
	}
	if sr := rep.Stream(0, 0); len(sr.Discard) != 1 || sr.Discard[0].Initiator != 0 {
		t.Fatalf("initiator 0 discard list polluted: %+v", sr.Discard)
	}
}

// Property (§4.8): for any crash pattern over n single-request groups, the
// durable prefix k satisfies: groups 1..k all durable, and group k+1 (if
// seen) not durable. This is the prefix-semantics invariant.
func TestPrefixInvariantProperty(t *testing.T) {
	f := func(n uint8, durableMask uint32, splitAcross uint8, seed int64) bool {
		groups := int(n%24) + 1
		rng := rand.New(rand.NewSource(seed))
		servers := []ServerView{{Server: 0, PLP: true}, {Server: 1, PLP: true}}
		idx := []uint64{0, 0}
		durable := make([]bool, groups+1)
		for g := 1; g <= groups; g++ {
			durable[g] = durableMask&(1<<uint(g%32)) != 0
			s := rng.Intn(2)
			idx[s]++
			servers[s].Entries = append(servers[s].Entries,
				entry(0, uint32(g), uint64(g), idx[s], 1, durable[g]))
		}
		rep := Analyze(servers)
		k := rep.Prefix(0)
		for g := uint64(1); g <= k; g++ {
			if !durable[g] {
				return false // prefix claims a non-durable group
			}
		}
		if k < uint64(groups) && durable[k+1] {
			return false // prefix stopped early despite durable next group
		}
		// All discard entries must be beyond the prefix.
		if sr := rep.Stream(0, 0); sr != nil {
			for _, e := range sr.Discard {
				if e.SeqEnd <= k {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
