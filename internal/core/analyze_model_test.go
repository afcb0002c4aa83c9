package core

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// analyzeMaps is Analyze as a map per group, per request and per fragment,
// walked one group at a time: the reference semantics the sorted sweep must
// keep. It allocates per group a merged entry covers, so it cannot take a
// merged range of unbounded span.
func analyzeMaps(views []ServerView) *Report {
	type streamState struct {
		groups  map[uint64]*evidence
		minSeen uint64
		maxSeen uint64
		any     bool
		beyond  []Entry // every entry, for discard classification
	}
	streams := map[StreamKey]*streamState{}
	state := func(id StreamKey) *streamState {
		ss := streams[id]
		if ss == nil {
			ss = &streamState{groups: map[uint64]*evidence{}}
			streams[id] = ss
		}
		return ss
	}
	note := func(e Entry, server int, durable bool) {
		e.Server = server
		ss := state(StreamKey{e.Initiator, e.Stream})
		ss.beyond = append(ss.beyond, e)
		if !ss.any || e.SeqStart < ss.minSeen {
			ss.minSeen = e.SeqStart
		}
		if e.SeqEnd > ss.maxSeen {
			ss.maxSeen = e.SeqEnd
		}
		ss.any = true
		for g := e.SeqStart; g <= e.SeqEnd; g++ {
			ev := ss.groups[g]
			if ev == nil {
				ev = &evidence{reqs: map[uint32]*reqEvidence{}}
				ss.groups[g] = ev
			}
			if e.Merged() {
				// Merged entries cover complete groups by construction, so
				// the single entry is full evidence for every covered group.
				ev.mergedSeen = true
				if durable {
					ev.mergedDurable = true
				}
				continue
			}
			re := ev.reqs[e.ReqID]
			if re == nil {
				re = &reqEvidence{fragsDurable: map[uint16]bool{}}
				ev.reqs[e.ReqID] = re
			}
			if e.Split {
				re.splitCnt = e.SplitCnt
				if durable {
					re.fragsDurable[e.SplitIdx] = true
				} else {
					re.anyNonDurable = true
				}
			} else if durable {
				re.plainDurable = true
			} else {
				re.anyNonDurable = true
			}
			if e.Boundary {
				re.isBoundary = true
				ev.boundaryNum = maxU16(ev.boundaryNum, e.Num)
			}
		}
	}
	for _, v := range views {
		durable, uncertain := DurableSet(v)
		for _, e := range durable {
			note(e, v.Server, true)
		}
		for _, e := range uncertain {
			note(e, v.Server, false)
		}
	}

	byKey := map[StreamKey]*StreamReport{}
	for id, ss := range streams {
		sr := &StreamReport{Initiator: id.Initiator, Stream: id.Stream, MaxSeen: ss.maxSeen}
		// Groups below the minimum present seq were retired after in-order
		// completion: they are durable by construction.
		prefix := uint64(0)
		if ss.any && ss.minSeen > 1 {
			prefix = ss.minSeen - 1
		}
		for g := prefix + 1; ; g++ {
			ev := ss.groups[g]
			if ev == nil || !evidenceDurable(ev) {
				break
			}
			prefix = g
		}
		sr.DurablePrefix = prefix
		// Classify entries beyond the prefix.
		seen := map[entryKey]bool{}
		for _, e := range ss.beyond {
			if e.SeqEnd <= prefix {
				continue
			}
			k := entryKey{e.ReqID, e.SplitIdx, e.LBA, e.Server}
			if seen[k] {
				continue
			}
			seen[k] = true
			if e.IPU {
				sr.IPU = append(sr.IPU, e)
			} else {
				sr.Discard = append(sr.Discard, e)
			}
		}
		sort.Slice(sr.Discard, func(i, j int) bool {
			return lessEntry(sr.Discard[i], sr.Discard[j])
		})
		sort.Slice(sr.IPU, func(i, j int) bool {
			return lessEntry(sr.IPU[i], sr.IPU[j])
		})
		byKey[id] = sr
	}
	rep := &Report{}
	for _, sr := range byKey {
		rep.Streams = append(rep.Streams, sr)
	}
	sort.Slice(rep.Streams, func(i, j int) bool {
		a, b := rep.Streams[i], rep.Streams[j]
		return a.Initiator < b.Initiator || a.Initiator == b.Initiator && a.Stream < b.Stream
	})
	return rep
}

// evidence accumulates per-group durability facts across servers.
type evidence struct {
	boundaryNum   uint16 // Num from the boundary request (0 = boundary unseen)
	mergedDurable bool   // a durable merged entry covers this group
	mergedSeen    bool
	// Per request: fragments seen/durable.
	reqs map[uint32]*reqEvidence
}

type reqEvidence struct {
	splitCnt      uint16 // 0 = not split
	fragsDurable  map[uint16]bool
	plainDurable  bool
	isBoundary    bool
	anyNonDurable bool
}

// entryKey dedups beyond-prefix entries for the discard list. The server
// is part of the identity: under replication the same logical write has
// one PMR entry per replica, and roll-back must erase EVERY replica's
// copy (a stale block surviving on one member would diverge the set).
type entryKey struct {
	reqID    uint32
	splitIdx uint16
	lba      uint64
	server   int
}

func lessEntry(a, b Entry) bool {
	if a.SeqStart != b.SeqStart {
		return a.SeqStart < b.SeqStart
	}
	if a.ReqID != b.ReqID {
		return a.ReqID < b.ReqID
	}
	if a.SplitIdx != b.SplitIdx {
		return a.SplitIdx < b.SplitIdx
	}
	return a.Server < b.Server
}

// evidenceDurable decides whether every request of a group is durable.
func evidenceDurable(ev *evidence) bool {
	if ev.mergedSeen {
		// Merged entries are atomic: the single persist bit speaks for the
		// whole range (§4.8).
		return ev.mergedDurable
	}
	if ev.boundaryNum == 0 {
		return false // boundary request unseen: group incomplete
	}
	durableReqs := 0
	for _, re := range ev.reqs {
		if reqDurable(re) {
			durableReqs++
		}
	}
	return durableReqs >= int(ev.boundaryNum)
}

func reqDurable(re *reqEvidence) bool {
	if re.splitCnt > 0 {
		if len(re.fragsDurable) < int(re.splitCnt) {
			return false
		}
		for i := uint16(0); i < re.splitCnt; i++ {
			if !re.fragsDurable[i] {
				return false
			}
		}
		return true
	}
	return re.plainDurable
}

func maxU16(a, b uint16) uint16 {
	if a > b {
		return a
	}
	return b
}

// randomViews draws one recovery input: 1–3 servers with mixed NSPLP, and
// 1–2 initiators × 1–3 streams of groups above a random floor. A group is
// a merged range (with strays of its groups and overlapping ranges on any
// server) or up to three requests, plain or split over servers, its
// boundary sometimes missing. Copies are lost, persisted or not, carry
// FLUSH or IPU, and some go to a second server, or twice to the same one.
// Request ids are unique per stream and LBAs per copy, as in a real scan.
func randomViews(rng *rand.Rand) []ServerView {
	views := make([]ServerView, 1+rng.Intn(3))
	for s := range views {
		views[s] = ServerView{Server: s, PLP: rng.Intn(2) == 0, NSPLP: make([]bool, rng.Intn(3))}
		for ns := range views[s].NSPLP {
			views[s].NSPLP[ns] = rng.Intn(2) == 0
		}
	}
	var lba uint64
	inits, streams := 1+rng.Intn(2), 1+rng.Intn(3)
	for init := 0; init < inits; init++ {
		for stream := 0; stream < streams; stream++ {
			idx := make([]uint64, len(views)) // per-server ServerIdx chains
			var req uint32
			put := func(a Attr) {
				if rng.Intn(12) == 0 {
					return // lost: never persisted to PMR
				}
				s := rng.Intn(len(views))
				idx[s]++
				lba++
				a.Initiator, a.Stream, a.ServerIdx, a.LBA, a.Blocks = uint16(init), uint16(stream), idx[s], lba, 1
				a.NS, a.Flush, a.IPU = uint16(rng.Intn(3)), rng.Intn(6) == 0, rng.Intn(10) == 0
				e := Entry{Attr: a, Persist: rng.Intn(5) != 0}
				views[s].Entries = append(views[s].Entries, e)
				if rng.Intn(8) == 0 {
					e.Persist = rng.Intn(2) == 0
					c := rng.Intn(len(views))
					views[c].Entries = append(views[c].Entries, e)
				}
			}
			g := uint64(1 + rng.Intn(4))
			for end := g + uint64(rng.Intn(10)); g <= end; {
				if rng.Intn(5) == 0 {
					span := uint64(1 + rng.Intn(3))
					req++
					put(Attr{ReqID: req, SeqStart: g, SeqEnd: g + span, Boundary: true, Num: uint16(span + 1)})
					if rng.Intn(3) == 0 {
						req++
						put(Attr{ReqID: req, SeqStart: g + span, SeqEnd: g + span, Boundary: true, Num: 1})
					}
					if rng.Intn(4) == 0 {
						req++
						put(Attr{ReqID: req, SeqStart: g + uint64(rng.Intn(int(span)+1)), SeqEnd: g + span + uint64(1+rng.Intn(2)), Boundary: true, Num: 2})
					}
					g += span + 1
					continue
				}
				k := 1 + rng.Intn(3)
				for r := 1; r <= k; r++ {
					req++
					a := Attr{ReqID: req, SeqStart: g, SeqEnd: g}
					if r == k && rng.Intn(10) != 0 {
						a.Boundary, a.Num = true, uint16(k)
					}
					if rng.Intn(4) != 0 {
						put(a)
						continue
					}
					a.Split, a.SplitCnt = true, uint16(2+rng.Intn(2))
					for a.SplitIdx = 0; a.SplitIdx < a.SplitCnt; a.SplitIdx++ {
						put(a)
					}
				}
				g++
			}
		}
	}
	for s := range views {
		if rng.Intn(6) == 0 {
			views[s].Entries = append(views[s].Entries, Entry{Attr: EpochMarkAttr(0, 0, 1+rng.Intn(3), s), Persist: true})
		}
		rng.Shuffle(len(views[s].Entries), func(i, j int) {
			views[s].Entries[i], views[s].Entries[j] = views[s].Entries[j], views[s].Entries[i]
		})
	}
	if rng.Intn(8) == 0 {
		// A peer-repaired member's peer is scanned on its behalf as well.
		views = append(views, views[rng.Intn(len(views))])
	}
	return views
}

// The sorted sweep decides exactly what the map model does: over seeded
// random view sets, whole reports are equal — every prefix, MaxSeen and
// Discard and IPU list, entry for entry and in order.
func TestAnalyzeMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	var streams, jumps, rolledBack, ipu, deduped int
	for run := 0; run < 100_000; run++ {
		views := randomViews(rng)
		got, want := Analyze(views), analyzeMaps(views)
		if !reflect.DeepEqual(got, want) {
			for _, sr := range want.Streams {
				if g := got.Stream(sr.Initiator, sr.Stream); !reflect.DeepEqual(g, sr) {
					t.Errorf("stream %d.%d: got %+v", sr.Initiator, sr.Stream, g)
					t.Errorf("stream %d.%d: model %+v", sr.Initiator, sr.Stream, sr)
				}
			}
			t.Fatalf("run %d: reports differ (%d streams, model %d); views %+v", run, len(got.Streams), len(want.Streams), views)
		}
		beyond := 0
		for _, v := range views {
			for _, e := range v.Entries {
				sr := got.Stream(e.Initiator, e.Stream)
				if !e.EpochMark && e.SeqEnd > sr.DurablePrefix {
					beyond++
				}
				if !e.EpochMark && e.Merged() && e.SeqEnd == sr.DurablePrefix {
					jumps++
				}
			}
		}
		for _, sr := range got.Streams {
			streams++
			rolledBack += len(sr.Discard)
			ipu += len(sr.IPU)
			beyond -= len(sr.Discard) + len(sr.IPU)
		}
		deduped += beyond
	}
	for name, n := range map[string]int{
		"streams": streams, "prefixes ending on a merged range": jumps, "entries rolled back": rolledBack,
		"IPU entries handed up": ipu, "copies listed once": deduped,
	} {
		if n < 1000 {
			t.Errorf("only %d %s: the view sets no longer cover that case", n, name)
		}
	}
}

// fuzzViews reads a FuzzAnalyze input. Byte 0 picks 1–3 views and the PLP
// of each view's first two namespaces. Every following 64-byte chunk is one
// entry in the PMR encoding, its magic and checksum rewritten so that every
// field reaches Analyze; the chunk's pad byte 56 picks its view.
func fuzzViews(data []byte) []ServerView {
	if len(data) == 0 {
		return nil
	}
	hdr := data[0]
	views := make([]ServerView, 1+int(hdr&3)%3)
	for k := range views {
		plp := []bool{hdr>>(2+2*k)&1 != 0, hdr>>(3+2*k)&1 != 0}
		views[k] = ServerView{Server: k, NSPLP: plp, PLP: plp[0]}
	}
	for rest := data[1:]; len(rest) >= EntrySize; rest = rest[EntrySize:] {
		var buf [EntrySize]byte
		copy(buf[:], rest)
		binary.LittleEndian.PutUint16(buf[0:], entryMagic)
		binary.LittleEndian.PutUint32(buf[60:], checksum(buf[:60]))
		e, _ := decodeEntry(buf[:])
		v := &views[int(buf[56])%len(views)]
		v.Entries = append(v.Entries, e)
	}
	return views
}

// modelable reports whether analyzeMaps can take views, and whether they
// are the kind of input a real scan yields, on which the sweep and the
// model are defined alike: every merged span at most 64 groups; per
// (initiator, stream, request) one group and one split shape; one LBA per
// copy of a fragment.
func modelable(views []ServerView) bool {
	type reqKey struct {
		init, stream uint16
		req          uint32
	}
	type copyKey struct {
		reqKey
		frag   uint16
		server int
	}
	reqs, lbas := map[reqKey]Attr{}, map[copyKey]uint64{}
	for _, v := range views {
		for _, e := range v.Entries {
			if e.EpochMark {
				continue
			}
			if e.SeqEnd == math.MaxUint64 || e.Merged() && e.SeqEnd-e.SeqStart > 64 {
				return false
			}
			r := reqKey{e.Initiator, e.Stream, e.ReqID}
			if a, ok := reqs[r]; ok && (a.SeqStart != e.SeqStart || a.Split != e.Split || a.SplitCnt != e.SplitCnt) {
				return false
			}
			reqs[r] = e.Attr
			c := copyKey{r, e.SplitIdx, v.Server}
			if l, ok := lbas[c]; ok && l != e.LBA {
				return false
			}
			lbas[c] = e.LBA
		}
	}
	return true
}

// FuzzAnalyze feeds Analyze arbitrary checksum-valid entries: it never
// panics or hangs, everything it lists lies beyond the prefix, IPU entries
// are never rolled back, and on input the map model can take the report is
// the model's.
func FuzzAnalyze(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		views := fuzzViews(data)
		rep := Analyze(views)
		for _, sr := range rep.Streams {
			for _, e := range sr.Discard {
				if e.SeqEnd <= sr.DurablePrefix || e.IPU {
					t.Fatalf("stream %d.%d prefix %d: discard lists %+v", sr.Initiator, sr.Stream, sr.DurablePrefix, e)
				}
			}
			for _, e := range sr.IPU {
				if e.SeqEnd <= sr.DurablePrefix || !e.IPU {
					t.Fatalf("stream %d.%d prefix %d: IPU lists %+v", sr.Initiator, sr.Stream, sr.DurablePrefix, e)
				}
			}
		}
		if modelable(views) {
			if want := analyzeMaps(views); !reflect.DeepEqual(rep, want) {
				t.Fatalf("report differs from the map model's\nviews %+v", views)
			}
		}
	})
}
