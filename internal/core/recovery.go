package core

import "sort"

// ServerView is what one target server contributes to recovery: the result
// of scanning its PMR region(s), plus which of its SSDs had power-loss
// protection (which selects the §4.3.2 validity rule per entry).
type ServerView struct {
	Server int
	// NSPLP says, per namespace (Entry.NS: the SSD of the server holding
	// the entry's blocks), whether that device has PLP. A target may mix
	// device classes, so the rule is chosen per entry. PLP is the rule for
	// entries of a namespace NSPLP does not cover (a view built without the
	// table applies one rule to the whole server).
	NSPLP   []bool
	PLP     bool
	Entries []Entry
}

// plp reports whether the device holding e's blocks has power-loss
// protection.
func (v ServerView) plp(e Entry) bool {
	if int(e.NS) < len(v.NSPLP) {
		return v.NSPLP[e.NS]
	}
	return v.PLP
}

// DurableSet classifies a server's scanned entries into those whose data
// blocks are certainly durable and those whose durability is uncertain,
// per the §4.3.2 rules, chosen per entry by the device it landed on:
//
//   - PLP devices: an entry's blocks are durable iff its persist flag is
//     set (completion implies durability).
//   - Non-PLP devices: an entry's blocks are durable iff a FLUSH-carrying
//     entry with persist=1 and an equal-or-later ServerIdx exists in the
//     same stream on a non-PLP device (the FLUSH drained everything
//     submitted before it), or the entry's own persist flag is set (it
//     carried the FLUSH). A FLUSH-carrying entry on a PLP device certifies
//     nothing: its persist flag was set at completion, no device FLUSH
//     waited for the writes submitted before it.
//
// Entries absent from the log but below a stream's maximum present
// ServerIdx were retired (completed in order) and are implicitly durable;
// callers rely on the in-order-append invariant for that.
func DurableSet(v ServerView) (durable, uncertain []Entry) {
	// Per (initiator, stream), the highest persisted FLUSH ServerIdx on a
	// non-PLP device. ServerIdx chains are per-initiator, so a FLUSH of
	// one initiator certifies only entries of its own chain.
	flushIdx := map[StreamKey]uint64{}
	for _, e := range v.Entries {
		k := StreamKey{e.Initiator, e.Stream}
		if e.Flush && e.Persist && !v.plp(e) && e.ServerIdx > flushIdx[k] {
			flushIdx[k] = e.ServerIdx
		}
	}
	for _, e := range v.Entries {
		// Replication membership marks are not write evidence: they record
		// a replica set's degraded windows, never data durability.
		if e.EpochMark {
			continue
		}
		k := StreamKey{e.Initiator, e.Stream}
		if e.Persist || (!v.plp(e) && flushIdx[k] > 0 && e.ServerIdx <= flushIdx[k]) {
			durable = append(durable, e)
		} else {
			uncertain = append(uncertain, e)
		}
	}
	return durable, uncertain
}

// StreamKey identifies one ordering domain of a multi-initiator cluster:
// stream ids are scoped per initiator, so recovery analysis, reports and
// prefixes are all keyed by the pair.
type StreamKey struct {
	Initiator uint16
	Stream    uint16
}

// StreamReport is the per-(initiator, stream) outcome of global recovery
// analysis.
type StreamReport struct {
	Initiator uint16
	Stream    uint16

	// DurablePrefix is the largest k such that groups 1..k are all
	// durable: the valid post-crash state of §4.8 (prefix semantics).
	DurablePrefix uint64

	// MaxSeen is the largest group seq for which any evidence exists.
	MaxSeen uint64

	// Discard lists entries covering groups beyond the prefix whose
	// blocks must be erased for out-of-place updates (roll-back, §4.4.1).
	// It includes uncertain entries: their blocks may or may not be
	// durable, so they are erased either way.
	Discard []Entry

	// IPU lists in-place-update entries beyond the prefix. Rio does not
	// roll these back; the list is handed to the upper layer (§4.4.2).
	IPU []Entry
}

// Report is the global recovery decision built after collecting every
// server's view (§4.4). Each initiator's ordering domains are rebuilt
// independently: the map is keyed by (initiator, stream).
type Report struct {
	Streams map[StreamKey]*StreamReport
}

// Prefix returns the durable prefix for a stream of initiator 0 (the
// single-initiator case; 0 if unknown stream).
func (r *Report) Prefix(stream uint16) uint64 {
	return r.PrefixFor(0, stream)
}

// PrefixFor returns the durable prefix for one initiator's stream (0 if
// unknown).
func (r *Report) PrefixFor(initiator, stream uint16) uint64 {
	if sr := r.Streams[StreamKey{initiator, stream}]; sr != nil {
		return sr.DurablePrefix
	}
	return 0
}

// Stream returns the report for one initiator's stream (nil if unknown).
func (r *Report) Stream(initiator, stream uint16) *StreamReport {
	return r.Streams[StreamKey{initiator, stream}]
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

// Analyze merges all server views into the global ordering decision
// (initiator recovery, §4.4.1). The retiredFloor map gives, per stream,
// the highest group seq known completed before the crash from entries
// already recycled out of the logs; pass nil when unknown (the analysis
// then derives floors from the minimum present seq).
func Analyze(views []ServerView) *Report {
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

	rep := &Report{Streams: map[StreamKey]*StreamReport{}}
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
			if ev == nil || !groupDurable(ev) {
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
		rep.Streams[id] = sr
	}
	return rep
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

// groupDurable decides whether every request of a group is durable.
func groupDurable(ev *evidence) bool {
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
