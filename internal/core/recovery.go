package core

import (
	"cmp"
	"slices"
)

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
// callers rely on the in-order-append invariant for that. Both lists keep
// scan order and share one array of exactly their joint size.
func DurableSet(v ServerView) (durable, uncertain []Entry) {
	// Per (initiator, stream), the highest persisted FLUSH ServerIdx on a
	// non-PLP device. ServerIdx chains are per-initiator, so a FLUSH of
	// one initiator certifies only entries of its own chain.
	flushIdx := map[StreamKey]uint64{}
	n := 0
	for _, e := range v.Entries {
		k := StreamKey{e.Initiator, e.Stream}
		if e.Flush && e.Persist && !v.plp(e) && e.ServerIdx > flushIdx[k] {
			flushIdx[k] = e.ServerIdx
		}
		if !e.EpochMark {
			n++
		}
	}
	// Durable entries fill the array from the front, uncertain ones from
	// the back; the back is then reversed into scan order.
	out := make([]Entry, n)
	d, u := 0, n
	for _, e := range v.Entries {
		// Replication membership marks are not write evidence: they record
		// a replica set's degraded windows, never data durability.
		if e.EpochMark {
			continue
		}
		k := StreamKey{e.Initiator, e.Stream}
		if e.Persist || (!v.plp(e) && flushIdx[k] > 0 && e.ServerIdx <= flushIdx[k]) {
			out[d] = e
			d++
		} else {
			u--
			out[u] = e
		}
	}
	slices.Reverse(out[d:])
	return out[:d:d], out[d:]
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
// independently: Streams holds one report per (initiator, stream) with
// evidence, sorted by that pair.
type Report struct {
	Streams []*StreamReport
}

// Prefix returns the durable prefix for a stream of initiator 0 (the
// single-initiator case; 0 if unknown stream).
func (r *Report) Prefix(stream uint16) uint64 {
	return r.PrefixFor(0, stream)
}

// PrefixFor returns the durable prefix for one initiator's stream (0 if
// unknown).
func (r *Report) PrefixFor(initiator, stream uint16) uint64 {
	if sr := r.Stream(initiator, stream); sr != nil {
		return sr.DurablePrefix
	}
	return 0
}

// Stream returns the report for one initiator's stream (nil if unknown).
func (r *Report) Stream(initiator, stream uint16) *StreamReport {
	i, ok := slices.BinarySearchFunc(r.Streams, StreamKey{initiator, stream}, func(sr *StreamReport, k StreamKey) int {
		return cmp.Or(cmp.Compare(sr.Initiator, k.Initiator), cmp.Compare(sr.Stream, k.Stream))
	})
	if !ok {
		return nil
	}
	return r.Streams[i]
}

// noted is one scanned entry, its Server filled in, tagged with
// DurableSet's verdict on it.
type noted struct {
	Entry
	durable bool
}

// Analyze merges all server views into the global ordering decision
// (initiator recovery, §4.4.1). Every entry but the membership marks goes
// into one slice, sorted by (initiator, stream, group, request, fragment,
// server, LBA); each stream is then one run of it, decided by
// analyzeStream. The sort is stable, so a server scanned twice (a
// peer-repaired member's peer) keeps its first-scanned copy. A stream's
// groups below its lowest present one are taken as retired, hence durable.
// The cost is one sort of the entries, whatever span of groups they cover.
func Analyze(views []ServerView) *Report {
	n := 0
	for _, v := range views {
		n += len(v.Entries)
	}
	all := make([]noted, 0, n)
	for _, v := range views {
		durable, uncertain := DurableSet(v)
		for _, e := range durable {
			e.Server = v.Server
			all = append(all, noted{e, true})
		}
		for _, e := range uncertain {
			e.Server = v.Server
			all = append(all, noted{e, false})
		}
	}
	slices.SortStableFunc(all, compareNoted)

	rep := &Report{}
	for len(all) > 0 {
		n := 1
		for n < len(all) && all[n].Initiator == all[0].Initiator && all[n].Stream == all[0].Stream {
			n++
		}
		rep.Streams = append(rep.Streams, analyzeStream(all[:n]))
		all = all[n:]
	}
	return rep
}

// compareNoted orders entries so that a stream is one run, a group one run
// within it and a request one run within its group.
func compareNoted(a, b noted) int {
	return cmp.Or(cmp.Compare(a.Initiator, b.Initiator), cmp.Compare(a.Stream, b.Stream),
		cmp.Compare(a.SeqStart, b.SeqStart), cmp.Compare(a.ReqID, b.ReqID),
		cmp.Compare(a.SplitIdx, b.SplitIdx), cmp.Compare(a.Server, b.Server), cmp.Compare(a.LBA, b.LBA))
}

// analyzeStream decides one stream from its run of the sorted entries: the
// durable prefix, then the entries beyond it.
func analyzeStream(es []noted) *StreamReport {
	sr := &StreamReport{Initiator: es[0].Initiator, Stream: es[0].Stream}
	// Groups below the minimum present seq were retired after in-order
	// completion: they are durable by construction.
	prefix := max(es[0].SeqStart, 1) - 1
	// The highest group that any merged entry, and any durable merged
	// entry, absorbed so far covers.
	var mergedTo, durableTo uint64
	// g wraps to 0 only past a prefix of the largest group: the walk ends.
	for i, g := 0, prefix+1; g > prefix; g = prefix + 1 {
		// Absorb every entry that starts at or before g; es[lo:i] is then
		// group g's own.
		lo := i
		for ; i < len(es) && es[i].SeqStart <= g; i++ {
			if es[i].SeqStart < g {
				lo = i + 1
			}
			if es[i].Merged() {
				mergedTo = max(mergedTo, es[i].SeqEnd)
				if es[i].durable {
					durableTo = max(durableTo, es[i].SeqEnd)
				}
			}
		}
		if mergedTo >= g {
			// Merged entries are atomic: one persist bit speaks for the
			// whole range (§4.8), so a durable one decides every group it
			// covers at once.
			if durableTo < g {
				break
			}
			prefix = durableTo
		} else if groupDurable(es[lo:i]) {
			prefix = g
		} else {
			break
		}
	}
	sr.DurablePrefix = prefix

	// Classify entries beyond the prefix, each copy once. The server is
	// part of a copy's identity: under replication the same logical write
	// has one PMR entry per replica, and roll-back must erase EVERY
	// replica's copy (a stale block surviving on one member would diverge
	// the set).
	var last *noted
	for k := range es {
		e := &es[k]
		sr.MaxSeen = max(sr.MaxSeen, e.SeqEnd)
		if e.SeqEnd <= prefix {
			continue
		}
		if last != nil && e.ReqID == last.ReqID && e.SplitIdx == last.SplitIdx && e.Server == last.Server && e.LBA == last.LBA {
			continue
		}
		last = e
		if e.IPU {
			sr.IPU = append(sr.IPU, e.Entry)
		} else {
			sr.Discard = append(sr.Discard, e.Entry)
		}
	}
	return sr
}

// groupDurable decides a group no merged entry covers from its entries: the
// boundary request names how many requests the group has, and that many
// must be durable. A plain request is durable if any copy is; a split one
// when every fragment below its SplitCnt is.
func groupDurable(es []noted) bool {
	var num uint16 // the boundary's Num (0 = boundary unseen)
	durable := 0
	for i := 0; i < len(es); {
		req := es[i].ReqID
		var cnt, next int // fragments, and the lowest not yet durable
		plain := false
		for ; i < len(es) && es[i].ReqID == req; i++ {
			e := &es[i]
			if e.SeqEnd < e.SeqStart {
				continue // an empty range covers no group
			}
			if e.Boundary {
				num = max(num, e.Num)
			}
			if !e.Split {
				plain = plain || e.durable
				continue
			}
			cnt = int(e.SplitCnt)
			if e.durable && int(e.SplitIdx) == next {
				next++ // fragments come in SplitIdx order
			}
		}
		if cnt > 0 && next >= cnt || cnt == 0 && plain {
			durable++
		}
	}
	return num > 0 && durable >= int(num)
}
