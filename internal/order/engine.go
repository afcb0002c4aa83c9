package order

import "repro/internal/core"

// SlotRef names one PMR slot together with the initiator partition it
// lives in and that initiator's epoch when the slot was recorded
// (Horae's unflushed lists mix initiators per SSD, and a captured ref
// may sit behind a device FLUSH while its owner crash-recovers — the
// epoch check keeps a stale ref from touching a freshly formatted log).
type SlotRef struct {
	Init  int
	Slot  uint64
	Epoch int
}

// Engine is one target server's ordering state: a dense table of
// Domains — one per (initiator, stream), both known at connect time —
// plus the per-SSD unflushed slot lists Horae-style flush certification
// maintains. Indexing is init*streams+stream: the per-command hot path
// does one multiply-add instead of hashing a composite map key.
type Engine[P any] struct {
	pol     Policy
	inits   int
	streams int
	domains []Domain[P]
	unflush [][]SlotRef // per SSD: completed-but-unflushed slots (non-PLP)
}

// NewEngine sizes the dense tables for a target serving `inits`
// initiators with `streams` ordering streams each and `ssds` devices.
// parkedCap pre-sizes each domain's parked ring (a dispatch batch is the
// natural unit of out-of-order arrival).
func NewEngine[P any](pol Policy, inits, streams, ssds, parkedCap int) *Engine[P] {
	if inits <= 0 || streams <= 0 {
		panic("order: engine needs at least one initiator and one stream")
	}
	if parkedCap < 1 {
		parkedCap = 1
	}
	e := &Engine[P]{
		pol:     pol,
		inits:   inits,
		streams: streams,
		domains: make([]Domain[P], inits*streams),
		unflush: make([][]SlotRef, ssds),
	}
	for i := range e.domains {
		e.domains[i].initDomain(parkedCap)
	}
	return e
}

// Policy returns the stack policy this engine runs under.
func (e *Engine[P]) Policy() Policy { return e.pol }

// Initiators returns the engine's initiator-table width.
func (e *Engine[P]) Initiators() int { return e.inits }

// Streams returns the per-initiator stream count.
func (e *Engine[P]) Streams() int { return e.streams }

// Domain returns the (initiator, stream) ordering domain. Stream ids are
// scoped per initiator, so the pair is the domain identity.
func (e *Engine[P]) Domain(init int, stream uint16) *Domain[P] {
	return &e.domains[init*e.streams+int(stream)]
}

// RetiredTo returns one domain's retire watermark.
func (e *Engine[P]) RetiredTo(init int, stream uint16) uint64 {
	return e.Domain(init, stream).RetiredTo()
}

// Audit verifies the dense-ServerIdx-chain invariant of every domain's
// in-order gate (see Domain.AuditParked) and returns the total number of
// violations — 0 on a healthy target.
func (e *Engine[P]) Audit() int {
	bad := 0
	for i := range e.domains {
		bad += e.domains[i].AuditParked()
	}
	return bad
}

// ResetInitiator restores ONE initiator's domains and drops its
// unflushed refs, leaving every other initiator's state untouched
// (post-recovery format of that initiator's partition).
func (e *Engine[P]) ResetInitiator(init int) {
	for s := 0; s < e.streams; s++ {
		e.domains[init*e.streams+s].Reset()
	}
	for ssd, refs := range e.unflush {
		kept := refs[:0]
		for _, r := range refs {
			if r.Init != init {
				kept = append(kept, r)
			}
		}
		e.unflush[ssd] = kept
	}
}

// AddUnflushed records a completed-but-unflushed slot on a device; a
// later device FLUSH certifies it (CertifyPeers policies).
func (e *Engine[P]) AddUnflushed(ssd int, r SlotRef) {
	e.unflush[ssd] = append(e.unflush[ssd], r)
}

// TakeUnflushed detaches and returns a device's unflushed refs (the
// FLUSH about to complete certifies them all).
func (e *Engine[P]) TakeUnflushed(ssd int) []SlotRef {
	refs := e.unflush[ssd]
	e.unflush[ssd] = nil
	return refs
}

// AppendEpochMark persists one replica-set membership mark into a PMR
// log partition: appended, immediately persisted and immediately retired
// — a mark is evidence of a degraded window, not ordering state, and
// must never hold the circular log's head back. Returns false when the
// log had no free slot (the mark is then simply not recorded; marks are
// advisory evidence).
func AppendEpochMark(l *core.Log, a core.Attr) bool {
	slot, ok := l.Append(a)
	if !ok {
		return false
	}
	l.MarkPersist(slot)
	l.Retire(slot)
	return true
}

// ScanPartition decodes one PMR region into a recovery view: the
// persisted ordering attributes are the evidence the §4.4 analysis (and
// replica resync) replays a domain's history from.
func ScanPartition(server int, plp bool, region []byte) core.ServerView {
	return core.ServerView{Server: server, PLP: plp, Entries: core.ScanRegion(region)}
}

// MergeViews merges every server's scanned view into the global
// recovery report — per-(initiator, stream) durable prefixes and
// discard sets (the §4.4.1 merge step).
func MergeViews(views []core.ServerView) *core.Report {
	return core.Analyze(views)
}

// Majority returns the write quorum for replica factor r under the
// majority rule (floor(r/2)+1).
func Majority(r int) int { return core.MajorityQuorum(r) }
