// Package trace is the stage-level request tracing subsystem: a sampled
// request carries a Span through the whole data plane (block layer,
// dispatch, fabric, target ordering gate, SSD, completion path), and every
// instrumentation point records a virtual-time milestone into it. The
// twelve milestones partition a request's life into eleven gap-free stages
// that sum exactly to its end-to-end latency, so the per-stage histograms
// are a latency *budget*, not a collection of overlapping timers.
// Overlapping sub-stage waits (submit-gate, TX stall, gate park, PMR
// persist, saturation inflation, CQE hold, quorum, relay aggregation) are
// accumulated separately as attribution detail.
//
// Tracing is sampling (1-in-N per (initiator, stream) shard, counter
// based — no RNG draws) and records host memory only: it never sleeps,
// never allocates on the simulated hot path once slabs are warm, and
// never perturbs the discrete-event schedule, so a run with tracing
// enabled is event-for-event identical to the same seed with tracing
// off. Spans live in per-shard slabs recycled through free lists; a
// generation sequence number guards every recorded event so a stale
// pointer held across a crash epoch can never touch a recycled span.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// Milestone is one instant in a request's life. Milestones are recorded
// with record-max semantics: under replication every member's capsule
// stamps the same milestone and the slowest pre-quorum member — the
// critical path — wins.
type Milestone int

const (
	MSubmit     Milestone = iota // block layer accepted the request
	MStaged                      // plugged into the shard's dispatch queue
	MDispatched                  // a dispatch picked the request up
	MSent                        // submission capsule posted to the fabric
	MRelayed                     // relay hop done (head fan-out; direct capsules stamp delivery, zero-width stage)
	MRxDeliver                   // capsule delivered at the target
	MSSDSubmit                   // command submitted to the SSD
	MSSDDone                     // device completion
	MCplSent                     // completion capsule posted back
	MCplDeliver                  // completion delivered at the initiator
	MCompleted                   // request completed (quorum accounted)
	MDeliver                     // in-order delivery to the application
	NumMilestones
)

var milestoneNames = [NumMilestones]string{
	"submit", "staged", "dispatched", "sent", "relayed", "rxdeliver",
	"ssdsubmit", "ssddone", "cplsent", "cpldeliver", "completed", "deliver",
}

func (m Milestone) String() string {
	if m < 0 || m >= NumMilestones {
		return fmt.Sprintf("milestone(%d)", int(m))
	}
	return milestoneNames[m]
}

// NumStages is the number of gap-free intervals between consecutive
// milestones. Stage i covers [milestone i, milestone i+1).
const NumStages = int(NumMilestones) - 1

// stageNames label the budget stages; see DESIGN.md §13 for the taxonomy.
var stageNames = [NumStages]string{
	"submit",   // block-layer submission work + submit-gate wait
	"plug",     // plug residency until a dispatch takes it
	"dispatch", // merge, encode, doorbell batching
	"wire",     // fabric transit of the submission capsule (to the head under relay)
	"relay",    // head-to-follower relay hop (zero-width on the direct path)
	"target",   // target rx queue, recv CPU, ordering gate, PMR persist
	"ssd",      // device service incl. saturation inflation
	"tcpl",     // target completion handling + CQE coalesce hold
	"cplwire",  // fabric transit of the completion capsule
	"reap",     // initiator reap + quorum accounting
	"odeliver", // in-order completion delivery
}

// StageName returns the label of stage i.
func StageName(i int) string { return stageNames[i] }

// Wait indexes the overlapping sub-stage waits. Unlike stages they do not
// partition the request's life: a wait overlaps the stage it occurs in
// and attributes *why* that stage was long.
type Wait int

const (
	WaitGate   Wait = iota // submit gate (MaxInflight backpressure)
	WaitTx                 // fabric TX-window stalls
	WaitPark               // ordering-gate park at the target
	WaitPMR                // PMR append (log space + persist latency)
	WaitSat                // SSD saturation inflation past the knee
	WaitCQE                // CQE coalesce hold before the response capsule
	WaitQuorum             // first member ack to quorum fire
	WaitAgg                // head-side aggregation wait (first follower ack to quorum, relay path)
	NumWaits
)

var waitNames = [NumWaits]string{
	"gatewait", "txwait", "gatepark", "pmr", "satwait", "cqehold", "quorum",
	"aggwait",
}

// WaitName returns the label of wait w.
func WaitName(w Wait) string { return waitNames[w] }

const unset = sim.Time(-1)

// Span records the milestones and waits of one sampled request. Spans are
// slab-allocated and recycled; every accessor takes the generation seq
// the owner captured at Start, so events arriving from a stale pointer
// (a capsule that outlived a crash epoch, a straggler replica ack) are
// ignored instead of corrupting the span's next life.
type Span struct {
	ID     uint64
	Init   int
	Stream int
	LBA    uint64
	Blocks uint32

	seq     uint64
	ms      [NumMilestones]sim.Time
	waits   [NumWaits]sim.Time
	open    bool
	openIdx int
	slab    *Slab
}

// Seq returns the current generation; Start's caller stores it next to
// the span pointer and passes it back on every Mark/AddWait.
func (s *Span) Seq() uint64 { return s.seq }

// Mark records milestone m at virtual time `at` (record-max: a later
// stamp for the same milestone wins — the replication critical path).
func (s *Span) Mark(seq uint64, m Milestone, at sim.Time) {
	if !s.open || s.seq != seq {
		return
	}
	if at > s.ms[m] {
		s.ms[m] = at
	}
}

// AddWait accumulates d into wait w.
func (s *Span) AddWait(seq uint64, w Wait, d sim.Time) {
	if !s.open || s.seq != seq || d <= 0 {
		return
	}
	s.waits[w] += d
}

const slabChunk = 64

// Slab is a per-shard span allocator: spans come from chunked backing
// arrays and recycle through a free list, so steady-state tracing
// allocates nothing per request — the same free-list discipline as the
// shard's wire-state pools.
type Slab struct {
	t    *Tracer
	free []*Span
}

func (sl *Slab) get() *Span {
	if n := len(sl.free); n > 0 {
		s := sl.free[n-1]
		sl.free = sl.free[:n-1]
		return s
	}
	chunk := make([]Span, slabChunk)
	for i := 1; i < slabChunk; i++ {
		sl.free = append(sl.free, &chunk[i])
	}
	return &chunk[0]
}

func (sl *Slab) put(s *Span) { sl.free = append(sl.free, s) }

// SpanRecord is an immutable copy of a closed span, retained in the
// tracer's bounded ring for export and budget computation.
type SpanRecord struct {
	ID     uint64
	Init   int
	Stream int
	LBA    uint64
	Blocks uint32

	MS    [NumMilestones]sim.Time
	Waits [NumWaits]sim.Time

	Dropped   bool
	DropStage Milestone // last milestone reached when dropped
}

// E2E returns the end-to-end latency (submit to in-order delivery); 0
// for dropped spans.
func (r SpanRecord) E2E() sim.Time {
	if r.Dropped {
		return 0
	}
	return r.MS[MDeliver] - r.MS[MSubmit]
}

// StageDur returns the duration of stage i.
func (r SpanRecord) StageDur(i int) sim.Time { return r.MS[i+1] - r.MS[i] }

// Config enables tracing. The zero value is off: no tracer is built and
// the stack's hot path carries only nil checks.
type Config struct {
	// SampleEvery traces 1 in N requests per (initiator, stream) shard,
	// counter-based (no RNG). 0 disables tracing entirely.
	SampleEvery int
	// Keep bounds the ring of retained closed spans (export and p99
	// budget cohort). 0 selects 4096.
	Keep int
}

// Enabled reports whether this config builds a tracer.
func (c Config) Enabled() bool { return c.SampleEvery > 0 }

// Tracer aggregates spans: per-stage and per-wait histograms, drop
// accounting, the per-initiator open-span lists (crash teardown), and the
// retained ring.
type Tracer struct {
	cfg    Config
	nextID uint64

	sampled   int64
	finished  int64
	dropped   int64
	droppedAt [NumMilestones]int64

	e2e       metrics.Histogram
	stages    [NumStages]metrics.Histogram
	waits     [NumWaits]metrics.Histogram
	waitTotal [NumWaits]sim.Time

	open [][]*Span // per initiator, swap-remove via openIdx

	ring     []SpanRecord
	ringNext int
	ringFull bool
}

// New builds a tracer for a cluster with the given initiator count.
func New(cfg Config, initiators int) *Tracer {
	if cfg.Keep <= 0 {
		cfg.Keep = 4096
	}
	if initiators <= 0 {
		initiators = 1
	}
	return &Tracer{cfg: cfg, open: make([][]*Span, initiators)}
}

// SampleEvery returns the configured 1-in-N sampling rate.
func (t *Tracer) SampleEvery() int { return t.cfg.SampleEvery }

// NewSlab returns a fresh per-shard span slab.
func (t *Tracer) NewSlab() *Slab { return &Slab{t: t} }

// Start opens a span for one sampled request at its submit instant.
func (t *Tracer) Start(sl *Slab, init, stream int, lba uint64, blocks uint32, at sim.Time) *Span {
	s := sl.get()
	t.nextID++
	s.ID = t.nextID
	s.Init, s.Stream, s.LBA, s.Blocks = init, stream, lba, blocks
	s.slab = sl
	for i := range s.ms {
		s.ms[i] = unset
	}
	for i := range s.waits {
		s.waits[i] = 0
	}
	s.ms[MSubmit] = at
	s.open = true
	s.openIdx = len(t.open[init])
	t.open[init] = append(t.open[init], s)
	t.sampled++
	return s
}

// normalize makes the milestone array monotone and gap-free: unset or
// out-of-order milestones forward-fill from their predecessor (a stage a
// mode skips has zero width), then a backward clamp keeps the terminal
// milestone authoritative.
func (s *Span) normalize() {
	// Backward clamp set milestones against later set ones first — the
	// terminal (delivery) instant is authoritative — then forward-fill so
	// unset milestones become zero-width stages.
	right := s.ms[NumMilestones-1]
	for i := int(NumMilestones) - 2; i >= 0; i-- {
		if s.ms[i] == unset {
			continue
		}
		if s.ms[i] > right {
			s.ms[i] = right
		} else {
			right = s.ms[i]
		}
	}
	for i := 1; i < int(NumMilestones); i++ {
		if s.ms[i] < s.ms[i-1] {
			s.ms[i] = s.ms[i-1]
		}
	}
}

// Finish closes a span at in-order delivery: its stage durations and
// waits feed the histograms, a copy lands in the retained ring, and the
// span recycles into its slab.
func (t *Tracer) Finish(s *Span, seq uint64) {
	if !s.open || s.seq != seq {
		return
	}
	s.normalize()
	t.finished++
	t.e2e.Record(s.ms[MDeliver] - s.ms[MSubmit])
	for i := 0; i < NumStages; i++ {
		t.stages[i].Record(s.ms[i+1] - s.ms[i])
	}
	for w := 0; w < int(NumWaits); w++ {
		if s.waits[w] > 0 {
			t.waits[w].Record(s.waits[w])
		}
		t.waitTotal[w] += s.waits[w]
	}
	t.retain(s, false)
	t.recycle(s)
}

// Drop closes a span whose request died with its initiator's volatile
// state: a terminal dropped@stage event instead of a dangling open span.
func (t *Tracer) Drop(s *Span, seq uint64) {
	if !s.open || s.seq != seq {
		return
	}
	t.dropped++
	t.droppedAt[s.lastMilestone()]++
	t.retain(s, true)
	t.recycle(s)
}

func (s *Span) lastMilestone() Milestone {
	last := MSubmit
	for i := 0; i < int(NumMilestones); i++ {
		if s.ms[i] != unset {
			last = Milestone(i)
		}
	}
	return last
}

// DropOpen closes every open span of one initiator — the crash hook:
// power-cutting an initiator abandons its in-flight requests, and their
// spans must terminate, not dangle.
func (t *Tracer) DropOpen(init int) {
	for len(t.open[init]) > 0 {
		t.Drop(t.open[init][len(t.open[init])-1], t.open[init][len(t.open[init])-1].seq)
	}
}

func (t *Tracer) retain(s *Span, dropped bool) {
	rec := SpanRecord{
		ID: s.ID, Init: s.Init, Stream: s.Stream, LBA: s.LBA, Blocks: s.Blocks,
		MS: s.ms, Waits: s.waits, Dropped: dropped,
	}
	if dropped {
		rec.DropStage = s.lastMilestone()
	}
	if len(t.ring) < t.cfg.Keep {
		t.ring = append(t.ring, rec)
		return
	}
	t.ring[t.ringNext] = rec
	t.ringNext = (t.ringNext + 1) % t.cfg.Keep
	t.ringFull = true
}

func (t *Tracer) recycle(s *Span) {
	lst := t.open[s.Init]
	last := len(lst) - 1
	moved := lst[last]
	lst[s.openIdx] = moved
	moved.openIdx = s.openIdx
	t.open[s.Init] = lst[:last]
	s.open = false
	s.seq++
	s.slab.put(s)
}

// OpenCount returns the number of spans still open across all
// initiators. Crash audits assert 0 after every request resolved.
func (t *Tracer) OpenCount() int {
	n := 0
	for _, lst := range t.open {
		n += len(lst)
	}
	return n
}

// Retained returns the ring of closed spans, oldest first.
func (t *Tracer) Retained() []SpanRecord {
	if !t.ringFull {
		return append([]SpanRecord(nil), t.ring...)
	}
	out := make([]SpanRecord, 0, len(t.ring))
	out = append(out, t.ring[t.ringNext:]...)
	out = append(out, t.ring[:t.ringNext]...)
	return out
}

// Stats is the aggregated view: counts, the end-to-end and per-stage
// histograms, and the wait attribution. It is a value (histograms are
// arrays), so snapshots and merges need no locking.
type Stats struct {
	Sampled, Finished, Dropped int64
	Open                       int
	DroppedAt                  [NumMilestones]int64

	E2E       metrics.Histogram
	Stages    [NumStages]metrics.Histogram
	Waits     [NumWaits]metrics.Histogram
	WaitTotal [NumWaits]sim.Time
}

// Stats snapshots the tracer.
func (t *Tracer) Stats() Stats {
	s := Stats{
		Sampled: t.sampled, Finished: t.finished, Dropped: t.dropped,
		Open: t.OpenCount(), DroppedAt: t.droppedAt,
		E2E: t.e2e, Stages: t.stages, Waits: t.waits, WaitTotal: t.waitTotal,
	}
	return s
}

// Merge folds o into s (aggregation across experiment points).
func (s *Stats) Merge(o *Stats) {
	s.Sampled += o.Sampled
	s.Finished += o.Finished
	s.Dropped += o.Dropped
	s.Open += o.Open
	for i := range s.DroppedAt {
		s.DroppedAt[i] += o.DroppedAt[i]
	}
	s.E2E.Merge(&o.E2E)
	for i := range s.Stages {
		s.Stages[i].Merge(&o.Stages[i])
	}
	for i := range s.Waits {
		s.Waits[i].Merge(&o.Waits[i])
		s.WaitTotal[i] += o.WaitTotal[i]
	}
}

// WaitMeanPerOp returns the mean wait w per finished sampled request
// (zero-wait requests included) in nanoseconds — the satload governor
// attribution number.
func (s *Stats) WaitMeanPerOp(w Wait) float64 {
	if s.Finished == 0 {
		return 0
	}
	return float64(s.WaitTotal[w]) / float64(s.Finished)
}

// Table renders the stage budget and wait attribution as an aligned text
// table (the riobench -trace output).
func (s *Stats) Table(title string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (sampled %d, finished %d, dropped %d, open %d)\n",
		title, s.Sampled, s.Finished, s.Dropped, s.Open)
	fmt.Fprintf(&b, "%-10s%10s%12s%12s%12s%8s\n", "stage", "count", "p50(us)", "p99(us)", "mean(us)", "share")
	var meanSum float64
	for i := range s.Stages {
		meanSum += float64(s.Stages[i].Mean())
	}
	for i := range s.Stages {
		h := &s.Stages[i]
		share := 0.0
		if meanSum > 0 {
			share = 100 * float64(h.Mean()) / meanSum
		}
		fmt.Fprintf(&b, "%-10s%10d%12.2f%12.2f%12.2f%7.1f%%\n", stageNames[i], h.Count(),
			us(h.P50()), us(h.P99()), us(h.Mean()), share)
	}
	fmt.Fprintf(&b, "%-10s%10d%12.2f%12.2f%12.2f%8s\n", "e2e", s.E2E.Count(),
		us(s.E2E.P50()), us(s.E2E.P99()), us(s.E2E.Mean()), "")
	fmt.Fprintf(&b, "%-10s%10s%12s%12s%12s\n", "wait", "count", "p50(us)", "p99(us)", "mean/op(us)")
	for w := 0; w < int(NumWaits); w++ {
		h := &s.Waits[w]
		fmt.Fprintf(&b, "%-10s%10d%12.2f%12.2f%12.2f\n", waitNames[w], h.Count(),
			us(h.P50()), us(h.P99()), s.WaitMeanPerOp(Wait(w))/1e3)
	}
	for m, n := range s.DroppedAt {
		if n > 0 {
			fmt.Fprintf(&b, "dropped@%s: %d\n", Milestone(m), n)
		}
	}
	return b.String()
}

func us(t sim.Time) float64 { return float64(t) / 1e3 }

// Budget is the p99 latency decomposition computed from the retained
// ring: the mean stage durations of the cohort of requests whose
// end-to-end latency sits at the 99th percentile. Because every span's
// stages sum exactly to its end-to-end latency, the cohort's stage means
// sum to the cohort's mean latency ≈ the measured p99 — the budget is a
// decomposition of the tail, not a sum of unrelated per-stage tails.
type Budget struct {
	N      int                 // cohort size
	P99    sim.Time            // exact ring p99 (cohort anchor)
	Stages [NumStages]sim.Time // cohort mean duration per stage
}

// Sum returns the total of the stage budget.
func (b Budget) Sum() sim.Time {
	var s sim.Time
	for _, d := range b.Stages {
		s += d
	}
	return s
}

// Ratio returns Sum/P99 — the acceptance gate checks it stays in
// [0.9, 1.1].
func (b Budget) Ratio() float64 {
	if b.P99 <= 0 {
		return 0
	}
	return float64(b.Sum()) / float64(b.P99)
}

// cohortHalf bounds the p99 cohort to rank±cohortHalf retained spans; a
// short ring narrows it to the spans on both sides of the rank.
const cohortHalf = 8

// BudgetP99 computes the p99 stage budget over retained records
// (dropped spans excluded).
func BudgetP99(recs []SpanRecord) Budget {
	live := make([]SpanRecord, 0, len(recs))
	for _, r := range recs {
		if !r.Dropped {
			live = append(live, r)
		}
	}
	var b Budget
	if len(live) == 0 {
		return b
	}
	sort.Slice(live, func(i, j int) bool { return live[i].E2E() < live[j].E2E() })
	rank := int(0.99*float64(len(live))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(live) {
		rank = len(live) - 1
	}
	// The cohort is centred on the rank: clipping only one side would
	// weight it toward the spans below (or above) the p99.
	h := min(cohortHalf, rank, len(live)-1-rank)
	b.P99 = live[rank].E2E()
	for _, r := range live[rank-h : rank+h+1] {
		b.N++
		for i := 0; i < NumStages; i++ {
			b.Stages[i] += r.StageDur(i)
		}
	}
	n := sim.Time(b.N)
	for i := range b.Stages {
		b.Stages[i] /= n
	}
	return b
}
