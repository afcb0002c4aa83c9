// Package rio is the public API of the Rio reproduction: an
// order-preserving networked block device (and file system) in the spirit
// of the paper's programming model (§4.6) — rio_setup, rio_submit,
// rio_wait — running on a deterministic simulation of the full NVMe-oF
// stack (initiator, RDMA fabric, targets, SSDs with PMR).
//
// A minimal session:
//
//	c := rio.NewCluster(rio.Options{})            // rio_setup
//	c.Go(func(ctx *rio.Ctx) {
//	    s := ctx.Stream(0)
//	    s.Write(10, 2)                            // rio_submit (group open)
//	    h := s.Commit(12, 1)                      // boundary + FLUSH
//	    h.Wait()                                  // rio_wait
//	})
//	c.Run()
//
// Crash behavior is first-class: PowerCut drops volatile state everywhere,
// Recover runs the paper's §4.4 algorithm, and the Report's durable prefix
// tells you exactly which groups survived.
package rio

import (
	"fmt"
	"strings"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kv"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
	"repro/internal/trace"
)

// DeviceClass selects an SSD personality.
type DeviceClass int

const (
	// Flash is a consumer NVMe SSD with a volatile write cache and an
	// expensive device-wide FLUSH (no power-loss protection).
	Flash DeviceClass = iota
	// Optane is a PLP low-latency SSD: writes are durable on completion.
	Optane
)

// Ordering selects the storage-order machinery of the stack.
type Ordering int

const (
	// Rio is the paper's design (default): asynchronous ordered writes
	// with ordering attributes, in-order submission/completion and PMR
	// recovery.
	Rio Ordering = iota
	// Horae is the baseline with a synchronous control path.
	Horae
	// LinuxOrdered is classic synchronous transfer + FLUSH.
	LinuxOrdered
	// Orderless gives no ordering guarantee (upper bound).
	Orderless
)

// TargetSpec describes one target server.
type TargetSpec struct {
	SSDs []DeviceClass
}

// Options configures a cluster (rio_setup). Zero values select one
// initiator, one Optane target server, 24 streams, and the Rio ordering
// mode.
type Options struct {
	Ordering   Ordering
	Targets    []TargetSpec
	Initiators int   // initiator servers sharing the target fleet (0 = 1)
	Streams    int   // streams per initiator
	Merging    *bool // nil = enabled
	Seed       int64
	History    bool // devices retain every version of a block (out-of-place updates): rolling back a beyond-prefix overwrite restores the version under it

	// Replicas groups consecutive targets into replica sets of this size
	// (Rio ordering only; len(Targets) must divide evenly): every ordered
	// write fans out to all in-sync members with per-replica ordering
	// chains, completions deliver at a majority of the set (on a 2-way
	// set, both members: writes stall while it is degraded), reads come
	// from any in-sync member, and a power-cut member degrades its set
	// instead of stalling streams (RecoverTarget then runs a background
	// resync). 0 or 1 = no replication.
	Replicas int
	// Relay routes replicated ordered writes over target-to-target links:
	// the initiator posts ONE capsule to the set's head member, which
	// relays follower copies and aggregates follower acks into a single
	// quorum CQE — cutting initiator egress and reap work from R× to ~1×
	// per write. Orderless writes and flushes still fan out direct.
	// Requires Replicas > 1. Off (false) keeps the direct fan-out path
	// byte-identical to earlier releases; a head power cut degrades the
	// set back to direct fan-out mid-flight with no lost or duplicated
	// completions.
	Relay bool

	// Read configures the initiator-side read path (block cache,
	// read-ahead). The zero value turns both off: every read crosses the
	// fabric.
	Read ReadOptions

	// Trace configures stage-level request tracing. The zero value turns
	// tracing off; a traced run of the same seed is event-identical to an
	// untraced one (tracing records host memory only).
	Trace TraceOptions
}

// TraceOptions configures stage-level request tracing: 1-in-SampleEvery
// submitted writes record a milestone timestamp at every layer of the
// data plane (submit, plug, dispatch, wire, target, ssd, completion,
// reap, ordered delivery) plus the wait attribution (gate, TX stall,
// gate park, PMR, device saturation, CQE hold, replica quorum).
// Cluster.Stack().TraceStats() returns the aggregates.
type TraceOptions struct {
	// SampleEvery traces 1 in N submitted writes per shard (0 = off).
	SampleEvery int
}

// ReadOptions configures the initiator-side read path. Every field
// follows the zero-is-off convention, so existing Options literals are
// unaffected.
type ReadOptions struct {
	// CacheBlocks bounds the per-initiator block cache (4 KiB blocks,
	// CLOCK replacement). 0 disables caching: reads always cross the
	// fabric.
	CacheBlocks int
	// ReadAhead is the prefetch depth (blocks) once an
	// ascending-LBA stream is detected. 0 disables read-ahead; a
	// positive depth requires CacheBlocks > 0 (prefetched blocks need
	// somewhere to land) and Open refuses it without.
	ReadAhead int
}

// Cluster is a running simulated deployment.
type Cluster struct {
	eng   *sim.Engine
	inner *stack.Cluster
}

// NewCluster is Open for options known to be legal: it panics with Open's
// error.
func NewCluster(o Options) *Cluster {
	c, err := Open(o)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// Open builds and starts the stack, or returns the rule the options break
// (stack.Config.Validate has them all).
func Open(o Options) (*Cluster, error) {
	if len(o.Targets) == 0 {
		o.Targets = []TargetSpec{{SSDs: []DeviceClass{Optane}}}
	}
	if o.Streams == 0 {
		o.Streams = 24
	}
	var mode stack.Mode
	switch o.Ordering {
	case Horae:
		mode = stack.ModeHorae
	case LinuxOrdered:
		mode = stack.ModeLinux
	case Orderless:
		mode = stack.ModeOrderless
	default:
		mode = stack.ModeRio
	}
	var targets []stack.TargetConfig
	for _, t := range o.Targets {
		var tc stack.TargetConfig
		for _, d := range t.SSDs {
			if d == Flash {
				tc.SSDs = append(tc.SSDs, ssd.FlashConfig())
			} else {
				tc.SSDs = append(tc.SSDs, ssd.OptaneConfig())
			}
		}
		targets = append(targets, tc)
	}
	cfg := stack.DefaultConfig(mode, targets...)
	cfg.Initiators = o.Initiators
	cfg.Replicas = o.Replicas
	cfg.ReplRelay = o.Relay
	cfg.Streams = o.Streams
	cfg.QPs = o.Streams
	if o.Merging != nil {
		cfg.MergeEnabled = *o.Merging
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	cfg.KeepHistory = o.History
	cfg.CacheBlocks = o.Read.CacheBlocks
	cfg.ReadAhead = o.Read.ReadAhead
	cfg.Trace = trace.Config{SampleEvery: o.Trace.SampleEvery}
	eng := sim.New(cfg.Seed)
	inner, err := stack.Open(eng, cfg)
	if err != nil {
		return nil, err
	}
	return &Cluster{eng: eng, inner: inner}, nil
}

// Ctx is the execution context of simulated application code, bound to
// one initiator server: every stream, write and wait issued through it
// runs in that initiator's ordering domain.
type Ctx struct {
	p  *sim.Proc
	c  *Cluster
	in *stack.Initiator
}

// Go spawns fn as a simulated application thread on initiator 0. Call
// Run to execute.
func (c *Cluster) Go(fn func(ctx *Ctx)) { c.GoOn(0, fn) }

// GoOn spawns fn as a simulated application thread on initiator init —
// the handle a multi-initiator deployment hands its per-server
// application code (streams with the same id on different initiators are
// independent ordering domains).
func (c *Cluster) GoOn(init int, fn func(ctx *Ctx)) {
	in := c.inner.Init(init)
	c.eng.Go("app", func(p *sim.Proc) { fn(&Ctx{p: p, c: c, in: in}) })
}

// Run executes the simulation until it quiesces.
func (c *Cluster) Run() { c.eng.Run() }

// RunFor advances simulated time by d nanoseconds.
func (c *Cluster) RunFor(d sim.Time) { c.eng.RunFor(d) }

// Now returns the simulated clock.
func (c *Cluster) Now() sim.Time { return c.eng.Now() }

// Close releases simulation resources (parked goroutines).
func (c *Cluster) Close() { c.eng.Shutdown() }

// Stack exposes the underlying cluster for advanced use (benchmarks).
func (c *Cluster) Stack() *stack.Cluster { return c.inner }

// Engine exposes the simulation engine (for scheduling crash injection).
func (c *Cluster) Engine() *sim.Engine { return c.eng }

// Sleep pauses the calling simulated thread.
func (ctx *Ctx) Sleep(d sim.Time) { ctx.p.Sleep(d) }

// Proc exposes the simulated thread, needed when calling lower-level APIs
// (file system, workload drivers) from application code.
func (ctx *Ctx) Proc() *sim.Proc { return ctx.p }

// Initiator returns the id of the initiator this context is bound to.
func (ctx *Ctx) Initiator() int { return ctx.in.ID() }

// Alive reports whether this context's initiator server is powered
// (application loops should stop submitting once their server dies).
func (ctx *Ctx) Alive() bool { return ctx.in.Alive() }

// Now returns the simulated clock.
func (ctx *Ctx) Now() sim.Time { return ctx.p.Now() }

// Stream returns the ordered-write stream with the given id (§4.5: streams
// are independent ordering domains; use one per thread or transaction
// context).
func (ctx *Ctx) Stream(id int) *Stream {
	return &Stream{ctx: ctx, id: id}
}

// Stream issues ordered writes whose storage order follows submission
// order (rio_submit).
type Stream struct {
	ctx *Ctx
	id  int
}

// Handle tracks one submitted request. Wait hands the request back to its
// initiator for reuse and keeps what the handle still answers: the
// attribute and the delivery.
type Handle struct {
	ctx  *Ctx
	req  *blockdev.Request // nil once Wait has released it
	attr core.Attr
}

// Wait blocks until the completion is delivered in storage order
// (rio_wait). It returns stack.ErrServerDown when the calling thread's
// initiator died before the thread was back on a core; the request is
// released either way. A second Wait returns nil at once.
func (h *Handle) Wait() error {
	if h.req == nil {
		return nil
	}
	err := h.ctx.in.Wait(h.ctx.p, h.req)
	h.attr = h.Attr()
	h.ctx.in.Release(h.req)
	h.req = nil
	return err
}

// Done reports whether the completion has been delivered.
func (h *Handle) Done() bool { return h.req == nil || h.req.Done.Fired() }

// Attr returns the ordering attribute assigned by the sequencer (zero
// value for orderless clusters).
func (h *Handle) Attr() core.Attr {
	if h.req == nil || h.req.Ticket == nil {
		return h.attr
	}
	return h.req.Ticket.Attr
}

// Write submits an ordered write that stays inside the current group
// (requests within a group may be freely reordered with each other).
func (s *Stream) Write(lba uint64, blocks uint32) *Handle {
	return s.submit(lba, blocks, false, false, false)
}

// Close submits an ordered write that ends the current group (boundary).
func (s *Stream) Close(lba uint64, blocks uint32) *Handle {
	return s.submit(lba, blocks, true, false, false)
}

// Commit submits a boundary write carrying the durability barrier (FLUSH):
// when its Wait returns, the whole group — and every group before it — is
// durable and ordered.
func (s *Stream) Commit(lba uint64, blocks uint32) *Handle {
	return s.submit(lba, blocks, true, true, false)
}

// WriteIPU submits an in-place update (§4.4.2): recovery will not roll it
// back; upper layers handle its consistency.
func (s *Stream) WriteIPU(lba uint64, blocks uint32, boundary bool) *Handle {
	return s.submit(lba, blocks, boundary, false, true)
}

func (s *Stream) submit(lba uint64, blocks uint32, boundary, flush, ipu bool) *Handle {
	req := s.ctx.in.OrderedWrite(s.ctx.p, s.id, lba, blocks, 0, nil, boundary, flush, ipu)
	return &Handle{ctx: s.ctx, req: req}
}

// WriteOrderless submits a write with no ordering guarantee.
func (ctx *Ctx) WriteOrderless(lba uint64, blocks uint32) *Handle {
	req := ctx.in.OrderlessWrite(ctx.p, 0, lba, blocks, 0, nil)
	return &Handle{ctx: ctx, req: req}
}

// Read performs a synchronous read.
func (ctx *Ctx) Read(lba uint64, blocks uint32) []ssd.Rec {
	return ctx.in.Read(ctx.p, lba, blocks)
}

// Flush issues a standalone device FLUSH barrier (block-reuse fallback).
func (ctx *Ctx) Flush() { ctx.in.FlushDevice(ctx.p, 0) }

// CacheStats is a snapshot of block-cache counters. All zeros when the
// cache is disabled (ReadOptions.CacheBlocks == 0).
type CacheStats = stack.RCacheStats

// CacheStatsAll sums the block-cache counters across every initiator.
func (c *Cluster) CacheStatsAll() CacheStats {
	return c.inner.ReadCacheStatsAll()
}

// CacheAudit cross-checks every live cached block against the media of
// the replica member a read would be routed to, returning the number of
// stale entries — 0 on a correct cache. Crash tests call it after each
// fault/recovery step: a nonzero count means a hit could serve a
// rolled-back block or a dead incarnation's write.
func (c *Cluster) CacheAudit() int { return c.inner.CacheAudit() }

// Replication introspection: replica sets, membership health, degraded
// epochs and resync progress.

// ReplicaSets returns the number of replica sets the volume stripes
// over (== target count without replication).
func (c *Cluster) ReplicaSets() int { return c.inner.SetCount() }

// SetMembers returns the target ids of one replica set.
func (c *Cluster) SetMembers(set int) []int { return c.inner.SetMembers(set) }

// InSync reports whether a target is an in-sync member of its replica
// set; a power-cut member stays out of sync until its background resync
// completes.
func (c *Cluster) InSync(target int) bool { return c.inner.InSync(target) }

// SetEpoch returns a replica set's membership epoch: it advances on
// every degrade and every resync-rejoin, and the surviving members
// persist each transition as an epoch mark in their PMR partitions.
func (c *Cluster) SetEpoch(set int) int { return c.inner.SetEpoch(set) }

// ResyncBacklog returns how many missed extents are queued for a
// degraded target's background resync (0 once it has rejoined).
func (c *Cluster) ResyncBacklog(target int) int { return c.inner.ResyncBacklog(target) }

// WriteQuorum returns the effective completion quorum per replica set.
func (c *Cluster) WriteQuorum() int { return c.inner.WriteQuorum() }

// OrderAudit runs the ordering engine's dense-chain audit across every
// target server and returns the total number of violations — 0 on a
// healthy cluster. A nonzero count means an in-order gate holds a parked
// command at or below its frontier: the corruption colliding ordering
// domains would produce.
func (c *Cluster) OrderAudit() int { return c.inner.OrderAudit() }

// Scope names the blast radius of a fault or recovery: the target servers
// and the initiator servers inside it; the zero Scope is the whole cluster.
// Build one with ClusterScope, TargetScope or InitiatorScope and hand it to
// Cluster.Fault / Ctx.Recover — the single crash surface that replaces the
// per-shape PowerCut*/Recover* method family.
type Scope struct {
	targets, inits []int
}

// ClusterScope is the whole deployment: every server loses volatile
// state at once (a datacenter power event). Media and PMR survive.
func ClusterScope() Scope { return Scope{} }

// TargetScope is a single target server (and the replica-set member it
// hosts, on a replicated cluster).
func TargetScope(i int) Scope { return Scope{targets: []int{i}} }

// InitiatorScope is a single initiator server; the other initiators'
// ordering domains continue undisturbed.
func InitiatorScope(i int) Scope { return Scope{inits: []int{i}} }

func (s Scope) cluster() bool { return s.targets == nil && s.inits == nil }

// String names every server in the scope: "target(1)+initiator(0)".
func (s Scope) String() string {
	var parts []string
	for _, t := range s.targets {
		parts = append(parts, fmt.Sprintf("target(%d)", t))
	}
	for _, i := range s.inits {
		parts = append(parts, fmt.Sprintf("initiator(%d)", i))
	}
	if parts == nil {
		return "cluster"
	}
	return strings.Join(parts, "+")
}

// Fault power-cuts the given scope: volatile state inside the scope is
// lost, media and PMR survive. Pair with Ctx.Recover on the same scope.
func (c *Cluster) Fault(s Scope) {
	if s.cluster() {
		c.inner.PowerCutAll()
	}
	for _, t := range s.targets {
		c.inner.PowerCutTarget(t)
	}
	for _, i := range s.inits {
		c.inner.PowerCutInitiator(i)
	}
}

// Report is the recovery outcome: per-stream durable prefixes.
type Report struct {
	inner  *core.Report
	Timing stack.RecoveryTiming
}

// DurablePrefix returns the highest group seq of the stream for which all
// preceding groups are durable (the §4.8 prefix), for initiator 0.
func (r *Report) DurablePrefix(stream int) uint64 {
	return r.inner.Prefix(uint16(stream))
}

// DurablePrefixFor returns the durable prefix of one initiator's stream.
func (r *Report) DurablePrefixFor(initiator, stream int) uint64 {
	return r.inner.PrefixFor(uint16(initiator), uint16(stream))
}

// Recover runs the §4.4 recovery algorithm once, over the union of the given
// scopes: servers that went down together are repaired by one run — one PMR
// scan, one roll-back against all the evidence — not one run each. No scope,
// or any ClusterScope among them, is the whole cluster: full recovery after a
// whole-cluster PowerCut, so legacy ctx.Recover() calls keep their meaning.
// What the run does for a server follows from what it observes:
//
//   - every initiator in the union recovers from its own PMR partitions and
//     rolls the volume back to its per-stream durable prefixes; no other
//     initiator's state is read or rolled back;
//   - a target that was the last in-sync member of its set (any unreplicated
//     target) is rolled back likewise and every surviving initiator replays
//     its in-flight requests against it (§4.4.1 target recovery);
//   - a member of a replica set that kept a survivor is resynced in the
//     background — it copies the delta from a peer replica's media and rejoins
//     its set; no stream stalled and no initiator replays anything.
func (ctx *Ctx) Recover(scope ...Scope) *Report {
	inner, whole := ctx.c.inner, len(scope) == 0
	var union Scope
	for _, s := range scope {
		whole = whole || s.cluster()
		union.targets, union.inits = append(union.targets, s.targets...), append(union.inits, s.inits...)
	}
	out := new(Report)
	if whole {
		out.inner, out.Timing = inner.RecoverFull(ctx.p)
	} else {
		out.inner, out.Timing = inner.Recover(ctx.p, union.targets, union.inits)
	}
	return out
}

// FSDesign selects a file-system journaling design (§4.7).
type FSDesign = fs.Design

// File-system designs.
const (
	Ext4FS    = fs.Ext4
	HoraeFSFS = fs.HoraeFS
	RioFSFS   = fs.RioFS
)

// FSOptions sizes and places a file system (see fs.Options): zero
// fields pick defaults, BaseLBA stacks tenants on a shared volume.
type FSOptions = fs.Options

// KVOptions sizes a key-value store (see kv.Options).
type KVOptions = kv.Options

// FS formats a file system bound to this context's initiator: its
// journal streams, data writes and CPU charges all run in that
// initiator's ordering domain. Zero-valued options give RioFS defaults.
func (ctx *Ctx) FS(opts FSOptions) *fs.FS {
	return fs.Open(ctx.in, opts)
}

// RemountFS mounts an existing file system from durable media after a
// fault — the §4.8 replay: committed journal transactions are applied,
// uncommitted ones vanish atomically. opts must match the options the
// file system was formatted with (including BaseLBA).
func (ctx *Ctx) RemountFS(opts FSOptions) (*fs.FS, fs.RecoverStats) {
	return fs.Remount(ctx.p, ctx.in, opts)
}

// KV opens a RocksDB-style store on fsys. The store inherits the file
// system's initiator binding: WAL fsyncs, flushes, compactions and
// indexing CPU are charged to that server. KVOptions.NegativeLookup turns
// on its bloom filter, answering definitely-absent Gets at the initiator
// with zero fabric traffic.
func (ctx *Ctx) KV(fsys *fs.FS, opts KVOptions) (*kv.DB, error) {
	return kv.Open(ctx.p, fsys, opts)
}

// KVReopen re-attaches a store to its durable files after a fault (pair
// with RemountFS): flushed SSTs are adopted, a fresh WAL generation is
// started, and — because the exact pre-crash key set is unrecoverable —
// a NegativeLookup filter comes back SATURATED (every key answers
// "maybe", the only available superset) until the next compaction
// rebuilds it exactly.
func (ctx *Ctx) KVReopen(fsys *fs.FS, opts KVOptions) (*kv.DB, error) {
	return kv.Reopen(ctx.p, fsys, opts)
}

// KVRecoverCount scans a remounted file system (RemountFS) and counts
// the KV records that survived the fault — WAL records plus records
// already flushed to SSTs. Crash tests compare it against the puts
// acknowledged before the cut: fillsync durability means none may be
// missing, and WAL sizes divide evenly by the record size (no torn
// record can follow a durable commit under ordered writes).
func (ctx *Ctx) KVRecoverCount(fsys *fs.FS, opts KVOptions) (int, error) {
	return kv.RecoverCount(ctx.p, fsys, opts)
}
