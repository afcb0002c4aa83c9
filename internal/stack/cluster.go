package stack

import (
	"slices"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/nvmeof"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/trace"
)

// wireState tracks one NVMe-oF command from build to completion. The
// WireCmd it carries is embedded (wc always points at wcs), so a pooled
// wireState recycles the command struct and its payload slices along
// with itself.
type wireState struct {
	id        uint64
	wc        *blockdev.WireCmd
	wcs       blockdev.WireCmd
	init      int // owning initiator (pools, epochs, target-side state)
	target    int // replica set the command stripes to (a set of one is its target)
	ssdIdx    int
	stream    int
	qp        int
	pinned    bool // target recovery still waits on hwDone: do not recycle
	hwDone    *sim.Signal
	pendingRq int // requests of wc not yet delivered (retire watermark)
	epoch     int

	// data is the backing of wcs.Data, kept across lives that carry no
	// payloads (buildWires reslices it).
	data [][]byte

	// more lists, after wc.Attr, the attributes of the commands fused into
	// this one on device contiguity alone — their sequence numbers are not
	// continuous (round-robin striping interleaves streams across devices),
	// so attribute-level merging (Fig. 8a) is not allowed, but the commands
	// still share one capsule, doorbell and PMR burst. Each attribute keeps
	// its own PMR entry, so recovery is unchanged: a Rio command's entries
	// are appended with it (stampMember copies wc.Attr and more into each
	// member's chain), a Horae data command's were persisted by its control
	// path and are looked up for their persist bits.
	more []core.Attr

	// The command's fan-out over its replica set (one member when the set
	// is one target): q names the members it was posted to and accounts
	// their acks — delivery at q.Need, recycling once every member
	// resolved — and chain, parallel to q.Members, is each member's
	// ordering representation. Both recycle with the wireState.
	q     order.Quorum
	chain []memberChain

	// firstAck is when the first member CQE arrived (stage tracing: the
	// quorum-assembly wait is quorum-fire minus firstAck).
	firstAck sim.Time

	// relayed is the command's route: it went out on routeRelay and no head
	// cut has flipped it to routeDirect (reaskAfterHeadCut) since.
	relayed bool
}

// memberChain is the one ordering representation of a wire command toward
// one member of its replica set: the attribute chain its in-order gate
// admits and its PMR log persists (one attribute per constituent of a
// vector-fused command; empty for plain writes and flushes), and the
// chain's last ServerIdx (retire watermark, replay order). stampMember is
// the only writer; the member's capsule points here (commands cross the
// simulated wire by reference, DESIGN.md §6), so there is no second copy
// for a re-stamp to forget.
type memberChain struct {
	attrs []core.Attr
	idx   uint64
}

// reset prepares a (fresh or recycled) wireState for a new command,
// keeping slice capacities but none of the old contents. Data is set to nil
// rather than truncated, since code distinguishes nil from empty payloads;
// its backing stays in data.
func (ws *wireState) reset() {
	if cap(ws.wcs.Data) > cap(ws.data) {
		ws.data = ws.wcs.Data
	}
	ws.wc = &ws.wcs
	ws.target = 0
	ws.ssdIdx = 0
	ws.qp = 0
	ws.pinned = false
	ws.pendingRq = 0
	ws.more = ws.more[:0]
	ws.wcs = blockdev.WireCmd{
		Stamps: ws.wcs.Stamps[:0],
		Reqs:   ws.wcs.Reqs[:0],
	}
	ws.q.Reset()
	ws.chain = ws.chain[:0]
	ws.firstAck = 0
	ws.relayed = false
}

// addMember fans the command to member m and returns the member's position
// in q.Members and chain. The chain record reuses the attribute storage of
// the wireState's previous life.
func (ws *wireState) addMember(m int) int {
	ws.q.Add(m)
	k := len(ws.chain)
	ws.chain = slices.Grow(ws.chain, 1)[:k+1]
	ws.chain[k] = memberChain{attrs: ws.chain[k].attrs[:0]}
	return k
}

// retire is a piggybacked watermark: all PMR entries of stream with
// ServerIdx <= upTo may be recycled. The initiator it belongs to is
// implied by the connection the capsule arrived on.
type retire struct {
	stream uint16
	upTo   uint64
}

// capsule is the payload of one RDMA SEND toward a target: a posted list
// of commands, or of Horae control entries, sharing one doorbell. epoch is
// the sending initiator's incarnation. A command capsule is one member's
// copy of a batch (buildMemberCapsule): member names the target it is
// addressed to, and that member's attribute chains are the commands'
// memberChain records — each member of a set runs its own dense ServerIdx
// chain. A control capsule carries ack, the signal its one ack fires.
// Capsules recycle through the cluster's pool (getCapsule/putCapsule)
// with the cmds, ctrl, forward and reask buffers they own.
type capsule struct {
	cmds    []*wireState
	ctrl    []core.Attr
	ack     *sim.Signal
	retires []retire
	retire1 [1]retire // storage for the one watermark a command capsule piggybacks
	inline  int       // in-capsule payload bytes of cmds
	epoch   int
	member  int  // destination member of a command capsule
	free    bool // in the pool (or, poisoned, dead for good)

	// Relay route (ReplRelay): the capsule posted to the set's head carries
	// the followers' member capsules, ready-built, in forward; the head
	// sends each on over its target-to-target conn. relayed marks such a
	// forwarded copy (the receiving follower acks the head instead of the
	// initiator). A non-empty reask makes the capsule a head-cut re-ask
	// (relay.go): the ids of cmds, as they were when the initiator asked.
	// Both are told by length, never by nil-ness: a recycled capsule keeps
	// their storage.
	forward []*capsule
	relayed bool
	reask   []uint64

	// Fabric transit stamps (stage tracing): filled by the fabric at
	// delivery, read by the target's receive loop; zero again in the pool.
	sentAt, deliveredAt sim.Time
}

// FabricDelivered implements fabric.TracedPayload.
func (cp *capsule) FabricDelivered(sent, delivered sim.Time) {
	cp.sentAt, cp.deliveredAt = sent, delivered
}

// wireSize is the capsule's size on the wire: one vectored batch, plus —
// on a head capsule — the followers' SQEs (their attributes ride in the
// SQE reserved dwords, their data is the same inline payload the head
// forwards). A Horae control capsule is one framing carrying 32 bytes of
// ordering metadata per entry.
func (cp *capsule) wireSize() int {
	switch {
	case len(cp.ctrl) > 0:
		return nvmeof.CapsuleSize(32 * len(cp.ctrl))
	case len(cp.cmds) == 0:
		return nvmeof.CapsuleSize(0) // watermarks only (Initiator.sendRetires)
	}
	return nvmeof.VectorCapsuleSize(len(cp.cmds), cp.inline) +
		len(cp.forward)*len(cp.cmds)*nvmeof.SQESize
}

// cplEntry is one completion a target sends: the command it names (owning
// initiator, queue pair, initiator-local id and the initiator's epoch when
// the command was sent) and when it joined its lane. Toward an initiator it
// is a CQE; from a follower's ack lane, an ack toward the set head. An
// aggregated CQE a relay head emits at quorum also carries members, the
// members it vouches for (bit k for the set's members[k]), and wait, the
// head's first-ack-to-quorum wait (stage tracing). On the wire every entry
// is one 16-byte CQE slot, whatever its member count.
type cplEntry struct {
	init, qp int
	id       uint64
	epoch    int
	at       sim.Time
	members  uint64
	wait     sim.Time
}

// completionMsg is the payload of every SEND a target makes: to an
// initiator, a coalesced response capsule of CQEs or the ack of one Horae
// control capsule (ctrlAck, the capsule's signal, which the reaper fires);
// on the relay route, a follower's ack capsule to its set head (every
// relayed completion it gathered since its last one — the
// target-to-target messages do not count against the initiator's
// completion messages, that is the point). entries are its completions —
// one kind per message, as per lane — and resolved, on the relay route,
// the late-ack records a head piggybacks so the initiator reaches full
// resolution without extra capsules. qp routes the capsule to the shard
// that owns the queue pair's completion reaping; the receiver is implied by
// the connection. from is the responding target server — under
// replication the quorum accounting (the initiator's, or a head's) needs to
// know WHICH member of the set acked. sentAt/deliveredAt are the fabric
// transit stamps: with each entry's at they attribute the reverse path —
// coalesce hold, wire, reap.
//
// Messages recycle through the cluster's pool (getMsg/putMsg): a lane
// swaps its coalescing buffers with the message it ships, so the buffers
// circulate between lanes and messages.
type completionMsg struct {
	entries  []cplEntry
	resolved []aggResolved
	ctrlAck  *sim.Signal
	qp       int
	epoch    int
	from     int
	free     bool // in the pool (or, poisoned, dead for good)
	logFull  bool // the target's log partition for this initiator is full (qpLane.askRetires)

	sentAt, deliveredAt sim.Time
}

// FabricDelivered implements fabric.TracedPayload.
func (cm *completionMsg) FabricDelivered(sent, delivered sim.Time) {
	cm.sentAt, cm.deliveredAt = sent, delivered
}

// The records that cross a server boundary have one pool each on the
// Cluster: capsules (an initiator's, or a head's forwarded copy) and
// completion messages (everything a target sends: CQEs to an initiator, a
// follower's acks to its head). A
// record goes back where its last reader lets go of it (DESIGN.md §1),
// scrubbed: it comes out zero but for the capacity of the buffers it owns
// (their pointers cleared), transit stamps included. One that a fault
// strands (a link drops it, a queue is drained) is left to the garbage
// collector.

// getCapsule checks a capsule out of the pool.
func (c *Cluster) getCapsule(epoch, member int) *capsule {
	cp := c.capFree.Get()
	cp.free, cp.epoch, cp.member = false, epoch, member
	return cp
}

// putCapsule recycles a capsule.
func (c *Cluster) putCapsule(cp *capsule) {
	if cp.free {
		panic("stack: capsule recycled twice")
	}
	clear(cp.cmds)
	clear(cp.forward)
	*cp = capsule{cmds: cp.cmds[:0], ctrl: cp.ctrl[:0], forward: cp.forward[:0], reask: cp.reask[:0], free: true}
	if !c.poison {
		c.capFree.Put(cp)
	}
}

// getMsg checks a completion message out of the pool.
func (c *Cluster) getMsg(qp, epoch, from int) *completionMsg {
	cm := c.msgFree.Get()
	cm.free, cm.qp, cm.epoch, cm.from = false, qp, epoch, from
	return cm
}

// putMsg recycles a completion message.
func (c *Cluster) putMsg(cm *completionMsg) {
	if cm.free {
		panic("stack: completion message recycled twice")
	}
	*cm = completionMsg{entries: cm.entries[:0], resolved: cm.resolved[:0], free: true}
	if !c.poison {
		c.msgFree.Put(cm)
	}
}

// mustBeLive is every consumer entry point's check on a boundary record it
// is handed.
func mustBeLive(free bool, what string) {
	if free {
		panic("stack: a recycled " + what + " reached a consumer")
	}
}

// horaeStage is one Horae ordered-write group of a stream: its data
// requests and its control entries per target server, staged until the
// boundary request takes the group to run the control path, and per target
// server the ack signal of the group's control capsule toward it.
type horaeStage struct {
	reqs  []*blockdev.Request
	ctrls [][]core.Attr
	acks  []sim.Signal
}

// ClusterStats aggregates initiator-side counters (per initiator:
// Initiator.Stats; summed over the cluster: StatsAll).
type ClusterStats struct {
	Submitted int64
	Completed int64
	WireCmds  int64
	FusedCmds int64 // commands eliminated by merging
	ReadCmds  int64 // read commands issued over the fabric
	ReadMsgs  int64 // read messages (a call batches its commands per member)

	// TxMsgs/TxBytes count initiator egress on the write path: command and
	// Horae control capsules posted toward targets and their wire bytes.
	// Under direct replication every member copy counts; under ReplRelay
	// only the single head capsule does — the R×→1× egress win the
	// replication experiment gates.
	TxMsgs  int64
	TxBytes int64

	// Pool tracks the dispatch hot path's object traffic: tickets, wire
	// commands and wire tracking lists. Misses are heap allocations.
	Pool metrics.PoolStats
	// Batch tracks doorbell coalescing: commands per vectored capsule.
	Batch metrics.BatchStats
	// CplBatch tracks completion coalescing on the reverse path: response
	// capsules received and the CQEs they carried, so
	// CplBatch.Occupancy() is the cqe batch occupancy and
	// CplBatch.Rings/Completed the completion messages per op.
	CplBatch metrics.BatchStats
	// ReapCPU is the initiator CPU spent in the per-shard completion reap
	// loops (the softirq-context cost the coalesced path amortizes).
	ReapCPU sim.Time

	// SubmitStalls counts submissions that blocked on the MaxInflight
	// bound — the submit-side pushback the saturation tier surfaces to
	// open-loop drivers. GovSwitches counts initiator-side adaptive
	// governor operating-point transitions. Both stay 0 on stock configs.
	SubmitStalls int64
	GovSwitches  int64
}

// CompletionMsgsPerOp returns completion capsules received per completed
// request — below 1 when target-side CQE coalescing amortizes the
// response path, exactly 1/occupancy when fusion is idle.
func (s ClusterStats) CompletionMsgsPerOp() float64 {
	return metrics.MsgsPerOp(s.CplBatch.Rings, s.Completed)
}

// Sub returns the counter deltas s - old (for measurement windows).
func (s ClusterStats) Sub(old ClusterStats) ClusterStats { return metrics.Delta(s, old) }

// Add returns the counter sums s + o (for cluster-wide aggregation).
func (s ClusterStats) Add(o ClusterStats) ClusterStats { return metrics.Sum(s, o) }

// Cluster is a deployment: one or more initiator servers sharing a fleet
// of target servers over the fabric. Each initiator is an independent
// ordering domain end to end — its own sequencer namespace, submission
// shards, queue-pair sets, pools and crash epoch — while targets enforce
// in-order submission per (initiator, stream) and keep per-initiator PMR
// log partitions.
type Cluster struct {
	Eng   *sim.Engine
	cfg   Config
	costs CostModel

	vol     *blockdev.Volume
	targets []*Target
	inits   []*Initiator

	// Replication topology: the volume stripes over replica SETS of
	// consecutive targets (sets of one without replication); setOf maps a
	// target id to its set, and writeQuorum is the set's majority.
	replSets    []*replicaSet
	setOf       []int
	writeQuorum int

	// tracer is the stage-tracing collector (nil when Config.Trace is the
	// zero value — the data plane then carries only nil checks).
	tracer *trace.Tracer

	// Pools of the records that cross a server boundary.
	capFree sim.FreeList[capsule]
	msgFree sim.FreeList[completionMsg]

	poison bool // test hook: see PoisonRecycled
}

type fuseTail struct {
	gen uint64
	ws  *wireState
}

// New is Open for a configuration known to be legal: it panics with what
// Validate says.
func New(eng *sim.Engine, cfg Config) *Cluster {
	c, err := Open(eng, cfg)
	if err != nil {
		panic(err.Error())
	}
	return c
}

// Open builds and starts a cluster, or returns the rule cfg breaks.
func Open(eng *sim.Engine, cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Initiators = max(cfg.Initiators, 1)
	c := &Cluster{Eng: eng, cfg: cfg, costs: cfg.Costs}
	// The fabric sizes its per-QP tables from NumQPs: one source, QPs.
	c.cfg.Fabric.NumQPs = c.cfg.QPs
	if c.cfg.Trace.Enabled() {
		c.tracer = trace.New(c.cfg.Trace, c.cfg.Initiators)
	}
	// The fleet is always grouped into replica sets of r consecutive
	// targets — sets of one when the cluster is not replicated — and the
	// volume stripes over the sets, not over their members.
	r := max(c.cfg.Replicas, 1)
	c.writeQuorum = core.MajorityQuorum(r)
	var devs []blockdev.DevRef
	for ti, tc := range c.cfg.Targets {
		t := newTarget(c, ti, tc)
		c.targets = append(c.targets, t)
		set := ti / r
		c.setOf = append(c.setOf, set)
		if ti%r == 0 {
			c.replSets = append(c.replSets, &replicaSet{id: set, settled: sim.NewCond(eng)})
			for si := range t.ssds {
				devs = append(devs, blockdev.DevRef{Server: set, SSD: si, Blocks: deviceBlocks})
			}
		}
		c.replSets[set].addMember(ti)
	}
	if c.cfg.ReplRelay {
		// Gated on the flag (not just Replicas > 1) so a relay-off
		// cluster is structurally identical to the direct fan-out
		// build: no extra conns, no extra wire procs, no extra state.
		c.buildRelayConns()
	}
	c.vol = blockdev.NewVolume(devs, c.cfg.ChunkBlocks)
	for i := 0; i < c.cfg.Initiators; i++ {
		c.inits = append(c.inits, newInitiator(c, i))
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Volume returns the logical volume geometry (shared by all initiators).
func (c *Cluster) Volume() *blockdev.Volume { return c.vol }

// Init returns initiator server i — the only data-path handle: every
// write, read, wait and plug goes through an Initiator.
func (c *Cluster) Init(i int) *Initiator { return c.inits[i] }

// Initiators returns the number of initiator servers.
func (c *Cluster) Initiators() int { return len(c.inits) }

// Target returns target server i.
func (c *Cluster) Target(i int) *Target { return c.targets[i] }

// Targets returns the number of target servers.
func (c *Cluster) Targets() int { return len(c.targets) }

// TargetUtil snapshots the combined CPU of all target servers.
func (c *Cluster) TargetUtil() metrics.UtilSnapshot {
	var s metrics.UtilSnapshot
	s.At = c.Eng.Now()
	for _, t := range c.targets {
		s.Busy += t.cores.BusyTime()
		s.Capacity += t.cores.Capacity()
	}
	return s
}

// InitiatorUtil snapshots the combined CPU of all initiator servers (for
// a single-initiator cluster this is that initiator's utilization).
func (c *Cluster) InitiatorUtil() metrics.UtilSnapshot {
	var s metrics.UtilSnapshot
	s.At = c.Eng.Now()
	for _, in := range c.inits {
		s.Busy += in.cores.BusyTime()
		s.Capacity += in.cores.Capacity()
	}
	return s
}

// StatsAll returns the sum of every initiator's counters.
func (c *Cluster) StatsAll() ClusterStats {
	var s ClusterStats
	for _, in := range c.inits {
		s = s.Add(in.stats)
	}
	return s
}

// TargetStatsAll returns the sum of every target server's counters
// (fleet-wide command processing and PMR traffic).
func (c *Cluster) TargetStatsAll() TargetStats {
	var s TargetStats
	for _, t := range c.targets {
		s = s.Add(t.stats)
	}
	return s
}

// OrderAudit runs the ordering engine's dense-chain audit on every
// target and returns the total number of violations (0 on a healthy
// cluster).
func (c *Cluster) OrderAudit() int {
	bad := 0
	for _, t := range c.targets {
		bad += t.ord.Audit()
	}
	return bad
}

// ReadCacheStatsAll returns the sum of every initiator's read-cache
// counters.
func (c *Cluster) ReadCacheStatsAll() RCacheStats {
	var s RCacheStats
	for _, in := range c.inits {
		s = s.Add(in.ReadCacheStats())
	}
	return s
}
