// Package stack composes the full networked storage system: an initiator
// server and one or more target servers connected by the simulated RDMA
// fabric, with NVMe SSDs (and their PMR regions) at the targets. It
// implements the four stacks the paper evaluates:
//
//   - ModeOrderless: plain NVMe over RDMA with no ordering guarantee (the
//     upper bound in every figure).
//   - ModeLinux: Linux NVMe over RDMA with ordering — synchronous
//     transfer, one in-flight ordered request per device (§6.5), plus a
//     FLUSH per ordered request on devices without PLP.
//   - ModeHorae: the Horae baseline extended to NVMe-oF (§6.1) — a
//     synchronous control path (two-sided SENDs persisting ordering
//     metadata to PMR) executed before an asynchronous data path.
//   - ModeRio: the paper's contribution — ordering attributes flow with
//     the requests, targets enforce per-server in-order submission and
//     persist attributes to PMR, the initiator completes in order, and
//     the I/O scheduler merges consecutive ordered requests.
package stack

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// Mode selects the storage ordering stack.
type Mode int

const (
	ModeOrderless Mode = iota
	ModeLinux
	ModeHorae
	ModeRio
)

func (m Mode) String() string {
	switch m {
	case ModeOrderless:
		return "orderless"
	case ModeLinux:
		return "linux"
	case ModeHorae:
		return "horae"
	default:
		return "rio"
	}
}

// Policy returns the ordering-engine policy this stack instantiates:
// the four modes drive the one engine (internal/order) through these
// four policies instead of scattering mode switches through the target.
func (m Mode) Policy() order.Policy {
	switch m {
	case ModeOrderless:
		return order.Orderless{}
	case ModeLinux:
		return order.LinuxOrdered{}
	case ModeHorae:
		return order.Horae{}
	default:
		return order.Rio{}
	}
}

// CostModel holds the CPU and scheduling costs of the software path. The
// defaults are calibrated so the latency breakdown of Fig. 14 and the
// throughput shapes of Figs. 2 and 10-12 land near the paper's reported
// values; see DESIGN.md §6.
type CostModel struct {
	SubmitBio  sim.Time // block-layer submission work per request
	CmdBuild   sim.Time // building one NVMe-oF command
	PostMsg    sim.Time // posting one RDMA SEND (doorbell write etc.)
	RecvMsg    sim.Time // receive-side handling of one SEND
	CmdProcess sim.Time // target per-command processing + SSD doorbell
	CplHandle  sim.Time // completion/interrupt handling per message
	MergeCheck sim.Time // per merge attempt in the scheduler

	PMRAppendCPU sim.Time // CPU held while persisting one attribute (MMIO write+read-back issue cost; the persistence latency itself comes from ssd.Config.PMRWriteLat)
	PMRToggleCPU sim.Time // CPU to post the persist-bit toggle (posted write)

	BlockCPU sim.Time // CPU burned putting a thread to sleep (context switch)
	WakeCPU  sim.Time // CPU burned waking it (IRQ + scheduler)
	WakeLat  sim.Time // scheduling latency until the woken thread runs

	CacheBlockCPU sim.Time // read-cache lookup/insert work per 4 KB block

	FSDataCPU sim.Time // file-system data-path work per 4 KB (page cache)
	FSMetaCPU sim.Time // file-system metadata/journal work per transaction
}

// TCPCosts returns the cost model for NVMe over TCP: two-sided messaging
// runs through the kernel socket stack, so per-message CPU at both ends
// is several times the RDMA verbs cost (cf. i10 [15] in the paper's
// related work). Everything else is transport-independent.
func TCPCosts() CostModel {
	c := DefaultCosts()
	c.PostMsg = 2500
	c.RecvMsg = 3000
	c.CplHandle = 1500
	return c
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() CostModel {
	return CostModel{
		SubmitBio:     700,
		CmdBuild:      400,
		PostMsg:       700,
		RecvMsg:       700,
		CmdProcess:    500,
		CplHandle:     500,
		MergeCheck:    80,
		PMRAppendCPU:  300,
		PMRToggleCPU:  200,
		BlockCPU:      1200,
		WakeCPU:       1500,
		WakeLat:       8 * sim.Microsecond,
		CacheBlockCPU: 150,
		FSDataCPU:     5 * sim.Microsecond,
		FSMetaCPU:     1 * sim.Microsecond,
	}
}

const (
	// inlineThreshold is the most in-capsule data one command may carry;
	// larger payloads are fetched by the target with a one-sided READ.
	inlineThreshold = 8192
	// deviceBlocks is every SSD's capacity in 4 KB blocks (16 GiB).
	deviceBlocks = 1 << 22
	// maxTransferBlocks is the most blocks one device command carries
	// (128 KB): buildWires splits at it, fusion stops at it, a read run ends
	// at it, and Validate rejects a device that cannot take it.
	maxTransferBlocks = 32
)

// TargetConfig describes one target server.
type TargetConfig struct {
	SSDs []ssd.Config
}

// Config assembles a cluster.
type Config struct {
	Mode Mode

	Targets        []TargetConfig
	Initiators     int // initiator servers sharing the target fleet (0 = 1)
	InitiatorCores int // CPU cores per initiator server
	TargetCores    int

	Streams int // rio_setup stream count per initiator (also Horae streams)
	QPs     int // queue pairs per (initiator, target) connection

	// Replicas groups the target fleet into replica sets of this size
	// (consecutive targets form a set; len(Targets) must divide evenly).
	// The volume stripes over sets, every ordered write fans out to all
	// in-sync members with per-replica dense ServerIdx chains, and
	// completions deliver at WriteQuorum. 0 or 1 = no replication
	// (byte-identical to the unreplicated stack). Rio mode only.
	Replicas int
	// WriteQuorum is the member acks required before a completion is
	// delivered: 0 selects the majority rule (floor(R/2)+1, stall-free
	// under a single member failure), Replicas selects full-set
	// durability (a member power cut then stalls writes until resync).
	WriteQuorum int
	// ReplRelay enables the replication fast path for ordered writes: the
	// initiator posts one vectored capsule (carrying every member's
	// SQEs/attrs) to the set's head member, which relays follower slices
	// over dedicated target-to-target fabric conns; followers ack the
	// head, which emits a single aggregated CQE capsule to the initiator
	// at quorum plus a piggybacked full-resolution record later.
	// Orderless writes and flushes fan out direct: the in-order gate is
	// what lets a follower answer for a command after a head cut. Any
	// degraded member suspends the relay for its set (direct fan-out,
	// exactly the default path) until resync rejoins it. Off (the
	// default) the relay conns are never built and the stack is
	// byte-identical to the direct fan-out path. Rio mode, Replicas > 1
	// only.
	ReplRelay bool

	Fabric fabric.Config
	Costs  CostModel

	// CacheBlocks bounds the per-initiator read cache (4 KB blocks,
	// CLOCK replacement, populated on read completion and write
	// submission, fenced by the crash epochs). 0 = no cache, and the
	// read path is byte-identical to the uncached stack.
	CacheBlocks int
	// ReadAhead is the default sequential prefetch depth (blocks) once a
	// per-(initiator, stream) ascending-LBA run is detected. 0 = off.
	// Read-ahead requires CacheBlocks > 0 (prefetched blocks land in the
	// cache).
	ReadAhead int

	ChunkBlocks    int      // volume stripe chunk (blocks); 1 = paper's round-robin
	MergeEnabled   bool     // Rio I/O scheduler merging (and orderless plug merging)
	StreamAffinity bool     // Principle 2: pin each stream to one QP
	CQEBatch       int      // max CQEs per coalesced response capsule (flush threshold; <= 0 selects 16)
	CQEHold        sim.Time // max age of a coalescing batch before the hold timer flushes it (must be >= 0; 0 selects the 2 µs default)
	MaxPlug        int      // dispatch batch size
	KeepHistory    bool     // retain media history for crash tests

	// MaxInflight bounds the admitted-but-undelivered requests per
	// initiator (submitters blocked on the gate are not counted). When
	// the fleet saturates (SSD knee, fabric stalls) the completion rate
	// drops, the bound fills, and further submissions block in the
	// caller's context — the submit-side pushback that turns offered
	// overload into visible queueing instead of unbounded in-flight
	// growth. 0 = unbounded (the stock closed-loop behavior).
	MaxInflight int

	// Governor configures the adaptive batching governor. Disabled (the
	// zero value) the hot path uses the static CQEHold/CQEBatch/MaxPlug
	// knobs exactly as before, event for event.
	Governor GovernorConfig

	// Trace enables stage-level request tracing (internal/trace): 1-in-N
	// sampled requests record milestone timestamps at every layer of the
	// data plane. Off (the zero value) the stack carries only nil checks;
	// on, recording is host-memory only — the event schedule, and hence
	// every metric of a seeded run, is byte-identical either way.
	Trace trace.Config

	Seed int64
}

// DefaultConfig builds a cluster config with n target servers, each with
// the given SSD configs, in the given mode.
func DefaultConfig(mode Mode, targets ...TargetConfig) Config {
	qps := 24
	return Config{
		Mode:           mode,
		Targets:        targets,
		Initiators:     1,
		InitiatorCores: 18,
		TargetCores:    18,
		Streams:        24,
		QPs:            qps,
		Fabric:         fabric.DefaultConfig(qps),
		Costs:          DefaultCosts(),
		ChunkBlocks:    1,
		MergeEnabled:   true,
		StreamAffinity: true,
		CQEBatch:       16,
		CQEHold:        2 * sim.Microsecond,
		MaxPlug:        32,
		Seed:           1,
	}
}

// FlashTarget is a one-SSD flash target server config.
func FlashTarget() TargetConfig { return TargetConfig{SSDs: []ssd.Config{ssd.FlashConfig()}} }

// OptaneTarget is a one-SSD Optane target server config.
func OptaneTarget() TargetConfig { return TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig()}} }

// Validate reports the first rule cfg breaks, or nil. Every cross-field rule
// of a configuration lives here and only here: Open returns what it says, New
// panics with it, and a generator keeps a drawn Config iff it is nil.
func (cfg Config) Validate() error {
	inits, r := max(cfg.Initiators, 1), cfg.Replicas
	switch {
	case len(cfg.Targets) == 0:
		return errors.New("stack: need at least one target")
	case cfg.Streams <= 0 || cfg.QPs <= 0:
		return errors.New("stack: invalid streams/QPs")
	case inits > core.StampInitiators || cfg.Streams > core.StampStreams:
		// Beyond these two ordering domains would share media identities.
		return fmt.Errorf("stack: %d initiators x %d streams exceed the %d x %d a media identity names (core.AttrStamp)",
			inits, cfg.Streams, core.StampInitiators, core.StampStreams)
	case cfg.CacheBlocks < 0:
		return errors.New("stack: CacheBlocks must be >= 0")
	case cfg.ReadAhead > 0 && cfg.CacheBlocks == 0:
		return errors.New("stack: ReadAhead requires CacheBlocks > 0")
	case cfg.CQEHold < 0:
		return errors.New("stack: CQEHold must be >= 0")
	case cfg.MaxInflight < 0:
		return errors.New("stack: MaxInflight must be >= 0")
	case r <= 1 && cfg.ReplRelay:
		return errors.New("stack: ReplRelay requires Replicas > 1")
	case r > 1 && cfg.Mode != ModeRio:
		return errors.New("stack: replication requires ModeRio")
	case r > 1 && len(cfg.Targets)%r != 0:
		return fmt.Errorf("stack: %d targets do not divide into replica sets of %d", len(cfg.Targets), r)
	case r > 1 && (cfg.WriteQuorum < 0 || cfg.WriteQuorum > r):
		return fmt.Errorf("stack: write quorum %d out of range for %d replicas", cfg.WriteQuorum, r)
	}
	for ti, tc := range cfg.Targets {
		switch {
		case len(tc.SSDs) == 0:
			return fmt.Errorf("stack: target %d has no SSD", ti)
		case tc.SSDs[0].PMRSize/inits < core.EntrySize:
			// Each initiator logs into its own slice of the first device's PMR.
			return errors.New("stack: PMR region too small for the initiator count")
		case r > 1 && len(tc.SSDs) != len(cfg.Targets[ti-ti%r].SSDs):
			return errors.New("stack: replica set members must have identical SSD geometry")
		}
		for _, sc := range tc.SSDs {
			if sc.MaxTransferBlocks < maxTransferBlocks {
				return fmt.Errorf("stack: target %d: device %s takes %d blocks per command, the stack sends up to %d",
					ti, sc.Name, sc.MaxTransferBlocks, maxTransferBlocks)
			}
		}
	}
	if gc := withGovernorDefaults(cfg.Governor, cfg); gc.Enabled {
		switch {
		case gc.UpOpsPerSec <= 0:
			return errors.New("stack: governor requires UpOpsPerSec > 0")
		case gc.DownOpsPerSec >= gc.UpOpsPerSec:
			return errors.New("stack: governor hysteresis requires DownOpsPerSec < UpOpsPerSec")
		case gc.HighPlug > cfg.MaxPlug:
			return errors.New("stack: governor HighPlug exceeds MaxPlug (parked rings are pre-sized from MaxPlug)")
		}
	}
	return nil
}
