package stack

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// Host-cost budgets of the ordered write path, all deterministic for a
// seed. writeAllocBudget is steady-state Go allocations per 4 KB random
// ordered write on rand4kConfig (measured value + 5 %): what remains is the
// request itself — the records that cross the initiator↔target boundary
// recycle through the cluster's pools (DESIGN.md §1, hot-path object
// lifetimes). replDirectAllocBudget and replRelayAllocBudget are the same
// on replWriteConfig's 3-way set, over initiator fan-out and over the
// relay (whose second allocation is fireAgg's member list). writeEvents is
// engine events per write on rand4kConfig, exactly: a change that keeps
// every simulated number keeps it. writeSwitchBudget is proc resumes — coroutine switches,
// the dearest kind of event — per write (measured + 5 %): the load procs
// alone; the fabric link and the SSD channels are sim.Servers, the SSD's
// commands, the target's contexts and the initiator's dispatchers and
// reapers sim.Steps, and they contribute none.
const (
	writeAllocBudget      = 1.006 * 1.05
	replDirectAllocBudget = 1.017 * 1.05
	replRelayAllocBudget  = 2.026 * 1.05
	writeEvents           = 22.081
	writeSwitchBudget     = 2.769 * 1.05
)

// writePathCost is what one measured window of the write path cost the host.
type writePathCost struct {
	ops                             int64
	mallocs, bytes, events, resumes uint64
}

func (w writePathCost) per(n uint64) float64 { return float64(n) / float64(w.ops) }

// The write-path window: a warm-up that fills every free list, then a
// fixed simulated window that is measured.
const (
	writeWarm    = 2 * sim.Millisecond
	writeMeasure = 10 * sim.Millisecond
)

// rand4kConfig is the budgeted unreplicated configuration: Rio mode, 2
// Optane targets, 8 streams (one per QP).
func rand4kConfig() Config {
	cfg := DefaultConfig(ModeRio, OptaneTarget(), OptaneTarget())
	cfg.Streams, cfg.QPs = 8, 8
	return cfg
}

// replWriteConfig is the budgeted replicated configuration: 3 Optane targets
// in one 3-way set, 2 initiator cores (egress binds), 4 streams, initiator
// fan-out or the relay.
func replWriteConfig(relay bool) Config {
	cfg := DefaultConfig(ModeRio, OptaneTarget(), OptaneTarget(), OptaneTarget())
	cfg.Streams, cfg.QPs = 4, 4
	cfg.Replicas, cfg.ReplRelay = 3, relay
	cfg.InitiatorCores = 2
	return cfg
}

// writePathCluster builds cfg with one load proc per stream started, each
// keeping 8 random 4 KB ordered writes outstanding in a region of its own.
func writePathCluster(cfg Config) (*sim.Engine, *Initiator) {
	const (
		depth  = 8
		region = 1 << 20
	)
	eng := sim.New(1)
	c := New(eng, cfg)
	in := c.Init(0)
	for th := 0; th < cfg.Streams; th++ {
		rng := rand.New(rand.NewSource(int64(th) + 1))
		eng.Go("load", func(p *sim.Proc) {
			pending := make([]*blockdev.Request, 0, depth)
			for {
				lba := uint64(th)*region + uint64(rng.Int63n(region))
				pending = append(pending, in.OrderedWrite(p, th, lba, 1, 0, nil, true, false, false))
				if len(pending) == depth {
					in.Wait(p, pending[0])
					pending = pending[:copy(pending, pending[1:])]
				}
			}
		})
	}
	return eng, in
}

// measureWritePath reads the runtime's malloc count and the engine's event
// counts around the measured window of writePathCluster(cfg). The window
// must complete at least 625 writes per stream (5000 on rand4kConfig).
func measureWritePath(t *testing.T, cfg Config) writePathCost {
	eng, in := writePathCluster(cfg)
	defer eng.Shutdown()
	eng.RunUntil(writeWarm)
	var m0, m1 runtime.MemStats
	before := in.Stats().Completed
	ev0, rs0 := eng.Counts()
	runtime.ReadMemStats(&m0)
	eng.RunUntil(writeWarm + writeMeasure)
	runtime.ReadMemStats(&m1)
	ev1, rs1 := eng.Counts()
	w := writePathCost{
		ops:     in.Stats().Completed - before,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		events: ev1 - ev0, resumes: rs1 - rs0,
	}
	if floor := 625 * int64(cfg.Streams); w.ops < floor {
		t.Fatalf("only %d writes completed in the window, want ≥ %d", w.ops, floor)
	}
	return w
}

// TestWritePathAllocBudget fails when the ordered write path starts
// allocating more per op than the budget.
func TestWritePathAllocBudget(t *testing.T) {
	w := measureWritePath(t, rand4kConfig())
	t.Logf("%d ops, %.3f Go allocs/op, %.1f B/op", w.ops, w.per(w.mallocs), w.per(w.bytes))
	if got := w.per(w.mallocs); got > writeAllocBudget {
		t.Errorf("%.3f Go allocs per ordered write, budget %.3f", got, writeAllocBudget)
	}
}

// TestReplicatedWriteAllocBudget is TestWritePathAllocBudget on a 3-way
// replica set, whose capsules fan out per member (direct) or ride the head
// capsule and come back as relay acks (relay).
func TestReplicatedWriteAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		relay  bool
		budget float64
	}{{false, replDirectAllocBudget}, {true, replRelayAllocBudget}} {
		w := measureWritePath(t, replWriteConfig(tc.relay))
		t.Logf("relay=%v: %d ops, %.3f Go allocs/op, %.1f B/op", tc.relay, w.ops, w.per(w.mallocs), w.per(w.bytes))
		if got := w.per(w.mallocs); got > tc.budget {
			t.Errorf("relay=%v: %.3f Go allocs per replicated write, budget %.3f", tc.relay, got, tc.budget)
		}
	}
}

// TestWritePathSwitchBudget fails when the write path starts paying more
// coroutine switches per op than the budget — a leaf device, a target
// context, a dispatcher or a reaper turned back into a process, a new
// hand-off between procs — or
// when the event sequence itself moved.
func TestWritePathSwitchBudget(t *testing.T) {
	w := measureWritePath(t, rand4kConfig())
	t.Logf("%d ops, %.3f engine events/op of which %.3f proc resumes", w.ops, w.per(w.events), w.per(w.resumes))
	if got := w.per(w.events); math.Abs(got-writeEvents) > 0.0005 {
		t.Errorf("%.4f engine events per ordered write, want %.3f: the event sequence changed", got, writeEvents)
	}
	if got := w.per(w.resumes); got > writeSwitchBudget {
		t.Errorf("%.3f proc resumes per ordered write, budget %.3f", got, writeSwitchBudget)
	}
}

// benchWritePath runs writePathCluster(cfg) past its warm-up for b.N ordered
// writes: one op is one simulated write, so ns/op, B/op and allocs/op
// (-benchmem) are the host's cost per write, reported with the engine
// events and proc resumes it took.
func benchWritePath(b *testing.B, cfg Config) {
	eng, in := writePathCluster(cfg)
	defer eng.Shutdown()
	eng.RunUntil(writeWarm)
	before := in.Stats().Completed
	ev0, rs0 := eng.Counts()
	b.ResetTimer()
	for in.Stats().Completed-before < int64(b.N) {
		eng.RunFor(10 * sim.Microsecond)
	}
	b.StopTimer()
	ev1, rs1 := eng.Counts()
	ops := float64(in.Stats().Completed - before)
	b.ReportMetric(float64(ev1-ev0)/ops, "events/op")
	b.ReportMetric(float64(rs1-rs0)/ops, "resumes/op")
}

// BenchmarkOrderedWrite is the budgeted unreplicated write path.
func BenchmarkOrderedWrite(b *testing.B) { benchWritePath(b, rand4kConfig()) }

// BenchmarkReplicatedWrite is the budgeted 3-way write path, over initiator
// fan-out and over the relay.
func BenchmarkReplicatedWrite(b *testing.B) {
	b.Run("direct", func(b *testing.B) { benchWritePath(b, replWriteConfig(false)) })
	b.Run("relay", func(b *testing.B) { benchWritePath(b, replWriteConfig(true)) })
}

// TestClusterStartsNoProc: a target's rx lanes, completion contexts and
// relay-ack context and an initiator's dispatchers and reapers are
// sim.Steps, so a cluster's construction instant resumes no proc — in Rio
// mode with the relay off and on, and in Horae mode (which does not
// replicate).
func TestClusterStartsNoProc(t *testing.T) {
	three := []TargetConfig{OptaneTarget(), OptaneTarget(), OptaneTarget()}
	for _, tc := range []struct {
		mode  Mode
		relay bool
	}{{ModeRio, false}, {ModeRio, true}, {ModeHorae, false}} {
		cfg := smallConfig(tc.mode, three...)
		if tc.mode == ModeRio {
			cfg.Replicas = 3
		}
		cfg.ReplRelay = tc.relay
		cfg.Initiators = 2
		eng := sim.New(1)
		New(eng, cfg)
		eng.RunUntil(0)
		_, resumes := eng.Counts()
		if resumes != 0 {
			t.Errorf("%v relay=%v: %d proc resumes at construction, want 0", tc.mode, tc.relay, resumes)
		}
		eng.Shutdown()
	}
}
