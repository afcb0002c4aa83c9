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
// request itself, which this load never releases — the records that cross
// the initiator↔target boundary recycle through the cluster's pools
// (DESIGN.md §1, hot-path object lifetimes). replDirectAllocBudget and
// replRelayAllocBudget are the same on replWriteConfig's 3-way set, over
// initiator fan-out and over the relay. writeEvents is
// engine events per write on rand4kConfig, exactly: a change that keeps
// every simulated number keeps it. writeSwitchBudget is proc resumes — coroutine switches,
// the dearest kind of event — per write (measured + 5 %): the load procs
// alone; the fabric link and the SSD channels are sim.Servers, the SSD's
// commands, the target's contexts and the initiator's dispatchers and
// reapers sim.Steps, and they contribute none. readAllocBudget is Go
// allocations per cached read on cachedSetConfig's 2-way set (hits, and
// misses with read-ahead, nil out): measured 0, so the budget only admits
// the odd allocation the Go runtime itself makes inside the window (one in
// about 60 runs, 0.0003 per read). payloadAllocBudget is Go allocations per
// 3-block payload write on the same set (measured + 5 %): the request.
// horaeAllocBudget and horaeEvents are allocations (measured + 5 %) and
// engine events (exact) per ordered write on rand4kConfig in Horae mode,
// where every write is a group of one and pays its control round trip: the
// request and its per-server index list. linuxAllocBudget is the same for
// Linux mode (measured + 5 %): the request; the wire list is the
// initiator's scratch.
const (
	writeAllocBudget      = 1.006 * 1.05
	replDirectAllocBudget = 1.017 * 1.05
	replRelayAllocBudget  = 1.026 * 1.05
	writeEvents           = 19.421
	writeSwitchBudget     = 2.769 * 1.05
	readAllocBudget       = 0.001
	payloadAllocBudget    = 1.040 * 1.05
	horaeAllocBudget      = 2.030 * 1.05
	horaeEvents           = 38.3255
	linuxAllocBudget      = 1.015 * 1.05
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
// keeping 8 random ordered writes of blocks blocks carrying data (nil: no
// payloads) outstanding in a region of its own.
func writePathCluster(cfg Config, blocks uint32, data [][]byte) (*sim.Engine, *Initiator) {
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
				pending = append(pending, in.OrderedWrite(p, th, lba, blocks, 0, data, true, false, false))
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
// counts around the measured window of writePathCluster's 4 KB writes on
// cfg. The window must complete at least 625 writes per stream (5000 on
// rand4kConfig).
func measureWritePath(t *testing.T, cfg Config) writePathCost {
	eng, in := writePathCluster(cfg, 1, nil)
	defer eng.Shutdown()
	w := measureWindow(eng, func() int64 { return in.Stats().Completed })
	if floor := 625 * int64(cfg.Streams); w.ops < floor {
		t.Fatalf("only %d writes completed in the window, want ≥ %d", w.ops, floor)
	}
	return w
}

// measureWindow runs eng through the warm-up and then the measured window,
// reading the runtime's malloc count and the engine's event counts around
// the latter; done counts the operations finished so far.
func measureWindow(eng *sim.Engine, done func() int64) writePathCost {
	eng.RunUntil(writeWarm)
	var m0, m1 runtime.MemStats
	before := done()
	ev0, rs0 := eng.Counts()
	runtime.ReadMemStats(&m0)
	eng.RunUntil(writeWarm + writeMeasure)
	runtime.ReadMemStats(&m1)
	ev1, rs1 := eng.Counts()
	return writePathCost{
		ops:     done() - before,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		events: ev1 - ev0, resumes: rs1 - rs0,
	}
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

// modeConfig is rand4kConfig in another mode.
func modeConfig(mode Mode) Config {
	cfg := rand4kConfig()
	cfg.Mode = mode
	return cfg
}

// TestHoraeWritePathBudget holds Horae's ordered write to its allocation
// budget and its event count: its control capsules and their acks recycle
// like Rio's capsules, and a group's staging is pooled with its ack signals.
func TestHoraeWritePathBudget(t *testing.T) {
	eng, in := writePathCluster(modeConfig(ModeHorae), 1, nil)
	defer eng.Shutdown()
	w := measureWindow(eng, func() int64 { return in.Stats().Completed })
	t.Logf("%d ops, %.3f Go allocs/op, %.1f B/op, %.4f engine events/op", w.ops, w.per(w.mallocs), w.per(w.bytes), w.per(w.events))
	if w.ops < 4000 {
		t.Fatalf("only %d writes completed in the window, want ≥ 4000", w.ops)
	}
	if got := w.per(w.mallocs); got > horaeAllocBudget {
		t.Errorf("%.3f Go allocs per Horae ordered write, budget %.3f", got, horaeAllocBudget)
	}
	if got := w.per(w.events); math.Abs(got-horaeEvents) > 0.0001 {
		t.Errorf("%.4f engine events per Horae ordered write, want %.4f: the event sequence changed", got, horaeEvents)
	}
}

// TestLinuxWritePathAllocBudget holds Linux mode's ordered write — one in
// flight per initiator, completed before the next starts — to its
// allocation budget.
func TestLinuxWritePathAllocBudget(t *testing.T) {
	eng, in := writePathCluster(modeConfig(ModeLinux), 1, nil)
	defer eng.Shutdown()
	w := measureWindow(eng, func() int64 { return in.Stats().Completed })
	t.Logf("%d ops, %.3f Go allocs/op, %.1f B/op", w.ops, w.per(w.mallocs), w.per(w.bytes))
	if w.ops < 300 {
		t.Fatalf("only %d writes completed in the window, want ≥ 300", w.ops)
	}
	if got := w.per(w.mallocs); got > linuxAllocBudget {
		t.Errorf("%.3f Go allocs per Linux ordered write, budget %.3f", got, linuxAllocBudget)
	}
}

// benchWritePath runs writePathCluster's 4 KB writes on cfg past its warm-up
// for b.N writes: one op is one simulated write, so ns/op, B/op and allocs/op
// (-benchmem) are the host's cost per write, reported with the engine
// events and proc resumes it took.
func benchWritePath(b *testing.B, cfg Config) {
	eng, in := writePathCluster(cfg, 1, nil)
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

// BenchmarkHoraeOrderedWrite and BenchmarkLinuxOrderedWrite are the
// unreplicated write path of the two baselines: Horae's control round trip
// per group, Linux's one ordered write at a time.
func BenchmarkHoraeOrderedWrite(b *testing.B) { benchWritePath(b, modeConfig(ModeHorae)) }
func BenchmarkLinuxOrderedWrite(b *testing.B) { benchWritePath(b, modeConfig(ModeLinux)) }

// BenchmarkReplicatedWrite is the budgeted 3-way write path, over initiator
// fan-out and over the relay.
func BenchmarkReplicatedWrite(b *testing.B) {
	b.Run("direct", func(b *testing.B) { benchWritePath(b, replWriteConfig(false)) })
	b.Run("relay", func(b *testing.B) { benchWritePath(b, replWriteConfig(true)) })
}

// cachedSetConfig is the budgeted read and payload configuration: 2 Optane
// targets in one 2-way set, a 1024-block read cache per initiator with
// read-ahead 4, 3 streams.
func cachedSetConfig() Config {
	cfg := DefaultConfig(ModeRio, OptaneTarget(), OptaneTarget())
	cfg.Streams, cfg.QPs = 3, 3
	cfg.Replicas = 2
	cfg.CacheBlocks, cfg.ReadAhead = 1024, 4
	return cfg
}

// readPathCluster builds cfg with one reader proc per stream of the first
// three started, each issuing 1-block reads back to back with a nil out:
// stream 0 re-reads 256 hot blocks (hits; its read-ahead finds them
// cached), stream 1 scans a region in order (misses and read-ahead fills),
// stream 2 reads another region at random (misses, no sequential run). The
// returned counter is the reads that have returned.
func readPathCluster(cfg Config) (*sim.Engine, *Initiator, *int64) {
	const region = 1 << 20
	eng := sim.New(1)
	in := New(eng, cfg).Init(0)
	reads := new(int64)
	rng := rand.New(rand.NewSource(1))
	next := []func(i uint64) uint64{
		func(i uint64) uint64 { return i % 256 },
		func(i uint64) uint64 { return region + i },
		func(uint64) uint64 { return 2*region + uint64(rng.Int63n(region)) },
	}
	for s, lbaOf := range next {
		eng.Go("reader", func(p *sim.Proc) {
			for i := uint64(0); ; i++ {
				in.ReadStream(p, s, lbaOf(i), 1, nil)
				*reads++
			}
		})
	}
	return eng, in, reads
}

// TestReadPathAllocBudget fails when a cached read — a hit, or a miss with
// its read-ahead fills, on a 2-way set — starts allocating: read commands
// and per-call scratch are pooled, and a nil out keeps no records.
func TestReadPathAllocBudget(t *testing.T) {
	eng, in, reads := readPathCluster(cachedSetConfig())
	defer eng.Shutdown()
	st0 := in.ReadCacheStats()
	w := measureWindow(eng, func() int64 { return *reads })
	st := in.ReadCacheStats().Sub(st0)
	t.Logf("%d reads (%d hits, %d misses, %d blocks read ahead), %d Go allocs (%.3f/read), %.1f B/read, %.3f engine events/read",
		w.ops, st.Hits, st.Misses, st.ReadAheadIssued, w.mallocs, w.per(w.mallocs), w.per(w.bytes), w.per(w.events))
	if w.ops < 2000 || st.Hits == 0 || st.Misses == 0 || st.ReadAheadIssued == 0 {
		t.Fatalf("the window must hold ≥ 2000 reads with hits, misses and read-ahead: %d reads, %+v", w.ops, st)
	}
	if got := w.per(w.mallocs); got > readAllocBudget {
		t.Errorf("%.3f Go allocs per cached read, budget %.3f", got, readAllocBudget)
	}
}

// TestPayloadWriteAllocBudget is TestWritePathAllocBudget for 3-block
// writes carrying payloads on a cached 2-way set: both members' devices
// and the read cache keep the payloads the request carries, not copies.
func TestPayloadWriteAllocBudget(t *testing.T) {
	data := [][]byte{[]byte("journal descriptor"), []byte("metadata"), []byte("commit")}
	eng, in := writePathCluster(cachedSetConfig(), 3, data)
	defer eng.Shutdown()
	w := measureWindow(eng, func() int64 { return in.Stats().Completed })
	t.Logf("%d ops, %.3f Go allocs/op, %.1f B/op", w.ops, w.per(w.mallocs), w.per(w.bytes))
	if w.ops < 1000 {
		t.Fatalf("only %d writes completed in the window, want ≥ 1000", w.ops)
	}
	if got := w.per(w.mallocs); got > payloadAllocBudget {
		t.Errorf("%.3f Go allocs per payload write, budget %.3f", got, payloadAllocBudget)
	}
}

// BenchmarkCachedRead is the budgeted read path: one op is one read of
// readPathCluster past its warm-up.
func BenchmarkCachedRead(b *testing.B) {
	eng, _, reads := readPathCluster(cachedSetConfig())
	defer eng.Shutdown()
	eng.RunUntil(writeWarm)
	before := *reads
	ev0, _ := eng.Counts()
	b.ResetTimer()
	for *reads-before < int64(b.N) {
		eng.RunFor(10 * sim.Microsecond)
	}
	b.StopTimer()
	ev1, _ := eng.Counts()
	b.ReportMetric(float64(ev1-ev0)/float64(*reads-before), "events/op")
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
