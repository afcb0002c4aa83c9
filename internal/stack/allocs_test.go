package stack

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// Host-cost budgets of the ordered write path, all on the configuration
// of measureWritePath and all deterministic for a seed. writeAllocBudget
// is steady-state Go allocations per 4 KB random ordered write (measured
// value + 5 %): what remains is the request itself and the capsules that
// cross the initiator→target boundary (DESIGN.md §1, hot-path object
// lifetimes). writeEvents is engine events per write, exactly: a change
// that keeps every simulated number keeps it. writeSwitchBudget is proc
// resumes — coroutine switches, the dearest kind of event — per write
// (measured + 5 %): the load procs alone; the fabric link and the SSD
// channels are sim.Servers, the SSD's commands, the target's contexts and
// the initiator's dispatchers and reapers sim.Steps, and they contribute
// none.
const (
	writeAllocBudget  = 4.572 * 1.05
	writeEvents       = 22.081
	writeSwitchBudget = 2.769 * 1.05
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

// writePathCluster builds the budgeted configuration — Rio mode, 2 Optane
// targets, 8 streams each keeping 8 random 4 KB ordered writes outstanding —
// with its load procs started.
func writePathCluster() (*sim.Engine, *Initiator) {
	const (
		streams = 8
		depth   = 8
		region  = 1 << 20
	)
	cfg := DefaultConfig(ModeRio, OptaneTarget(), OptaneTarget())
	cfg.Streams = streams
	cfg.QPs = streams
	eng := sim.New(1)
	c := New(eng, cfg)
	in := c.Init(0)
	for th := 0; th < streams; th++ {
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
// counts around the measured window of writePathCluster.
func measureWritePath(t *testing.T) writePathCost {
	eng, in := writePathCluster()
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
	if w.ops < 5000 {
		t.Fatalf("only %d writes completed in the window", w.ops)
	}
	return w
}

// TestWritePathAllocBudget fails when the ordered write path starts
// allocating more per op than the budget.
func TestWritePathAllocBudget(t *testing.T) {
	w := measureWritePath(t)
	t.Logf("%d ops, %.3f Go allocs/op, %.1f B/op", w.ops, w.per(w.mallocs), w.per(w.bytes))
	if got := w.per(w.mallocs); got > writeAllocBudget {
		t.Errorf("%.3f Go allocs per ordered write, budget %.3f", got, writeAllocBudget)
	}
}

// TestWritePathSwitchBudget fails when the write path starts paying more
// coroutine switches per op than the budget — a leaf device, a target
// context, a dispatcher or a reaper turned back into a process, a new
// hand-off between procs — or
// when the event sequence itself moved.
func TestWritePathSwitchBudget(t *testing.T) {
	w := measureWritePath(t)
	t.Logf("%d ops, %.3f engine events/op of which %.3f proc resumes", w.ops, w.per(w.events), w.per(w.resumes))
	if got := w.per(w.events); math.Abs(got-writeEvents) > 0.0005 {
		t.Errorf("%.4f engine events per ordered write, want %.3f: the event sequence changed", got, writeEvents)
	}
	if got := w.per(w.resumes); got > writeSwitchBudget {
		t.Errorf("%.3f proc resumes per ordered write, budget %.3f", got, writeSwitchBudget)
	}
}

// BenchmarkOrderedWrite runs measureWritePath's configuration past its
// warm-up for b.N ordered writes: one op is one simulated write, so ns/op,
// B/op and allocs/op (-benchmem) are the host's cost per write, reported
// with the engine events and proc resumes it took.
func BenchmarkOrderedWrite(b *testing.B) {
	eng, in := writePathCluster()
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
