package stack

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// Host-cost budgets of the ordered write path, both on the configuration
// of measureWritePath and both deterministic for a seed (measured value
// + 5 %). writeAllocBudget is steady-state Go allocations per 4 KB random
// ordered write: what remains is the request itself and the capsules that
// cross the initiator→target boundary (DESIGN.md §1, hot-path object
// lifetimes). writeSwitchBudget is proc resumes — coroutine switches, the
// dearest kind of engine event — per write: load, dispatch, target rx and
// completion lanes, reap; the fabric link and the SSD channels are
// sim.Servers and contribute none.
const (
	writeAllocBudget  = 4.572 * 1.05
	writeSwitchBudget = 13.851 * 1.05
)

// writePathCost is what one measured window of the write path cost the host.
type writePathCost struct {
	ops                             int64
	mallocs, bytes, events, resumes uint64
}

func (w writePathCost) per(n uint64) float64 { return float64(n) / float64(w.ops) }

// measureWritePath runs the budgeted configuration — Rio mode, 2 Optane
// targets, 8 streams each keeping 8 random 4 KB ordered writes outstanding —
// and reads the runtime's malloc count and the engine's event counts around
// a fixed simulated window, after a warm-up that fills every free list.
func measureWritePath(t *testing.T) writePathCost {
	const (
		streams = 8
		depth   = 8
		warm    = 2 * sim.Millisecond
		measure = 10 * sim.Millisecond
		region  = 1 << 20
	)
	cfg := DefaultConfig(ModeRio, OptaneTarget(), OptaneTarget())
	cfg.Streams = streams
	cfg.QPs = streams
	eng := sim.New(1)
	c := New(eng, cfg)
	defer eng.Shutdown()
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
	eng.RunUntil(warm)
	var m0, m1 runtime.MemStats
	before := in.Stats().Completed
	ev0, rs0 := eng.Counts()
	runtime.ReadMemStats(&m0)
	eng.RunUntil(warm + measure)
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
// coroutine switches per op than the budget — a leaf device turned back
// into a process, a new hand-off between procs.
func TestWritePathSwitchBudget(t *testing.T) {
	w := measureWritePath(t)
	t.Logf("%d ops, %.3f engine events/op of which %.3f proc resumes", w.ops, w.per(w.events), w.per(w.resumes))
	if got := w.per(w.resumes); got > writeSwitchBudget {
		t.Errorf("%.3f proc resumes per ordered write, budget %.3f", got, writeSwitchBudget)
	}
}
