package stack

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// writeAllocBudget is the measured steady-state Go allocations per 4 KB
// random ordered write on the configuration below, plus 5 %. The count is
// deterministic for a seed; what remains is the request itself, the
// per-block media record and the capsules that cross the initiator→target
// boundary (DESIGN.md §1, hot-path object lifetimes).
const writeAllocBudget = 5.572 * 1.05

// TestWritePathAllocBudget fails when the ordered write path starts
// allocating more per op than the budget: Rio mode, 2 Optane targets, 8
// streams each keeping 8 random 4 KB ordered writes outstanding. The
// runtime's malloc count is read around a fixed simulated window after a
// warm-up that fills every free list.
func TestWritePathAllocBudget(t *testing.T) {
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
	runtime.ReadMemStats(&m0)
	eng.RunUntil(warm + measure)
	runtime.ReadMemStats(&m1)
	ops := in.Stats().Completed - before
	if ops < 5000 {
		t.Fatalf("only %d writes completed in the window", ops)
	}
	got := float64(m1.Mallocs-m0.Mallocs) / float64(ops)
	t.Logf("%d ops, %.3f Go allocs/op, %.1f B/op", ops, got, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(ops))
	if got > writeAllocBudget {
		t.Errorf("%.3f Go allocs per ordered write, budget %.3f", got, writeAllocBudget)
	}
}
