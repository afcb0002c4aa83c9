package fs

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/stack"
)

// fsyncAllocBudget is Go allocations per one-block append + fsync on RioFS
// over one Optane target, past a warm-up (measured 1.078). One is
// buildTxn's journal buffer; the rest is the dirty list's growth, once per
// dirtyChunk fsyncs. The stack's D, JM and JC requests and the transaction
// record are released and reused.
const fsyncAllocBudget = 1.1

// runAppendFsync mounts RioFS on one Optane target and runs warm, then n,
// one-block appends each followed by an fsync of the file. around(true)
// is called as the n begin and around(false) once they are done.
func runAppendFsync(warm, n int, around func(start bool)) {
	eng := sim.New(1)
	fsys := Open(stack.New(eng, stack.DefaultConfig(stack.ModeRio, stack.OptaneTarget())).Init(0),
		Options{Design: RioFS})
	eng.Go("app", func(p *sim.Proc) {
		f, err := fsys.Create(p, "log")
		if err != nil {
			panic(err)
		}
		for i := 0; i < warm+n; i++ {
			if i == warm {
				around(true)
			}
			if err := fsys.Append(p, f, BlockSize); err != nil {
				panic(err)
			}
			fsys.Fsync(p, f, 0)
		}
		around(false)
	})
	eng.Run()
	eng.Shutdown()
}

// TestFsyncAllocBudget fails when a RioFS fsync starts allocating more than
// its budget: one allocation per journal transaction, not one per block, and
// no per-commit or per-block bookkeeping.
func TestFsyncAllocBudget(t *testing.T) {
	const n = 4096
	var m0, m1 runtime.MemStats
	runAppendFsync(256, n, func(start bool) {
		if start {
			runtime.ReadMemStats(&m0)
		} else {
			runtime.ReadMemStats(&m1)
		}
	})
	allocs := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("%.3f Go allocs, %.1f B per append + fsync", allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	if allocs > fsyncAllocBudget {
		t.Errorf("%.3f Go allocs per append + fsync, budget %.2f", allocs, fsyncAllocBudget)
	}
}

// BenchmarkAppendFsync is the budgeted path: one op is a one-block append
// and its fsync, so ns/op, B/op and allocs/op (-benchmem) are the host's
// cost per fsync, the stack underneath included.
func BenchmarkAppendFsync(b *testing.B) {
	runAppendFsync(256, b.N, func(start bool) {
		if start {
			b.ResetTimer()
		} else {
			b.StopTimer()
		}
	})
}
