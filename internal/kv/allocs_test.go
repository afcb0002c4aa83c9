package kv

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/sim"
)

// putAllocBudget is Go allocations per fsync'd Put past a warm-up, 2 %
// above the measured 1.203 (1.21 under -race): the RioFS fsync under it —
// its journal buffer, about one per put (fs's fsyncAllocBudget) — and the
// memtable map's growth.
const putAllocBudget = 1.203 * 1.02

// TestPutAllocBudget fails when a fillsync Put starts allocating more than
// its budget. The keys are formatted before the measured window.
func TestPutAllocBudget(t *testing.T) {
	const warm, n = 256, 2048
	eng, fsys, cfg := testDB(1)
	cfg.MemtableBytes = 64 << 20 // no rotation inside the window
	keys := make([]string, warm+n)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%012d", i)
	}
	var m0, m1 runtime.MemStats
	eng.Go("app", func(p *sim.Proc) {
		db, err := Open(p, fsys, cfg)
		if err != nil {
			t.Error(err)
			return
		}
		for i, k := range keys {
			if i == warm {
				runtime.ReadMemStats(&m0)
			}
			if err := db.Put(p, i%4, k, cfg.ValueSize); err != nil {
				t.Error(err)
				return
			}
		}
		runtime.ReadMemStats(&m1)
	})
	eng.Run()
	eng.Shutdown()
	allocs := float64(m1.Mallocs-m0.Mallocs) / n
	t.Logf("%.3f Go allocs, %.1f B per fsync'd put", allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/n)
	if allocs > putAllocBudget {
		t.Errorf("%.3f Go allocs per fsync'd put, budget %.3f", allocs, putAllocBudget)
	}
}
