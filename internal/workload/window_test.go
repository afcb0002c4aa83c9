package workload

import (
	"testing"

	"repro/internal/fs"
	"repro/internal/kv"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
)

// counted is what a driver run reports as "inside the measure window".
type counted struct {
	ops, lat int64
	stats    stack.ClusterStats
}

func (a counted) minus(b counted) counted {
	return counted{ops: a.ops - b.ops, lat: a.lat - b.lat, stats: a.stats.Sub(b.stats)}
}

// TestWarmupStaysOutOfEveryDriversWindow checks the one property the
// warm-up gate exists for, on all seven drivers: an operation that
// completed during warm-up is in neither the op count nor the latency
// histogram (nor the counter deltas). The simulation is deterministic and
// measuring does not perturb it, so for a fixed seed the window
// (w, w+m] must hold exactly what [0, w+m] holds minus what [0, w] holds.
// A leak in either direction — the PR 8 open-loop bug counted warm-up
// completions that were pruned after the gate opened — breaks the equality.
func TestWarmupStaysOutOfEveryDriversWindow(t *testing.T) {
	const w, m = 150 * sim.Microsecond, 250 * sim.Microsecond

	fsRun := func(run func(*sim.Engine, *fs.FS, int, sim.Time, sim.Time) FsResult) func(sim.Time, sim.Time) counted {
		return func(warmup, measure sim.Time) counted {
			eng := sim.New(9)
			defer eng.Shutdown()
			r := run(eng, fsSetup(eng, stack.ModeRio, fs.RioFS), 2, warmup, measure)
			return counted{ops: r.Ops, lat: r.Lat.Count()}
		}
	}
	kvFS := fs.Options{Design: fs.RioFS, Journals: 4, JournalBlocks: 1024, MaxInodes: 1 << 12, DataBlocks: 1 << 18}

	drivers := map[string]func(warmup, measure sim.Time) counted{
		"RunBlock": func(warmup, measure sim.Time) counted {
			eng, c := blockCluster(stack.ModeRio, stack.OptaneTarget())
			defer eng.Shutdown()
			r := RunBlock(eng, c, BlockJob{Threads: 4, Pattern: PatternRandom4K, Ordered: true}, warmup, measure)
			return counted{ops: r.Requests, lat: r.Lat.Count(), stats: r.Stats}
		},
		"RunFioFsync": fsRun(RunFioFsync),
		"RunVarmail":  fsRun(RunVarmail),
		"RunFillsync": fsRun(RunFillsync),
		"RunSatLoad": func(warmup, measure sim.Time) counted {
			eng := sim.New(1)
			defer eng.Shutdown()
			cfg := stack.DefaultConfig(stack.ModeRio, stack.TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig()}})
			cfg.Streams, cfg.QPs, cfg.Fabric.NumQPs = 4, 4, 4
			r := RunSatLoad(eng, stack.New(eng, cfg), SatJob{Streams: 4, OfferedKIOPS: 300}, warmup, measure)
			return counted{ops: r.Completed, lat: r.Lat.Count(), stats: r.Stats}
		},
		"RunRead": func(warmup, measure sim.Time) counted {
			eng, c := serveCluster(7)
			defer eng.Shutdown()
			r := RunRead(eng, c, ReadJob{KVTenants: 1, Threads: 2, Keys: 1 << 12, Preload: 128, ScanBlocks: 64,
				FS: kvFS, KV: kv.Options{MemtableBytes: 16 << 10}}, warmup, measure)
			var n counted
			for _, ten := range r.Tenants {
				n.ops += ten.Ops
				n.lat += ten.Lat.Count()
			}
			return n
		},
		"RunServe": func(warmup, measure sim.Time) counted {
			eng, c := serveCluster(7)
			defer eng.Shutdown()
			job := serveTestJob()
			job.Preload = 64
			r := RunServe(eng, c, job, warmup, measure)
			var n counted
			for _, ten := range r.Tenants {
				n.ops += ten.Ops
				n.lat += ten.Lat.Count()
			}
			return n
		},
	}
	for name, run := range drivers {
		whole, head, window := run(0, w+m), run(0, w), run(w, m)
		if head.ops == 0 || window.ops == 0 {
			t.Errorf("%s: nothing completed (warm-up %d ops, window %d ops): the check is vacuous", name, head.ops, window.ops)
		}
		if want := whole.minus(head); window != want {
			t.Errorf("%s: window holds %d ops and %d latency samples, want %d and %d (whole run minus warm-up); counter deltas match: %v",
				name, window.ops, window.lat, want.ops, want.lat, window.stats == want.stats)
		}
	}
}
