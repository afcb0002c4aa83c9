package repro

// One benchmark per table/figure of the paper's evaluation (§6). Each
// drives the same harness as cmd/riobench in quick mode and reports the
// headline metric so regressions in the reproduced shapes are visible in
// benchmark output. Run everything with:
//
//	go test -bench=. -benchmem
//
// For full-length sweeps use: go run ./cmd/riobench -exp all

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

func runExp(b *testing.B, name string) *bench.Result {
	b.Helper()
	var res *bench.Result
	for i := 0; i < b.N; i++ {
		r, err := bench.Run(name, bench.Options{Quick: true, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	if res == nil || len(res.Tables) == 0 {
		b.Fatal("experiment produced no tables")
	}
	b.Log("\n" + res.Render())
	return res
}

// point measures one block-bench configuration and returns KIOPS.
func point(b *testing.B, mode stack.Mode, ordered bool, threads int) workload.BlockResult {
	b.Helper()
	eng := sim.New(1)
	cfg := stack.DefaultConfig(mode, stack.OptaneTarget())
	c := stack.New(eng, cfg)
	res := workload.RunBlock(eng, c,
		workload.BlockJob{Threads: threads, Pattern: workload.PatternRandom4K, Ordered: ordered},
		200*sim.Microsecond, 2*sim.Millisecond)
	eng.Shutdown()
	return res
}

func BenchmarkFig02Motivation(b *testing.B)  { runExp(b, "fig2") }
func BenchmarkFig03MergingCPU(b *testing.B)  { runExp(b, "fig3") }
func BenchmarkFig10aFlash(b *testing.B)      { runExp(b, "fig10a") }
func BenchmarkFig10bOptane(b *testing.B)     { runExp(b, "fig10b") }
func BenchmarkFig10cTwoSSD(b *testing.B)     { runExp(b, "fig10c") }
func BenchmarkFig10dTwoTargets(b *testing.B) { runExp(b, "fig10d") }
func BenchmarkFig11WriteSizes(b *testing.B)  { runExp(b, "fig11") }
func BenchmarkFig12BatchSizes(b *testing.B)  { runExp(b, "fig12") }
func BenchmarkFig13Filesystem(b *testing.B)  { runExp(b, "fig13") }
func BenchmarkFig14Breakdown(b *testing.B)   { runExp(b, "fig14") }
func BenchmarkFig15aVarmail(b *testing.B)    { runExp(b, "fig15a") }
func BenchmarkFig15bRocksDB(b *testing.B)    { runExp(b, "fig15b") }
func BenchmarkRecoveryTime(b *testing.B)     { runExp(b, "recovery") }

// BenchmarkOrderedWriteThroughput reports the headline single-point
// numbers (12 threads, Optane, 4 KB random ordered writes) per system.
func BenchmarkOrderedWriteThroughput(b *testing.B) {
	for _, sys := range []struct {
		name    string
		mode    stack.Mode
		ordered bool
	}{
		{"rio", stack.ModeRio, true},
		{"horae", stack.ModeHorae, true},
		{"linux", stack.ModeLinux, true},
		{"orderless", stack.ModeOrderless, false},
	} {
		b.Run(sys.name, func(b *testing.B) {
			var last workload.BlockResult
			for i := 0; i < b.N; i++ {
				last = point(b, sys.mode, sys.ordered, 12)
			}
			b.ReportMetric(last.KIOPS(), "KIOPS")
			b.ReportMetric(last.InitUtil*100, "init-cpu-%")
			b.ReportMetric(last.TgtUtil*100, "target-cpu-%")
		})
	}
}

// BenchmarkFsync reports per-design fsync latency (1 thread, Optane).
func BenchmarkFsync(b *testing.B) {
	designs := []struct {
		name   string
		mode   stack.Mode
		design fs.Design
	}{
		{"riofs", stack.ModeRio, fs.RioFS},
		{"horaefs", stack.ModeHorae, fs.HoraeFS},
		{"ext4", stack.ModeOrderless, fs.Ext4},
	}
	for _, d := range designs {
		b.Run(d.name, func(b *testing.B) {
			var lat metrics.Histogram
			for i := 0; i < b.N; i++ {
				eng := sim.New(1)
				cfg := stack.DefaultConfig(d.mode, stack.OptaneTarget())
				c := stack.New(eng, cfg)
				fcfg := fs.DefaultOptions(d.design, 8)
				fcfg.JournalBlocks = 2048
				fsys := fs.Open(c.Init(0), fcfg)
				r := workload.RunFioFsync(eng, fsys, 1, 200*sim.Microsecond, 2*sim.Millisecond)
				lat = r.Lat
				eng.Shutdown()
			}
			b.ReportMetric(float64(lat.Mean())/1e3, "fsync-us")
			b.ReportMetric(float64(lat.P99())/1e3, "p99-us")
		})
	}
}

// BenchmarkRecoveryPrefix measures one full crash-recovery cycle.
func BenchmarkRecoveryPrefix(b *testing.B) {
	var order, data sim.Time
	for i := 0; i < b.N; i++ {
		eng := sim.New(int64(i + 1))
		cfg := stack.DefaultConfig(stack.ModeRio, stack.OptaneTarget(), stack.OptaneTarget())
		cfg.KeepHistory = true
		c := stack.New(eng, cfg)
		stopped := false
		for th := 0; th < 8; th++ {
			th := th
			eng.Go("wl", func(p *sim.Proc) {
				for j := 0; !stopped; j++ {
					c.Init(0).OrderedWrite(p, th, uint64(th)<<22|uint64(j), 1, 0, nil, true, false, false)
					p.Sleep(2 * sim.Microsecond)
				}
			})
		}
		eng.At(100*sim.Microsecond, func() { c.PowerCutAll(); stopped = true })
		eng.RunUntil(time1ms())
		var tm stack.RecoveryTiming
		eng.Go("rec", func(p *sim.Proc) { _, tm = c.RecoverFull(p) })
		eng.Run()
		order, data = tm.OrderRebuild, tm.DataRecovery
		eng.Shutdown()
	}
	b.ReportMetric(order.Seconds()*1e3, "order-rebuild-ms")
	b.ReportMetric(data.Seconds()*1e3, "data-recovery-ms")
}

func time1ms() sim.Time { return sim.Millisecond }

// sanity: ensure figure names stay wired to the harness.
func TestBenchNamesMatchHarness(t *testing.T) {
	for _, n := range bench.Names() {
		if !strings.HasPrefix(n, "fig") && n != "recovery" && n != "ablation" && n != "tcp" && n != "scale" && n != "replication" && n != "policy" && n != "serve" && n != "read" && n != "satload" && n != "trace" {
			t.Errorf("unexpected experiment name %q", n)
		}
	}
}

// BenchmarkAblations exercises the Principle-2 and PMR-latency ablations.
func BenchmarkAblations(b *testing.B) { runExp(b, "ablation") }

// BenchmarkTCPTransport runs the NVMe/TCP variant (§4.5, Principle 2).
func BenchmarkTCPTransport(b *testing.B) { runExp(b, "tcp") }
