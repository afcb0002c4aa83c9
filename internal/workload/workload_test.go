package workload

import (
	"testing"

	"repro/internal/fs"
	"repro/internal/sim"
	"repro/internal/stack"
)

func blockCluster(mode stack.Mode, targets ...stack.TargetConfig) (*sim.Engine, *stack.Cluster) {
	eng := sim.New(7)
	cfg := stack.DefaultConfig(mode, targets...)
	cfg.Streams = 12
	cfg.QPs = 12
	return eng, stack.New(eng, cfg)
}

func TestRunBlockJournalPattern(t *testing.T) {
	eng, c := blockCluster(stack.ModeRio, stack.OptaneTarget())
	res := RunBlock(eng, c, BlockJob{Threads: 4, Pattern: PatternJournal, Ordered: true},
		200*sim.Microsecond, 2*sim.Millisecond)
	if res.Requests == 0 {
		t.Fatal("no requests measured")
	}
	if res.KIOPS() <= 0 || res.InitUtil <= 0 || res.TgtUtil <= 0 {
		t.Fatalf("result = %+v", res)
	}
	// The 2-block + 1-block pattern: bytes per request averages 6 KB.
	avg := float64(res.Bytes) / float64(res.Requests)
	if avg < 4096 || avg > 8192 {
		t.Fatalf("avg request bytes = %f, want in (4096, 8192)", avg)
	}
	eng.Shutdown()
}

func TestOrderedModesRankCorrectly(t *testing.T) {
	// The core result of the paper at one operating point: on an Optane
	// target with 4 threads, orderless >= Rio > Horae > Linux.
	measure := func(mode stack.Mode, ordered bool) float64 {
		eng, c := blockCluster(mode, stack.OptaneTarget())
		res := RunBlock(eng, c, BlockJob{Threads: 4, Pattern: PatternJournal, Ordered: ordered},
			200*sim.Microsecond, 2*sim.Millisecond)
		eng.Shutdown()
		return res.KIOPS()
	}
	orderless := measure(stack.ModeOrderless, false)
	rio := measure(stack.ModeRio, true)
	horae := measure(stack.ModeHorae, true)
	linux := measure(stack.ModeLinux, true)
	t.Logf("orderless=%.1f rio=%.1f horae=%.1f linux=%.1f KIOPS", orderless, rio, horae, linux)
	if !(rio > horae && horae > linux) {
		t.Fatalf("ordering broken: rio=%.1f horae=%.1f linux=%.1f", rio, horae, linux)
	}
	if rio < 0.6*orderless {
		t.Fatalf("rio %.1f should be close to orderless %.1f", rio, orderless)
	}
	if rio < 2*linux {
		t.Fatalf("rio %.1f should be far above linux %.1f", rio, linux)
	}
}

func TestRunBlockBatchMerging(t *testing.T) {
	eng, c := blockCluster(stack.ModeRio, stack.OptaneTarget())
	res := RunBlock(eng, c, BlockJob{Threads: 1, Pattern: PatternBatch, Batch: 8, Ordered: true},
		100*sim.Microsecond, sim.Millisecond)
	if res.Requests == 0 {
		t.Fatal("no batch requests")
	}
	if c.Init(0).Stats().FusedCmds == 0 {
		t.Fatal("batch pattern should trigger merging")
	}
	eng.Shutdown()
}

func TestRunBlockSizeSweep(t *testing.T) {
	for _, blocks := range []uint32{1, 8, 16} {
		eng, c := blockCluster(stack.ModeRio, stack.OptaneTarget())
		res := RunBlock(eng, c, BlockJob{
			Threads: 1, Pattern: PatternSize, WriteBlocks: blocks,
			Sequential: true, Ordered: true,
		}, 100*sim.Microsecond, sim.Millisecond)
		if res.Bytes == 0 {
			t.Fatalf("blocks=%d: no bytes", blocks)
		}
		eng.Shutdown()
	}
}

func fsSetup(eng *sim.Engine, mode stack.Mode, design fs.Design) *fs.FS {
	cfg := stack.DefaultConfig(mode, stack.OptaneTarget())
	cfg.Streams = 16
	cfg.QPs = 16
	c := stack.New(eng, cfg)
	fcfg := fs.DefaultOptions(design, 16)
	fcfg.JournalBlocks = 2048
	fcfg.MaxInodes = 1 << 14
	fcfg.DataBlocks = 1 << 20
	return fs.Open(c.Init(0), fcfg)
}

func TestRunFioFsync(t *testing.T) {
	eng := sim.New(9)
	fsys := fsSetup(eng, stack.ModeRio, fs.RioFS)
	res := RunFioFsync(eng, fsys, 4, 200*sim.Microsecond, 2*sim.Millisecond)
	if res.Ops == 0 {
		t.Fatal("no fsyncs measured")
	}
	if res.Lat.Count() == 0 || res.Lat.Mean() == 0 {
		t.Fatal("no latency samples")
	}
	if res.Traces.N == 0 {
		t.Fatal("no traces collected")
	}
	d, jm, jc, wait := res.Traces.Mean()
	if wait == 0 {
		t.Fatalf("trace means: %v %v %v %v", d, jm, jc, wait)
	}
	eng.Shutdown()
}

func TestRunVarmail(t *testing.T) {
	eng := sim.New(10)
	fsys := fsSetup(eng, stack.ModeRio, fs.RioFS)
	res := RunVarmail(eng, fsys, 2, 200*sim.Microsecond, 2*sim.Millisecond)
	if res.Ops == 0 {
		t.Fatal("no varmail ops measured")
	}
	st := fsys.Stats()
	if st.Creates == 0 || st.Fsyncs == 0 {
		t.Fatalf("fs stats = %+v", st)
	}
	eng.Shutdown()
}

func TestRunFillsync(t *testing.T) {
	eng := sim.New(11)
	fsys := fsSetup(eng, stack.ModeRio, fs.RioFS)
	res := RunFillsync(eng, fsys, 2, 200*sim.Microsecond, 2*sim.Millisecond)
	if res.Ops == 0 {
		t.Fatal("no puts measured")
	}
	eng.Shutdown()
}

func TestFioRioBeatsExt4(t *testing.T) {
	run := func(mode stack.Mode, design fs.Design) float64 {
		eng := sim.New(12)
		fsys := fsSetup(eng, mode, design)
		res := RunFioFsync(eng, fsys, 8, 200*sim.Microsecond, 2*sim.Millisecond)
		eng.Shutdown()
		return res.KIOPS()
	}
	rio := run(stack.ModeRio, fs.RioFS)
	ext4 := run(stack.ModeOrderless, fs.Ext4)
	t.Logf("fio fsync: riofs=%.1f ext4=%.1f KIOPS", rio, ext4)
	if rio <= ext4 {
		t.Fatalf("RioFS (%.1f) should outperform Ext4 (%.1f)", rio, ext4)
	}
}
