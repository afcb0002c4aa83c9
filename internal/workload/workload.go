// Package workload implements the paper's benchmark drivers: the block
// microbenchmarks of §6.2 (journaling pairs, random/sequential writes of
// varying size, mergeable batches), the FIO append+fsync job of §6.3, the
// Filebench Varmail personality of §6.4, and db_bench fillsync. Each
// driver runs threads as simulated processes, applies a warmup window,
// and reports throughput, latency and per-server CPU utilization.
package workload

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/fs"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stack"
)

// Meter accumulates results with a warmup gate.
type Meter struct {
	warm    bool
	ops     int64
	bytes   int64
	lat     metrics.Histogram
	started sim.Time
}

// open starts the measure window: operations recorded from now on count.
func (m *Meter) open(now sim.Time) { m.warm, m.started = true, now }

// window is what one warm-up → measure run observed of the cluster: the
// measure window's length, per-server CPU utilization, and the counter
// deltas of every stats owner.
type window struct {
	Elapsed           sim.Time
	InitUtil, TgtUtil float64
	Stats             stack.ClusterStats
	TgtStats          stack.TargetStats
	Cache             stack.RCacheStats
}

// measureWindow is the one warm-up → measure sequence every driver runs:
// advance through the warm-up, call open (the driver flips its meters and
// takes whatever private snapshots it needs), snapshot utilization and
// counters, advance through the measure window, and return the deltas.
// Nothing an operation did before open returned may reach a result.
func measureWindow(eng *sim.Engine, c *stack.Cluster, warmup, measure sim.Time, open func()) window {
	eng.RunUntil(eng.Now() + warmup)
	open()
	started := eng.Now()
	iu0, tu0 := c.InitiatorUtil(), c.TargetUtil()
	st0, ts0, rc0 := c.StatsAll(), c.TargetStatsAll(), c.ReadCacheStatsAll()
	eng.RunUntil(eng.Now() + measure)
	return window{
		Elapsed:  eng.Now() - started,
		InitUtil: metrics.Utilization(iu0, c.InitiatorUtil()),
		TgtUtil:  metrics.Utilization(tu0, c.TargetUtil()),
		Stats:    c.StatsAll().Sub(st0),
		TgtStats: c.TargetStatsAll().Sub(ts0),
		Cache:    c.ReadCacheStatsAll().Sub(rc0),
	}
}

// kiops is thousands of operations per second over a window.
func kiops(ops int64, elapsed sim.Time) float64 {
	return metrics.Window{Elapsed: elapsed, Ops: ops}.KIOPS()
}

// Op records one completed operation of b bytes with latency l.
func (m *Meter) Op(b int64, l sim.Time) {
	if !m.warm {
		return
	}
	m.ops++
	m.bytes += b
	if l > 0 {
		m.lat.Record(l)
	}
}

// Pattern selects the block-bench access pattern.
type Pattern int

const (
	// PatternJournal issues the Fig. 2 pair: an 8 KB ordered write then a
	// consecutive 4 KB ordered write (journal description+metadata, then
	// commit record).
	PatternJournal Pattern = iota
	// PatternRandom4K issues independent 4 KB ordered writes at random
	// offsets (Fig. 10).
	PatternRandom4K
	// PatternSize issues WriteBlocks-sized writes, random or sequential
	// (Fig. 11).
	PatternSize
	// PatternBatch issues Batch consecutive mergeable 4 KB ordered writes
	// then waits for the tail (Figs. 3 and 12).
	PatternBatch
)

// BlockJob configures a block-device benchmark.
type BlockJob struct {
	Threads     int // application threads per initiator
	Initiators  int // initiator servers to drive (0 = 1)
	Pattern     Pattern
	Ordered     bool // false: orderless baseline
	WriteBlocks uint32
	Sequential  bool
	Batch       int
}

// blockWindow is the outstanding groups per thread before a block job waits.
const blockWindow = 8

// BlockResult is the measured outcome.
type BlockResult struct {
	Elapsed  sim.Time
	Requests int64
	Bytes    int64
	InitUtil float64
	TgtUtil  float64
	Lat      metrics.Histogram
	// Stats holds the initiator counter deltas over the measurement
	// window (pool hit rate, batch occupancy, allocs per request).
	Stats stack.ClusterStats
	// TgtStats holds the target-fleet counter deltas over the same
	// window (commands processed, PMR traffic, holdbacks, hot-path
	// allocations — the ordering-engine dense-table headline).
	TgtStats stack.TargetStats
}

// KIOPS returns thousands of requests per second.
func (r BlockResult) KIOPS() float64 { return kiops(r.Requests, r.Elapsed) }

// MaxLatUS returns the worst observed request latency in microseconds —
// the failover-blip headline of the replication experiment (a replica
// power cut mid-measurement shows up as the tail of this window).
func (r BlockResult) MaxLatUS() float64 {
	return float64(r.Lat.Max()) / 1000
}

// GBps returns data gigabytes per second.
func (r BlockResult) GBps() float64 {
	return metrics.Window{Elapsed: r.Elapsed, Bytes: r.Bytes}.GBps()
}

// Efficiency returns KIOPS per unit of CPU utilization.
func (r BlockResult) Efficiency(util float64) float64 {
	return metrics.Efficiency(r.KIOPS(), util)
}

// RunBlock executes a block benchmark on c for warmup+measure. With
// job.Initiators > 1, every initiator runs its own set of job.Threads
// threads against a private LBA area, and the result aggregates the
// whole cluster (throughput sums; utilization averages over the combined
// initiator cores).
func RunBlock(eng *sim.Engine, c *stack.Cluster, job BlockJob, warmup, measure sim.Time) BlockResult {
	if job.Initiators <= 0 {
		job.Initiators = 1
	}
	m := &Meter{}
	const region = uint64(1 << 20) // private 4 GB area per thread (blocks)
	for ii := 0; ii < job.Initiators; ii++ {
		in := c.Init(ii)
		for th := 0; th < job.Threads; th++ {
			ii, th := ii, th
			eng.Go(fmt.Sprintf("wl/blk%d.%d", ii, th), func(p *sim.Proc) {
				rng := eng.Rand()
				base := uint64(ii*job.Threads+th) * region
				var next uint64
				var pending []*blockdev.Request
				stamp := uint64(ii*job.Threads+th) << 32
				write := func(lba uint64, blocks uint32, boundary, flush bool) *blockdev.Request {
					stamp++
					if job.Ordered {
						return in.OrderedWrite(p, th, lba, blocks, stamp, nil, boundary, flush, false)
					}
					return in.OrderlessWrite(p, th, lba, blocks, stamp, nil)
				}
				reap := func(force bool) {
					// Count everything already delivered, then block only when
					// the outstanding window is exceeded.
					for len(pending) > 0 &&
						(force || pending[0].Done.Fired() || len(pending) >= blockWindow) {
						r := pending[0]
						pending = pending[1:]
						in.Wait(p, r)
						blocks := int64(r.Blocks)
						m.Op(blocks*4096, r.DeliverAt-r.SubmitAt)
					}
				}
				for {
					switch job.Pattern {
					case PatternJournal:
						lba := base + next
						next = (next + 3) % region
						pending = append(pending, write(lba, 2, true, false))
						pending = append(pending, write(lba+2, 1, true, false))
					case PatternRandom4K:
						lba := base + uint64(rng.Int63n(int64(region)))
						pending = append(pending, write(lba, 1, true, false))
					case PatternSize:
						var lba uint64
						if job.Sequential {
							lba = base + next
							next = (next + uint64(job.WriteBlocks)) % region
						} else {
							lba = base + uint64(rng.Int63n(int64(region-uint64(job.WriteBlocks))))
						}
						pending = append(pending, write(lba, job.WriteBlocks, true, false))
					case PatternBatch:
						// The paper controls mergeable batches with
						// blk_start_plug / blk_finish_plug (Fig. 3).
						lba := base + next
						next = (next + uint64(job.Batch)) % region
						in.StartPlug(th)
						for b := 0; b < job.Batch; b++ {
							pending = append(pending, write(lba+uint64(b), 1, true, false))
						}
						in.FinishPlug(p, th)
					}
					reap(false)
				}
			})
		}
	}
	w := measureWindow(eng, c, warmup, measure, func() { m.open(eng.Now()) })
	return BlockResult{
		Elapsed:  w.Elapsed,
		Bytes:    m.bytes,
		Requests: m.ops,
		InitUtil: w.InitUtil,
		TgtUtil:  w.TgtUtil,
		Lat:      m.lat,
		Stats:    w.Stats,
		TgtStats: w.TgtStats,
	}
}

// FsResult is the outcome of a file-system benchmark.
type FsResult struct {
	Elapsed  sim.Time
	Ops      int64
	Lat      metrics.Histogram
	InitUtil float64
	TgtUtil  float64
	Traces   TraceAgg
}

// TraceAgg averages fsync phase breakdowns (Fig. 14).
type TraceAgg struct {
	N                            int64
	DDisp, JMDisp, JCDisp, WaitT sim.Time
}

// Add accumulates one trace.
func (t *TraceAgg) Add(tr fs.FsyncTrace) {
	t.N++
	t.DDisp += tr.DDispatch
	t.JMDisp += tr.JMDispatch
	t.JCDisp += tr.JCDispatch
	t.WaitT += tr.WaitIO
}

// Mean returns the averaged phases.
func (t TraceAgg) Mean() (d, jm, jc, wait sim.Time) {
	if t.N == 0 {
		return
	}
	n := sim.Time(t.N)
	return t.DDisp / n, t.JMDisp / n, t.JCDisp / n, t.WaitT / n
}

// KIOPS returns thousands of operations per second.
func (r FsResult) KIOPS() float64 { return kiops(r.Ops, r.Elapsed) }

// measureFs runs the window for a file-system driver and folds the meter
// into its result.
func measureFs(eng *sim.Engine, fsys *fs.FS, m *Meter, warmup, measure sim.Time) FsResult {
	w := measureWindow(eng, fsys.Cluster(), warmup, measure, func() { m.open(eng.Now()) })
	return FsResult{Elapsed: w.Elapsed, Ops: m.ops, Lat: m.lat, InitUtil: w.InitUtil, TgtUtil: w.TgtUtil}
}

// RunFioFsync runs the §6.3 microbenchmark: each thread appends 4 KB to a
// private file and fsyncs, continuously.
func RunFioFsync(eng *sim.Engine, fsys *fs.FS, threads int, warmup, measure sim.Time) FsResult {
	m := &Meter{}
	agg := &TraceAgg{}
	fsys.TraceHook = func(tr fs.FsyncTrace) {
		if m.warm {
			agg.Add(tr)
		}
	}
	for th := 0; th < threads; th++ {
		th := th
		eng.Go(fmt.Sprintf("wl/fio%d", th), func(p *sim.Proc) {
			f, err := fsys.Create(p, fmt.Sprintf("fio%d", th))
			if err != nil {
				return
			}
			for {
				start := p.Now()
				if err := fsys.Append(p, f, 4096); err != nil {
					return
				}
				fsys.Fsync(p, f, th)
				if m.warm {
					m.Op(4096, p.Now()-start)
				}
			}
		})
	}
	res := measureFs(eng, fsys, m, warmup, measure)
	res.Traces = *agg
	return res
}

// RunVarmail runs a Filebench-Varmail-like personality: per-thread
// directories with create/append/fsync, read, append/fsync, delete — the
// metadata- and fsync-intensive mix of §6.4.
func RunVarmail(eng *sim.Engine, fsys *fs.FS, threads int, warmup, measure sim.Time) FsResult {
	m := &Meter{}
	const fileKB = 16
	const keepFiles = 20
	for th := 0; th < threads; th++ {
		th := th
		eng.Go(fmt.Sprintf("wl/vm%d", th), func(p *sim.Proc) {
			dir := fmt.Sprintf("vm%d", th)
			if err := fsys.Mkdir(p, dir); err != nil {
				return
			}
			var files []string
			n := 0
			for {
				// create + append + fsync (new mail).
				name := fmt.Sprintf("%s/m%06d", dir, n)
				n++
				start := p.Now()
				f, err := fsys.Create(p, name)
				if err != nil {
					return
				}
				fsys.Append(p, f, fileKB*1024/2)
				fsys.Fsync(p, f, th)
				m.Op(fileKB*1024/2, p.Now()-start)
				files = append(files, name)

				// read an older mail.
				start = p.Now()
				if len(files) > 1 {
					if rf, err := fsys.Open(p, files[0]); err == nil {
						fsys.Read(p, rf, 0, fileKB*1024/2)
					}
				}
				m.Op(0, p.Now()-start)

				// append + fsync (reply).
				start = p.Now()
				fsys.Append(p, f, fileKB*1024/2)
				fsys.Fsync(p, f, th)
				m.Op(fileKB*1024/2, p.Now()-start)

				// delete the oldest beyond the working set.
				if len(files) > keepFiles {
					start = p.Now()
					fsys.Unlink(p, files[0])
					files = files[1:]
					m.Op(0, p.Now()-start)
				}
			}
		})
	}
	return measureFs(eng, fsys, m, warmup, measure)
}

// RunFillsync runs db_bench fillsync: threads issue random-key puts with
// 16-byte keys and 1024-byte values (§6.4).
func RunFillsync(eng *sim.Engine, fsys *fs.FS, threads int, warmup, measure sim.Time) FsResult {
	m := &Meter{}
	cfg := kv.DefaultOptions()
	var db *kv.DB
	eng.Go("wl/dbopen", func(p *sim.Proc) {
		var err error
		db, err = kv.Open(p, fsys, cfg)
		if err != nil {
			panic(err)
		}
	})
	eng.RunUntil(eng.Now() + sim.Microsecond)
	if db == nil {
		panic("workload: db did not open")
	}
	for th := 0; th < threads; th++ {
		th := th
		eng.Go(fmt.Sprintf("wl/db%d", th), func(p *sim.Proc) {
			rng := eng.Rand()
			for {
				key := fmt.Sprintf("%016d", rng.Int63n(20<<20/1040))
				start := p.Now()
				if err := db.Put(p, th, key, cfg.ValueSize); err != nil {
					return
				}
				m.Op(int64(cfg.KeySize+cfg.ValueSize), p.Now()-start)
			}
		})
	}
	return measureFs(eng, fsys, m, warmup, measure)
}
