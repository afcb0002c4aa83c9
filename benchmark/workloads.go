package main

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fs"
	"repro/internal/kv"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
)

// workload is one named set of inputs. run makes one seeded run and
// returns the sum of its measure windows in total; where the simulated
// end-to-end metrics are read at one operating point only (the
// 400-kiops point of openloop_knee), point is that window.
type workload struct {
	name string
	why  string
	run  func(seed int64, o options) *result
}

type result struct {
	total *window
	point *window            // window the five base sim metrics are read from (nil = total)
	sim   map[string]float64 // simulated end-to-end metrics beyond the base five
	layer map[string]float64 // per-layer numbers only this workload produces
}

// Simulated windows. They are constants: a change that makes the
// simulator faster shortens the host window, never the simulated one.
const (
	// A block workload warms up for a tenth of its measure window: a
	// set-up of a few host milliseconds would make setup_s a coin toss.
	blockMeas = 60 * sim.Millisecond
	seqMeas   = 400 * sim.Millisecond // FLUSH-bound: a seventh of blk_rand4k's request rate
	warmup    = 500 * sim.Microsecond // kv_mixed (after its preload), openloop_knee, crash_recover
	kvMeas    = 60 * sim.Millisecond
	kneeMeas  = 20 * sim.Millisecond // per offered rate
	kvKeys    = 4 << 20
	kvPreload = 4096
	kvCache   = 64 // per-initiator read cache, 4 KB blocks
	sloP99    = 200 * sim.Microsecond
	crashCuts = 8
	cutEarly  = 2 * sim.Millisecond // a cut falls in [cutEarly, cutLate)
	cutLate   = 6 * sim.Millisecond
)

// kneeRates are the fixed offered rates of openloop_knee, in kiops. The
// five base simulated metrics are read at 400.
var kneeRates = []float64{400, 800, 1000, 1200}

// windows returns the warm-up and measure windows of a run.
func (o options) windows(warm, measure sim.Time) (sim.Time, sim.Time) {
	if o.short {
		return 100 * sim.Microsecond, sim.Millisecond
	}
	return warm, measure
}

func targets(n int, devs ...ssd.Config) []stack.TargetConfig {
	out := make([]stack.TargetConfig, n)
	for i := range out {
		out[i] = stack.TargetConfig{SSDs: append([]ssd.Config(nil), devs...)}
	}
	return out
}

// baseConfig is a Rio cluster with streams = QPs = the thread count.
func baseConfig(mode stack.Mode, streams int, tc []stack.TargetConfig) stack.Config {
	cfg := stack.DefaultConfig(mode, tc...)
	cfg.Streams = streams
	cfg.QPs = streams
	cfg.Fabric.NumQPs = streams
	return cfg
}

// newCluster builds the cluster of one run.
func newCluster(cfg stack.Config, seed int64, o options) (*sim.Engine, *stack.Cluster) {
	cfg.Seed = seed
	if o.traced {
		cfg.Trace = traceConfig
	}
	eng := sim.New(seed)
	return eng, stack.New(eng, cfg)
}

// runBlock makes one closed-loop block run: build, warm up, measure,
// drain, check.
func runBlock(cfg stack.Config, job blockJob, meas sim.Time, seed int64, o options) *window {
	t0 := cpuNow()
	warm, meas := o.windows(meas/10, meas)
	eng, c := newCluster(cfg, seed, o)
	l := newLoad(eng, warm, warm+meas, o.traced)
	l.closedBlock(c, job, seed)
	eng.RunUntil(warm)
	w := &window{}
	before := snapshot(c)
	w.timed(o, t0, quarters(eng, warm+meas)...)
	w.between(c, before, snapshot(c))
	w.drain(eng, l)
	w.takeLoad(l)
	w.audit(c, true)
	eng.Shutdown()
	return w
}

func rand4kConfig(mode stack.Mode) stack.Config {
	return baseConfig(mode, 8, targets(2, ssd.OptaneConfig(), ssd.OptaneConfig()))
}

var rand4kJob = blockJob{threads: 8, window: 8}

func seqBatchConfig(mode stack.Mode) stack.Config {
	cfg := baseConfig(mode, 4, targets(2, ssd.FlashConfig(), ssd.OptaneConfig()))
	// A 4-block stripe chunk: a batch of 16 consecutive blocks becomes
	// four runs of four, one per device, and each run merges into one
	// command with one attribute (Fig. 8a).
	cfg.ChunkBlocks = 4
	return cfg
}

// Batches start on a stripe chunk, so each is four runs of four and its
// tail's FLUSH falls on a flash device (which stalls for it) or an Optane
// (which acknowledges it for free) with equal chance.
var seqBatchJob = blockJob{threads: 4, window: 16, batch: 16, align: 4}

// refKIOPS measures the paper's three baselines on the same topology,
// load and seed as a Rio block workload (over a quarter of its window,
// untraced).
func refKIOPS(config func(stack.Mode) stack.Config, job blockJob, meas sim.Time, seed int64, o options) map[string]float64 {
	out := map[string]float64{}
	for _, mode := range []stack.Mode{stack.ModeOrderless, stack.ModeHorae, stack.ModeLinux} {
		j := job
		j.orderless = mode == stack.ModeOrderless
		w := runBlock(config(mode), j, meas/4, seed, options{short: o.short})
		out["ref."+mode.String()+"_kiops"] = kiops(w)
	}
	return out
}

func blockWorkload(name, why string, config func(stack.Mode) stack.Config, job blockJob, meas sim.Time, refs bool) workload {
	return workload{name: name, why: why, run: func(seed int64, o options) *result {
		r := &result{total: runBlock(config(stack.ModeRio), job, meas, seed, o)}
		if refs && o.traced {
			r.layer = refKIOPS(config, job, meas, seed, o)
		}
		return r
	}}
}

func replConfig(relay bool) func(stack.Mode) stack.Config {
	return func(mode stack.Mode) stack.Config {
		cfg := baseConfig(mode, 4, targets(3, ssd.OptaneConfig()))
		cfg.Replicas = 3
		cfg.ReplRelay = relay
		// Two cores make initiator egress the bottleneck, the regime the
		// relay path exists for.
		cfg.InitiatorCores = 2
		return cfg
	}
}

var replJob = blockJob{threads: 4, window: 8}

// kvFS is the per-tenant file-system sizing of kv_mixed.
var kvFS = fs.Options{Design: fs.RioFS, Journals: 4, JournalBlocks: 2048, MaxInodes: 1 << 14, DataBlocks: 1 << 20}

// kvStore keeps the memtable small, so preloaded keys sit in SST files
// and positive gets read index blocks through the read cache.
var kvStore = kv.Options{MemtableBytes: 256 << 10, NegativeLookup: true, MaxL0Files: 1 << 20}

var (
	kvZipfOnce sync.Once
	kvZipf     *zipf
)

func kvKey(rank uint64) string { return fmt.Sprintf("%016d", rank) }

// runKV makes one kv_mixed run: 2 tenants, each a KV store on its own
// RioFS on its own initiator, 4 threads each, 50 % get / 50 % fsync'd
// put over a Zipfian keyspace whose hot head is preloaded.
func runKV(seed int64, o options) *result {
	// The Zipfian normalisation is a property of the load generator, not
	// of the system: computed once per process, outside any set-up time.
	kvZipfOnce.Do(func() { kvZipf = newZipf(kvKeys, 0.99) })
	const tenants, threads = 2, 4
	preload := kvPreload
	if o.short {
		preload = 512
	}

	t0 := cpuNow()
	warm, meas := o.windows(warmup, kvMeas)
	cfg := baseConfig(stack.ModeRio, threads, targets(4, ssd.OptaneConfig()))
	cfg.Initiators = tenants
	cfg.Replicas = 2
	cfg.CacheBlocks = kvCache
	eng, c := newCluster(cfg, seed, o)

	w := &window{}
	dbs := make([]*kv.DB, tenants)
	var fsyncs struct {
		n                 int64
		d, jm, jc, waitIO sim.Time
	}
	measuring := false
	for ten := 0; ten < tenants; ten++ {
		eng.Go(fmt.Sprintf("load/kvsetup%d", ten), func(p *sim.Proc) {
			opts := kvFS
			opts.BaseLBA = uint64(ten) * kvFS.Blocks()
			fsys := fs.Open(c.Init(ten), opts)
			fsys.TraceHook = func(tr fs.FsyncTrace) {
				if measuring {
					fsyncs.n++
					fsyncs.d += tr.DDispatch
					fsyncs.jm += tr.JMDispatch
					fsyncs.jc += tr.JCDispatch
					fsyncs.waitIO += tr.WaitIO
				}
			}
			db, err := kv.Open(p, fsys, kvStore)
			if err != nil {
				w.fail(1, "kv open: %v", err)
				return
			}
			for k := 0; k < preload; k++ {
				if err := db.Put(p, k%threads, kvKey(uint64(k)), db.Options().ValueSize); err != nil {
					w.fail(1, "kv preload: %v", err)
					return
				}
			}
			dbs[ten] = db
		})
	}
	eng.Run()
	if w.failed > 0 {
		eng.Shutdown()
		return &result{total: w}
	}

	start := eng.Now()
	l := newLoad(eng, start+warm, start+warm+meas, o.traced)
	for ten, db := range dbs {
		// written[rank] is set before a put of the key starts: a get of a
		// key beyond the preload that nobody ever put must miss, a get of
		// a preloaded key must hit (keys are never deleted).
		written := map[uint64]bool{}
		for th := 0; th < threads; th++ {
			gen := ten*threads + th
			l.spawn(fmt.Sprintf("load/kv%d.%d", ten, th), func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(genSeed(seed, gen)))
				for !l.stop {
					rank := kvZipf.next(rng)
					key := kvKey(rank)
					get := rng.Intn(100) < 50
					from := p.Now()
					if get {
						found := db.Get(p, key)
						if (rank < uint64(preload) && !found) || (rank >= uint64(preload) && !written[rank] && found) {
							l.wrong++
						}
					} else {
						written[rank] = true
						if err := db.Put(p, th, key, db.Options().ValueSize); err != nil {
							l.wrong++
						}
					}
					if l.calls != nil && p.Now() >= l.winStart && p.Now() < l.winEnd {
						if get {
							l.calls.get = append(l.calls.get, int64(p.Now()-from))
						} else {
							l.calls.put = append(l.calls.put, int64(p.Now()-from))
						}
					}
					l.done(from, p.Now())
				}
			})
		}
	}
	eng.RunUntil(start + warm)
	before := snapshot(c)
	var kv0 kv.Stats
	for _, db := range dbs {
		kv0 = addKV(kv0, db.Stats())
	}
	measuring = true
	w.timed(o, t0, quarters(eng, start+warm+meas)...)
	measuring = false
	w.between(c, before, snapshot(c))
	var kv1 kv.Stats
	for _, db := range dbs {
		kv1 = addKV(kv1, db.Stats())
	}
	w.drain(eng, l)
	w.takeLoad(l)
	w.audit(c, false)
	eng.Shutdown()

	layer := map[string]float64{
		"kv.bloom_negative_share": perOp(float64(kv1.NegativeHits-kv0.NegativeHits), kv1.Gets-kv0.Gets),
		"fs.fsync.ddispatch_us":   perOp(float64(fsyncs.d)/1e3, fsyncs.n),
		"fs.fsync.jmdispatch_us":  perOp(float64(fsyncs.jm)/1e3, fsyncs.n),
		"fs.fsync.jcdispatch_us":  perOp(float64(fsyncs.jc)/1e3, fsyncs.n),
		"fs.fsync.waitio_us":      perOp(float64(fsyncs.waitIO)/1e3, fsyncs.n),
	}
	return &result{total: w, layer: layer}
}

func addKV(a, b kv.Stats) kv.Stats {
	a.Gets += b.Gets
	a.NegativeHits += b.NegativeHits
	return a
}

// kneeConfig is the saturation fleet: 2 initiators, 4 Optane targets in
// 2-way sets with the device knee model on, bounded fabric TX queues and
// submit-side inflight, and the adaptive governor moving between a
// latency-biased and a throughput-biased batching point. Every initiator
// and every target sees half the offered rate, so the thresholds put 400
// kiops offered below both and 800 kiops above both.
func kneeConfig() stack.Config {
	dev := ssd.OptaneConfig()
	dev.SatKnee = 48
	dev.SatFactorMax = 8
	cfg := baseConfig(stack.ModeRio, 4, targets(4, dev))
	cfg.Initiators = 2
	cfg.Replicas = 2
	cfg.Fabric.TxDepth = 256
	cfg.MaxInflight = 512
	cfg.CQEHold = 8 * sim.Microsecond
	cfg.CQEBatch = 32
	cfg.MaxPlug = 32
	cfg.Governor = stack.GovernorConfig{
		Enabled:     true,
		UpOpsPerSec: 300e3, DownOpsPerSec: 150e3,
		LowHold: sim.Microsecond, HighHold: 8 * sim.Microsecond,
		LowBatch: 4, HighBatch: 32,
		LowPlug: 8, HighPlug: 32,
	}
	return cfg
}

// runKnee makes one openloop_knee run: each offered rate on a fresh
// cluster.
func runKnee(seed int64, o options) *result {
	r := &result{total: &window{}, sim: map[string]float64{}, layer: map[string]float64{}}
	inSLO := 0.0
	for _, rate := range kneeRates {
		t0 := cpuNow()
		warm, meas := o.windows(warmup, kneeMeas)
		eng, c := newCluster(kneeConfig(), seed, o)
		l := newLoad(eng, warm, warm+meas, o.traced)
		ol := l.openLoop(c, openJob{initiators: 2, streams: 4, offeredKIOPS: rate, maxBacklog: 4096}, seed)
		eng.RunUntil(warm)
		w := &window{}
		before := snapshot(c)
		var backlogMid int
		var arrivalsMid int64
		w.timed(o, t0, func() {
			eng.RunUntil(warm + meas/2)
			backlogMid, arrivalsMid = ol.backlog(), ol.arrivals
		}, func() { eng.RunUntil(warm + meas) })
		// The backlog is growing when the second half of the window added
		// more than 2 % of its arrivals to it (a queue that merely
		// fluctuates ends above its mid-window level half of the time).
		growing := float64(ol.backlog()-backlogMid) > 0.02*float64(ol.arrivals-arrivalsMid)
		w.between(c, before, snapshot(c))
		w.drain(eng, l)
		w.takeLoad(l)
		w.lateMax = ol.lateMax
		w.fail(ol.dropped, "%d of %d arrivals at %.0f kiops dropped on a full backlog", ol.dropped, ol.arrivals, rate)
		w.audit(c, true)
		eng.Shutdown()

		p99 := percentile(w.lat, 0.99)
		// Only the p99 below saturation is steady enough to gate: at 1000
		// and 1200 kiops the device knee model feeds back on itself and
		// the p99 of one seed ranges over 2x and 4x.
		switch rate {
		case 400:
			r.point = w
		case 800:
			r.sim["sim_p99_us.o800"] = float64(p99) / 1e3
		default:
			r.layer[fmt.Sprintf("knee.p99_us.o%.0f", rate)] = float64(p99) / 1e3
			r.layer[fmt.Sprintf("knee.kiops.o%.0f", rate)] = kiops(w)
		}
		// A rate is within the limit when its arrival-timed p99 meets it,
		// nothing was dropped and the backlog is not growing.
		if sim.Time(p99) <= sloP99 && ol.dropped == 0 && !growing && rate > inSLO {
			inSLO = rate
		}
		r.total.add(w)
	}
	r.sim["sim_max_kiops_in_slo"] = inSLO
	return r
}

// crashConfig is the recovery fleet: one two-flash target and one
// two-Optane target, media history kept so recovery can roll blocks back,
// merging off so every request has its own attribute and stamp and the
// media is checkable. The device classes are not mixed within a target
// because recovery takes a target's durability rule (PLP or FLUSH-
// certified) from its first device alone.
func crashConfig() stack.Config {
	cfg := baseConfig(stack.ModeRio, 8, []stack.TargetConfig{
		{SSDs: []ssd.Config{ssd.FlashConfig(), ssd.FlashConfig()}},
		{SSDs: []ssd.Config{ssd.OptaneConfig(), ssd.OptaneConfig()}},
	})
	cfg.KeepHistory = true
	cfg.MergeEnabled = false
	// One stripe chunk per generator region pins each stream to one
	// device, so a commit's FLUSH reaches every earlier write of its
	// stream (the target flushes only the device the commit lands on).
	cfg.ChunkBlocks = int(region)
	return cfg
}

// runCrash makes one crash_recover run: crashCuts fresh clusters, each
// loaded with 8 streams of ordered writes (every 4th a commit carrying
// the FLUSH), power-cut whole at a seeded instant, then recovered.
func runCrash(seed int64, o options) *result {
	r := &result{total: &window{}, sim: map[string]float64{}}
	cuts := crashCuts
	lo, hi := cutEarly, cutLate
	warm := warmup
	if o.short {
		cuts, warm, lo, hi = 2, 100*sim.Microsecond, 300*sim.Microsecond, 800*sim.Microsecond
	}
	cutRng := rand.New(rand.NewSource(genSeed(seed, 1<<20)))
	var recoveries []float64
	for k := 0; k < cuts; k++ {
		cut := lo + sim.Time(cutRng.Int63n(int64(hi-lo)))
		cutSeed := seed*crashCuts + int64(k)
		t0 := cpuNow()
		eng, c := newCluster(crashConfig(), cutSeed, o)
		l := newLoad(eng, warm, cut, o.traced)
		subs := make([][]*blockdev.Request, 8)
		l.closedBlock(c, blockJob{
			threads: 8, window: 8, sequential: true, commitEvery: 4,
			onSubmit: func(th int, req *blockdev.Request) { subs[th] = append(subs[th], req) },
		}, cutSeed)
		eng.RunUntil(warm)
		w := &window{}
		before := snapshot(c)
		var report *core.Report
		var tm stack.RecoveryTiming
		w.timed(o, t0, func() {
			eng.RunUntil(cut)
			w.between(c, before, snapshot(c))
			c.PowerCutAll()
			eng.RunFor(sim.Millisecond) // dead epoch's stragglers die out
			eng.Go("recover", func(p *sim.Proc) { report, tm = c.RecoverFull(p) })
			eng.Run()
		})
		// Generators blocked on a write the cut swallowed never return;
		// the requests they submitted are counted from the record.
		l.ops, l.lat = 0, l.lat[:0]
		for _, reqs := range subs {
			for _, req := range reqs {
				if req.Done.Fired() {
					l.done(req.SubmitAt, req.DeliverAt)
				}
			}
		}
		w.takeLoad(l)
		checkRecovered(w, c, report, subs)
		w.audit(c, true)
		eng.Shutdown()
		recoveries = append(recoveries, float64(tm.OrderRebuild+tm.DataRecovery)/1e6)
		r.total.add(w)
	}
	r.sim["sim_recovery_ms"] = median(recoveries)
	return r
}

// checkRecovered is the durability check of crash_recover. Per stream:
// a commit (FLUSH-carrying write) whose completion was delivered before
// the cut, and every write before it, must lie inside the recovered
// prefix; and the media must hold exactly the prefix (§4.8) — every
// write inside it durable with its own stamp, none beyond it surviving.
func checkRecovered(w *window, c *stack.Cluster, report *core.Report, subs [][]*blockdev.Request) {
	if report == nil {
		w.fail(1, "recovery did not finish")
		return
	}
	var lost, torn int64
	for th, reqs := range subs {
		prefix := report.Prefix(uint16(th))
		for _, req := range reqs {
			a := req.Ticket.Attr
			if req.Done.Fired() && a.Flush && a.SeqEnd > prefix {
				lost++
			}
			dev, devLBA := c.Volume().Map(req.LBA)
			ref := c.Volume().Dev(dev)
			rec, ok := c.Target(ref.Server).SSD(ref.SSD).Durable(devLBA)
			ours := ok && rec.Stamp == core.AttrStamp(a)
			if (a.SeqEnd <= prefix) != ours {
				torn++
			}
		}
	}
	w.fail(lost, "%d delivered commits lie beyond the recovered prefix", lost)
	w.fail(torn, "%d writes break the prefix invariant on the media", torn)
}

var workloads = []workload{
	blockWorkload("blk_rand4k", "paper Fig. 10 headline: 4 KB random ordered writes, 8 closed-loop threads x 8 outstanding; sim, dispatch, order gate, nvmeof, PMR log, fabric, ssd do all the work",
		rand4kConfig, rand4kJob, blockMeas, true),
	blockWorkload("blk_seqbatch", "Fig. 3/12 pattern: 4 closed-loop threads of plugged 16-write mergeable batches on flash+Optane; merging does the work, per-op dispatch little; only flash/FLUSH path",
		seqBatchConfig, seqBatchJob, seqMeas, true),
	blockWorkload("repl_r3_direct", "3-way replication by initiator fan-out, 2 initiator cores, 4 closed-loop threads; replica.go quorum accounting dominates, relay.go is bypassed",
		replConfig(false), replJob, blockMeas, false),
	blockWorkload("repl_r3_relay", "same as repl_r3_direct over the target-to-target relay; with its twin it shows what one write path costs the other",
		replConfig(true), replJob, blockMeas, false),
	{name: "kv_mixed", why: "2 tenants, KV on RioFS on 2-way sets, 4 closed-loop threads each, 50/50 get/fsync'd put, Zipf 0.99, cache smaller than working set; fs journal, kv WAL/bloom, rcache do the work",
		run: runKV},
	{name: "openloop_knee", why: "open loop: Poisson arrivals from 2x4 generators at 400/800/1000/1200 kiops; only workload where queueing, submit gate, TX stalls, governor matter",
		run: runKnee},
	{name: "crash_recover", why: "8 seeded whole-cluster power cuts under 8 ordered streams, then full recovery; only workload where PMR scan/analysis and crash.go work; durability check",
		run: runCrash},
}

func kiops(w *window) float64 {
	if w.simNs <= 0 {
		return 0
	}
	return float64(w.ops) / float64(w.simNs) * 1e6
}
