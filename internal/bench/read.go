// Read experiment: the initiator-side read path on the replicated
// multi-initiator stack. Two YCSB-C tenants (100% Get over a 4-Mi-key
// Zipfian keyspace with only a preloaded hot head present) plus one
// sequential-scan tenant share four Optane targets in 2-way replica
// sets, and the sweep varies the per-initiator block-cache size —
// point c0 runs with every read feature off (the pre-PR-7 read path),
// the others add the cache, read-ahead and KV negative lookups. The
// gates track the hit rate, aggregate throughput and tail latency at
// the largest cache against the feature-off baseline.
package bench

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stack"
	"repro/internal/workload"
)

// readKVTenants is the YCSB-C tenant count; one more initiator hosts
// the sequential-scan tenant.
const readKVTenants = 2

// readAheadDepth is the prefetch window used when the cache is on.
const readAheadDepth = 8

// readJob is the workload shape: a serve-like keyspace where most Gets
// are negative, SST probes carry the positive traffic, and the scan
// tenant streams an 8192-block (32 MiB) file.
func readJob() workload.ReadJob {
	return workload.ReadJob{
		KVTenants:  readKVTenants,
		Threads:    4,
		Keys:       4 << 20,
		Theta:      0.99,
		Preload:    4096,
		ScanBlocks: 8192,
		FS: fs.Options{
			Design:        fs.RioFS,
			Journals:      4,
			JournalBlocks: 2048,
			MaxInodes:     1 << 14,
			DataBlocks:    1 << 18,
		},
		// A small memtable pushes the preloaded keys into SST files, so
		// positive Gets probe index blocks over the fabric — the traffic
		// the block cache absorbs.
		KV: kv.Options{MemtableBytes: 256 << 10},
	}
}

// runReadPoint builds the read topology — three initiators, four
// one-SSD Optane targets in 2-way replica sets — and drives the job
// with one cache size (0 = every read feature off).
func runReadPoint(o Options, cacheBlocks int) (workload.ReadResult, int) {
	eng := sim.New(o.seed())
	cfg := stack.DefaultConfig(stack.ModeRio, replTargets(4)...)
	cfg.Initiators = readKVTenants + 1
	cfg.Replicas = 2
	cfg.Streams = 4
	cfg.QPs = 4
	job := readJob()
	if cacheBlocks > 0 {
		cfg.CacheBlocks = cacheBlocks
		cfg.ReadAhead = readAheadDepth
		job.KV.NegativeLookup = true
	}
	c := o.newCluster(eng, cfg)
	warm, meas := o.windows()
	res := workload.RunRead(eng, c, job, warm, meas)
	violations := orderViolations(c)
	eng.Shutdown()
	return res, violations
}

// ReadSweep is the "read" experiment.
func ReadSweep(o Options) *Result {
	res := &Result{Name: "read: block cache, read-ahead and negative lookups on the read path"}
	// c0 is the feature-off baseline; c1024 is smaller than the scan
	// file, so CLOCK eviction and read-ahead carry the stream; c65536
	// holds every tenant's working set.
	sizes := []int{0, 1024, 65536}
	violations := 0
	var tput, p99, hit, msgs metrics.Series
	tput.Label, p99.Label, hit.Label, msgs.Label = "kiops", "p99 us", "hit %", "msgs/op"
	var base, mid, best workload.ReadResult
	for _, blocks := range sizes {
		rr, v := runReadPoint(o, blocks)
		violations += v
		if blocks == 1024 {
			mid = rr
		}
		key := fmt.Sprintf("c%d", blocks)
		tput.Add(float64(blocks), rr.KIOPS())
		p99.Add(float64(blocks), rr.P99US())
		hit.Add(float64(blocks), 100*rr.HitRate())
		msgs.Add(float64(blocks), rr.MsgsPerOp())
		res.Metric("read.rio.kiops."+key, rr.KIOPS())
		res.Metric("read.rio.p99_us."+key, rr.P99US())
		res.Metric("read.rio.hit_rate."+key, rr.HitRate())
		res.Metric("read.rio.msgs_per_op."+key, rr.MsgsPerOp())
		res.Notes = append(res.Notes, fmt.Sprintf(
			"cache %d blocks: %.1f kiops, p99 %.1f µs, hit %.0f%%, %.2f msgs/op, %d negative hits, %d prefetched",
			blocks, rr.KIOPS(), rr.P99US(), 100*rr.HitRate(), rr.MsgsPerOp(),
			rr.NegativeHits, rr.Cache.ReadAheadIssued))
		if blocks == 0 {
			base = rr
		}
		best = rr
	}
	// Headline gates: the largest cache against the feature-off baseline.
	res.Metric("read.rio.kiops", best.KIOPS())
	res.Metric("read.rio.p99_us", best.P99US())
	res.Metric("read.rio.hit_rate", best.HitRate())
	res.Metric("read.rio.msgs_per_op", best.MsgsPerOp())
	res.Metric("read.rio.kiops.nocache", base.KIOPS())
	res.Metric("read.rio.p99_us.nocache", base.P99US())
	res.Metric("read.rio.msgs_per_op.nocache", base.MsgsPerOp())
	// Read-ahead is reported at c1024, where the cache is smaller than
	// the scan file so the prefetcher actually runs ahead of the stream
	// inside the measurement window. At c65536 the whole file is resident
	// after warmup and the window issues zero prefetches — reporting the
	// largest point would gate a permanently-dead metric.
	res.Metric("read.rio.readahead_issued", float64(mid.Cache.ReadAheadIssued))
	res.Metric("read.rio.readahead_hits", float64(mid.Cache.ReadAheadHits))
	res.Metric("read.rio.negative_hits", float64(best.NegativeHits))
	res.Metric("read.rio.order_violations", float64(violations))
	res.Tables = append(res.Tables, metrics.Table(
		fmt.Sprintf("cache-size sweep, %d YCSB-C tenants + 1 scan tenant on %d initiators, 4 Mi Zipfian keys (θ=0.99), 4 Optane targets in 2-way replica sets",
			readKVTenants, readKVTenants+1),
		"cache blocks", tput, p99, hit, msgs))
	res.Notes = append(res.Notes,
		"c0 = cache, read-ahead and negative lookups all off (the pre-read-path stack); other points turn all three on")
	return res
}
