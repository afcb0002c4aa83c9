// Read driver: the read-heavy serving scenario the PR-7 read path is
// built for. Two kinds of tenants share one replicated target fleet:
// YCSB-C tenants (100% Get) drive a RocksDB-style store over a
// multi-million-key Zipfian keyspace where only a preloaded hot head
// exists — so most Gets are negative (bloom-filter territory) and the
// hits probe SST index blocks over the fabric (block-cache territory) —
// and one scan tenant reads a large file sequentially (read-ahead
// territory). The result reports throughput, tail latency, the cache
// hit rate and fabric messages per operation over the measure window.
package workload

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stack"
)

// ReadJob configures the read-path benchmark.
type ReadJob struct {
	KVTenants int // YCSB-C tenants, one per initiator (0 = 2)
	Threads   int // application threads per KV tenant (0 = 4)
	// Keys is the keyspace the Zipfian generator draws from (0 = 4 Mi);
	// only ranks below Preload exist, so the rest of the draws are
	// negative lookups.
	Keys    uint64
	Theta   float64 // Zipfian skew (0 = 0.99)
	Preload int     // live keys per store (0 = 4096)
	// ScanBlocks sizes the scan tenant's file (0 = 2048 blocks). The
	// scan tenant reads it sequentially, one block per op, wrapping at
	// the end; 0 tenants are configured by setting KVTenants to the
	// initiator count (the scan tenant runs on the last initiator).
	ScanBlocks uint64
	FS         fs.Options // per-tenant sizing; BaseLBA assigned per tenant
	KV         kv.Options
}

func (j ReadJob) withDefaults(c *stack.Cluster) ReadJob {
	if j.KVTenants == 0 {
		j.KVTenants = c.Initiators() - 1
		if j.KVTenants < 1 {
			j.KVTenants = 1
		}
	}
	if j.Threads == 0 {
		j.Threads = 4
	}
	if j.Keys == 0 {
		j.Keys = 4 << 20
	}
	if j.Theta == 0 {
		j.Theta = 0.99
	}
	if j.Preload == 0 {
		j.Preload = 4096
	}
	if j.ScanBlocks == 0 {
		j.ScanBlocks = 2048
	}
	return j
}

// scanTenant reports whether the cluster has an initiator left over for
// the sequential-scan tenant.
func (j ReadJob) scanTenant(c *stack.Cluster) bool {
	return j.KVTenants < c.Initiators()
}

// TenantRead is one tenant's share of the window.
type TenantRead struct {
	Tenant    int
	Initiator int
	Scan      bool // sequential-scan tenant (vs YCSB-C KV tenant)
	Ops       int64
	Lat       metrics.Histogram
}

// ReadResult is the measured outcome across all tenants. Cache, Msgs
// and NegativeHits are deltas over the measure window only.
type ReadResult struct {
	Elapsed  sim.Time
	Tenants  []TenantRead
	InitUtil float64
	TgtUtil  float64

	Cache        stack.RCacheStats // block-cache counters (measure window)
	Msgs         int64             // fabric messages: wire posts + read messages
	NegativeHits int64             // gets answered by the bloom filter alone
}

// KIOPS returns aggregate thousands of operations per second.
func (r ReadResult) KIOPS() float64 { return kiops(r.ops(), r.Elapsed) }

func (r ReadResult) ops() int64 {
	var ops int64
	for _, t := range r.Tenants {
		ops += t.Ops
	}
	return ops
}

// P99US returns the 99th-percentile operation latency in microseconds
// across all tenants.
func (r ReadResult) P99US() float64 {
	return p99US(r.Tenants, func(t *TenantRead) *metrics.Histogram { return &t.Lat })
}

// HitRate returns the block-cache hit rate over the measure window.
func (r ReadResult) HitRate() float64 { return r.Cache.HitRate() }

// MsgsPerOp returns fabric messages per operation — the CPU-efficiency
// headline: every message the cache or the bloom filter absorbs is
// initiator and target cycles not spent.
func (r ReadResult) MsgsPerOp() float64 {
	ops := r.ops()
	if ops == 0 {
		return 0
	}
	return float64(r.Msgs) / float64(ops)
}

// RunRead mounts one FS+KV pair per KV tenant (tenant i on initiator i,
// at BaseLBA i*FS.Blocks()) plus the scan tenant's file system on the
// last initiator, preloads the hot head of each keyspace and the scan
// file, then drives the tenants for warmup+measure.
func RunRead(eng *sim.Engine, c *stack.Cluster, job ReadJob, warmup, measure sim.Time) ReadResult {
	job = job.withDefaults(c)
	var scanFS *fs.FS
	var scanFile *fs.File
	warm := false

	// Mount and preload every tenant before the clock starts.
	dbs := openTenants(eng, c, "read", job.KVTenants, job.FS, job.KV, job.Preload, job.Threads)
	tenants := make([]TenantRead, len(dbs))
	for ten := range tenants {
		tenants[ten] = TenantRead{Tenant: ten, Initiator: ten % c.Initiators()}
	}
	scan := job.scanTenant(c)
	if scan {
		ten, init := len(tenants), c.Initiators()-1
		tenants = append(tenants, TenantRead{Tenant: ten, Initiator: init, Scan: true})
		eng.Go("read/setupscan", func(p *sim.Proc) {
			opts := job.FS
			opts.BaseLBA = uint64(ten) * job.FS.Blocks()
			scanFS = fs.Open(c.Init(init), opts)
			f, err := scanFS.Create(p, "scan.dat")
			if err != nil {
				panic(fmt.Sprintf("read: scan create: %v", err))
			}
			for b := uint64(0); b < job.ScanBlocks; b += 16 {
				n := job.ScanBlocks - b
				if n > 16 {
					n = 16
				}
				if err := scanFS.Append(p, f, int(n)*fs.BlockSize); err != nil {
					panic(fmt.Sprintf("read: scan append: %v", err))
				}
			}
			scanFS.Fsync(p, f, 0)
			scanFile = f
		})
	}
	eng.Run()

	zipf := NewZipf(eng.Rand(), job.Keys, job.Theta)
	for ten, db := range dbs {
		m := &tenants[ten]
		for th := 0; th < job.Threads; th++ {
			eng.Go(fmt.Sprintf("read/t%d.%d", ten, th), func(p *sim.Proc) {
				for {
					key := serveKey(zipf.Next())
					start := p.Now()
					db.Get(p, key)
					if warm {
						m.Ops++
						m.Lat.Record(p.Now() - start)
					}
				}
			})
		}
	}
	if scan {
		m := &tenants[job.KVTenants]
		eng.Go("read/scan", func(p *sim.Proc) {
			off := uint64(0)
			size := job.ScanBlocks * fs.BlockSize
			for {
				start := p.Now()
				if err := scanFS.Read(p, scanFile, off, fs.BlockSize); err != nil {
					panic(fmt.Sprintf("read: scan read: %v", err))
				}
				off += fs.BlockSize
				if off >= size {
					off = 0
				}
				if warm {
					m.Ops++
					m.Lat.Record(p.Now() - start)
				}
			}
		})
	}

	negHits := func() int64 {
		var n int64
		for _, db := range dbs {
			n += db.Stats().NegativeHits
		}
		return n
	}

	var neg0 int64
	w := measureWindow(eng, c, warmup, measure, func() { warm, neg0 = true, negHits() })

	return ReadResult{
		Elapsed:      w.Elapsed,
		Tenants:      tenants,
		InitUtil:     w.InitUtil,
		TgtUtil:      w.TgtUtil,
		Cache:        w.Cache,
		Msgs:         w.Stats.WireMessages + w.Stats.ReadMsgs,
		NegativeHits: negHits() - neg0,
	}
}
