// Serve driver: the "millions of users" scenario of ROADMAP item 1 and
// the read-heavy scenario the initiator's read path is built for. N KV
// tenants — each a RocksDB-style store on its own RioFS file system,
// bound to its own initiator server — share one replicated target fleet.
// Every KV tenant runs a YCSB-style read/write mix over a multi-million-
// key keyspace with Zipfian hot-key skew; only the preloaded hot head
// exists at first, so a read-only mix is mostly negative lookups
// (bloom-filter territory) and SST index probes over the fabric
// (block-cache territory). An optional scan tenant reads a large file
// sequentially (read-ahead territory). The result reports per-tenant
// throughput and tail latency so the experiment can gate on fairness —
// per-initiator ordering domains mean one tenant's fsync storm must not
// stall another tenant's streams — plus the block-cache hit rate and
// fabric messages per operation over the measure window.
package workload

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stack"
)

// ServeJob configures the multi-tenant serving benchmark.
type ServeJob struct {
	Tenants int // concurrent KV tenants
	Threads int // application threads per KV tenant
	// Keys is the per-tenant keyspace the Zipfian generator draws from.
	// Keys are written on demand; with the YCSB theta the hot head of
	// the space is populated within the warmup window.
	Keys  uint64
	Theta float64 // Zipfian skew (0 = 0.99, the YCSB default)
	// ReadPct is the read percentage of the mix: 50 = YCSB-A-like,
	// 95 = YCSB-B-like, 100 = YCSB-C-like (no write is ever drawn).
	ReadPct int
	// Preload seeds each store with this many of its hottest keys before
	// the clock starts, so read-heavy mixes hit from the first draw.
	Preload int
	// ScanBlocks > 0 adds one scan tenant after the KV tenants, on
	// initiator Tenants mod Initiators: it reads a file of ScanBlocks
	// blocks sequentially, one block per op, wrapping at the end.
	ScanBlocks uint64
	FS         fs.Options // per-tenant sizing; BaseLBA is assigned per tenant
	KV         kv.Options
}

// TenantServe is one tenant's share of the window.
type TenantServe struct {
	Tenant    int
	Initiator int
	Scan      bool // sequential-scan tenant (vs KV tenant); counts Ops only
	Ops       int64
	Reads     int64
	ReadHits  int64
	Writes    int64
	Lat       metrics.Histogram
}

// ServeResult is the measured outcome across all tenants. Cache, Msgs
// and NegativeHits are deltas over the measure window only.
type ServeResult struct {
	Elapsed  sim.Time
	Tenants  []TenantServe
	InitUtil float64
	TgtUtil  float64

	Cache        stack.RCacheStats // block-cache counters
	Msgs         int64             // fabric messages: wire posts + read messages
	NegativeHits int64             // gets answered by the bloom filter alone
}

// KIOPS returns aggregate thousands of operations per second.
func (r ServeResult) KIOPS() float64 { return kiops(r.ops(), r.Elapsed) }

func (r ServeResult) ops() int64 {
	var ops int64
	for _, t := range r.Tenants {
		ops += t.Ops
	}
	return ops
}

// TenantKIOPS returns one tenant's throughput.
func (r ServeResult) TenantKIOPS(i int) float64 { return kiops(r.Tenants[i].Ops, r.Elapsed) }

// P99US returns the 99th-percentile operation latency in microseconds
// across all tenants.
func (r ServeResult) P99US() float64 {
	var all metrics.Histogram
	for i := range r.Tenants {
		all.Merge(&r.Tenants[i].Lat)
	}
	return float64(all.P99()) / 1000
}

// HitRate returns the block-cache hit rate over the measure window.
func (r ServeResult) HitRate() float64 { return r.Cache.HitRate() }

// MsgsPerOp returns fabric messages per operation — the CPU-efficiency
// headline: every message the cache or the bloom filter absorbs is
// initiator and target cycles not spent.
func (r ServeResult) MsgsPerOp() float64 {
	ops := r.ops()
	if ops == 0 {
		return 0
	}
	return float64(r.Msgs) / float64(ops)
}

// FairnessSpread returns max/min per-tenant throughput — 1.0 is perfect
// fairness; a tenant starved by a neighbor's ordering domain shows up as
// a large spread.
func (r ServeResult) FairnessSpread() float64 {
	if len(r.Tenants) == 0 {
		return 1
	}
	min, max := r.TenantKIOPS(0), r.TenantKIOPS(0)
	for i := range r.Tenants {
		k := r.TenantKIOPS(i)
		if k < min {
			min = k
		}
		if k > max {
			max = k
		}
	}
	if min <= 0 {
		return 0
	}
	return max / min
}

// serveKey renders rank r as a fixed-width key (rank 0 = hottest).
func serveKey(r uint64) string { return fmt.Sprintf("%016d", r) }

// RunServe mounts one FS+KV pair per KV tenant and preloads the hottest
// Preload keys of each, spreading the puts over Threads streams; with
// ScanBlocks > 0 it also writes the scan tenant's file. Tenant i sits on
// initiator i mod Initiators at BaseLBA i*FS.Blocks(). It then drives
// every tenant for warmup+measure.
func RunServe(eng *sim.Engine, c *stack.Cluster, job ServeJob, warmup, measure sim.Time) ServeResult {
	if job.Theta == 0 {
		job.Theta = 0.99
	}
	n := job.Tenants
	if job.ScanBlocks > 0 {
		n++
	}
	tenants := make([]TenantServe, n)
	for ten := range tenants {
		tenants[ten] = TenantServe{Tenant: ten, Initiator: ten % c.Initiators(), Scan: ten == job.Tenants}
	}
	openFS := func(ten int) *fs.FS {
		opts := job.FS
		opts.BaseLBA = uint64(ten) * job.FS.Blocks()
		return fs.Open(c.Init(tenants[ten].Initiator), opts)
	}
	warm := false

	// Mount and preload every tenant, each in its own proc, before the
	// clock starts.
	dbs := make([]*kv.DB, job.Tenants)
	for ten := range dbs {
		eng.Go(fmt.Sprintf("serve/setup%d", ten), func(p *sim.Proc) {
			db, err := kv.Open(p, openFS(ten), job.KV)
			if err != nil {
				panic(fmt.Sprintf("serve: tenant %d open: %v", ten, err))
			}
			vs := db.Options().ValueSize
			for k := 0; k < job.Preload; k++ {
				if err := db.Put(p, k%job.Threads, serveKey(uint64(k)), vs); err != nil {
					panic(fmt.Sprintf("serve: tenant %d preload: %v", ten, err))
				}
			}
			dbs[ten] = db
		})
	}
	var scanFS *fs.FS
	var scanFile *fs.File
	if job.ScanBlocks > 0 {
		eng.Go("serve/setupscan", func(p *sim.Proc) {
			scanFS = openFS(job.Tenants)
			f, err := scanFS.Create(p, "scan.dat")
			if err != nil {
				panic(fmt.Sprintf("serve: scan create: %v", err))
			}
			for b := uint64(0); b < job.ScanBlocks; b += 16 {
				if err := scanFS.Append(p, f, int(min(job.ScanBlocks-b, 16))*fs.BlockSize); err != nil {
					panic(fmt.Sprintf("serve: scan append: %v", err))
				}
			}
			scanFS.Fsync(p, f, 0)
			scanFile = f
		})
	}
	eng.Run()

	// One random stream draws every tenant's keys and read/write coins.
	rng := eng.Rand()
	zipf := NewZipf(rng, job.Keys, job.Theta)
	for ten, db := range dbs {
		m := &tenants[ten]
		vs := db.Options().ValueSize
		for th := 0; th < job.Threads; th++ {
			eng.Go(fmt.Sprintf("serve/t%d.%d", ten, th), func(p *sim.Proc) {
				for {
					key := serveKey(zipf.Next())
					read := job.ReadPct >= 100 || rng.Intn(100) < job.ReadPct
					start := p.Now()
					if read {
						hit := db.Get(p, key)
						if warm {
							m.Reads++
							if hit {
								m.ReadHits++
							}
						}
					} else {
						if err := db.Put(p, th, key, vs); err != nil {
							return
						}
						if warm {
							m.Writes++
						}
					}
					if warm {
						m.Ops++
						m.Lat.Record(p.Now() - start)
					}
				}
			})
		}
	}
	if job.ScanBlocks > 0 {
		m := &tenants[job.Tenants]
		eng.Go("serve/scan", func(p *sim.Proc) {
			size := job.ScanBlocks * fs.BlockSize
			for off := uint64(0); ; off = (off + fs.BlockSize) % size {
				start := p.Now()
				if err := scanFS.Read(p, scanFile, off, fs.BlockSize); err != nil {
					panic(fmt.Sprintf("serve: scan read: %v", err))
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
	return ServeResult{
		Elapsed:      w.Elapsed,
		Tenants:      tenants,
		InitUtil:     w.InitUtil,
		TgtUtil:      w.TgtUtil,
		Cache:        w.Cache,
		Msgs:         w.Stats.TxMsgs + w.Stats.ReadMsgs,
		NegativeHits: negHits() - neg0,
	}
}
