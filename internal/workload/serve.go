// Serve driver: the "millions of users" scenario of ROADMAP item 1. N
// tenants — each a RocksDB-style store on its own RioFS file system,
// bound to its own initiator server — share one replicated target fleet.
// Every tenant runs a YCSB-style read/write mix over a multi-million-key
// keyspace with Zipfian hot-key skew, and the result reports per-tenant
// throughput and tail latency so the experiment can gate on fairness:
// per-initiator ordering domains mean one tenant's fsync storm must not
// stall another tenant's streams.
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
	Tenants int // concurrent tenants (0 = one per initiator)
	Threads int // application threads per tenant (0 = 4)
	// Keys is the per-tenant keyspace the Zipfian generator draws from
	// (0 = 4 Mi keys). Keys are written on demand; with the YCSB theta
	// the hot head of the space is populated within the warmup window.
	Keys  uint64
	Theta float64 // Zipfian skew (0 = 0.99, the YCSB default)
	// ReadPct is the read percentage of the mix: 50 = YCSB-A-like,
	// 95 = YCSB-B-like, 100 = YCSB-C-like.
	ReadPct int
	// Preload seeds each store with this many of its hottest keys before
	// the clock starts, so read-heavy mixes hit from the first draw
	// (0 = 4096).
	Preload int
	FS      fs.Options // per-tenant sizing; BaseLBA is assigned per tenant
	KV      kv.Options
}

func (j ServeJob) withDefaults(c *stack.Cluster) ServeJob {
	if j.Tenants == 0 {
		j.Tenants = c.Initiators()
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
	return j
}

// TenantServe is one tenant's share of the window.
type TenantServe struct {
	Tenant    int
	Initiator int
	Ops       int64
	Reads     int64
	ReadHits  int64
	Writes    int64
	Lat       metrics.Histogram
}

// ServeResult is the measured outcome across all tenants.
type ServeResult struct {
	Elapsed  sim.Time
	Tenants  []TenantServe
	InitUtil float64
	TgtUtil  float64
}

// KIOPS returns aggregate thousands of operations per second.
func (r ServeResult) KIOPS() float64 {
	var ops int64
	for _, t := range r.Tenants {
		ops += t.Ops
	}
	return kiops(ops, r.Elapsed)
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

// RunServe mounts one FS+KV pair per tenant (tenant i on initiator
// i mod Initiators, at BaseLBA i*FS.Blocks()), preloads the hot head of
// each keyspace, then drives the YCSB-style mix for warmup+measure.
func RunServe(eng *sim.Engine, c *stack.Cluster, job ServeJob, warmup, measure sim.Time) ServeResult {
	job = job.withDefaults(c)
	kvOpts := job.KV

	tenants := make([]*TenantServe, job.Tenants)
	dbs := make([]*kv.DB, job.Tenants)
	warm := false

	// Mount and preload every tenant before the clock starts.
	setup := sim.NewWaitGroup(eng)
	setup.Add(job.Tenants)
	for ten := 0; ten < job.Tenants; ten++ {
		ten := ten
		init := ten % c.Initiators()
		tenants[ten] = &TenantServe{Tenant: ten, Initiator: init}
		eng.Go(fmt.Sprintf("serve/setup%d", ten), func(p *sim.Proc) {
			defer setup.Done()
			opts := job.FS
			opts.BaseLBA = uint64(ten) * job.FS.Blocks()
			fsys := fs.Open(c.Init(init), opts)
			db, err := kv.Open(p, fsys, kvOpts)
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
	eng.Run()

	zipf := NewZipf(eng.Rand(), job.Keys, job.Theta)
	rng := eng.Rand()
	for ten := 0; ten < job.Tenants; ten++ {
		ten := ten
		db := dbs[ten]
		m := tenants[ten]
		vs := db.Options().ValueSize
		for th := 0; th < job.Threads; th++ {
			th := th
			eng.Go(fmt.Sprintf("serve/t%d.%d", ten, th), func(p *sim.Proc) {
				for {
					rank := zipf.Next()
					key := serveKey(rank)
					read := rng.Intn(100) < job.ReadPct
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

	w := measureWindow(eng, c, warmup, measure, func() { warm = true })

	res := ServeResult{Elapsed: w.Elapsed, InitUtil: w.InitUtil, TgtUtil: w.TgtUtil}
	for _, t := range tenants {
		res.Tenants = append(res.Tenants, *t)
	}
	return res
}
