package workload

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fs"
	"repro/internal/sim"
	"repro/internal/stack"
)

// TestZipfDistribution sanity-checks the YCSB generator: ranks stay in
// range, the head of the keyspace absorbs most of the mass, and hotter
// ranks are drawn more often than colder ones.
func TestZipfDistribution(t *testing.T) {
	const n = 1 << 16
	const draws = 200000
	z := NewZipf(rand.New(rand.NewSource(42)), n, 0.99)
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		r := z.Next()
		if r >= n {
			t.Fatalf("rank %d out of range [0, %d)", r, n)
		}
		counts[r]++
	}
	// Head mass: with theta=0.99 over 64 Ki keys, the hottest 1% of the
	// keyspace should take well over a third of all draws (true Zipf at
	// this skew concentrates ~50%+); uniform would give it 1%.
	head := 0
	for i := 0; i < n/100; i++ {
		head += counts[i]
	}
	if frac := float64(head) / draws; frac < 0.35 {
		t.Fatalf("hottest 1%% drew %.1f%% of mass, want > 35%%", 100*frac)
	}
	// Monotone-ish decay: compare mass of decades, not single ranks.
	decade := func(lo, hi int) int {
		s := 0
		for i := lo; i < hi; i++ {
			s += counts[i]
		}
		return s
	}
	if !(decade(0, 10) > decade(100, 110) && decade(100, 110) > decade(10000, 10010)) {
		t.Fatalf("mass not decaying: [0,10)=%d [100,110)=%d [10000,10010)=%d",
			decade(0, 10), decade(100, 110), decade(10000, 10010))
	}
	// The two hand-rolled branches of the inverse CDF (rank 0 and 1).
	if counts[0] <= counts[1] || counts[1] <= counts[100] {
		t.Fatalf("head ranks not ordered: c0=%d c1=%d c100=%d",
			counts[0], counts[1], counts[100])
	}
}

// serveCluster builds the serve topology: two initiators over four
// one-SSD Optane targets grouped into 2-way replica sets.
func serveCluster(seed int64) (*sim.Engine, *stack.Cluster) {
	eng := sim.New(seed)
	cfg := stack.DefaultConfig(stack.ModeRio,
		stack.OptaneTarget(), stack.OptaneTarget(),
		stack.OptaneTarget(), stack.OptaneTarget())
	cfg.Initiators = 2
	cfg.Replicas = 2
	cfg.Streams = 4
	cfg.QPs = 4
	cfg.Fabric.NumQPs = 4
	return eng, stack.New(eng, cfg)
}

func serveTestJob() ServeJob {
	return ServeJob{
		Tenants: 2,
		Threads: 2,
		Keys:    1 << 16,
		ReadPct: 50,
		Preload: 256,
		FS: fs.Options{
			Design:        fs.RioFS,
			Journals:      4,
			JournalBlocks: 1024,
			MaxInodes:     1 << 12,
			DataBlocks:    1 << 18,
		},
	}
}

// TestRunServeMultiTenant drives two inputs on a replicated
// two-initiator cluster: the YCSB-A-like mix, where both tenants make
// progress, reads hit preloaded keys and the tenants share evenly; and a
// read-only mix with a scan tenant, which adds one last, scan-only tenant
// on initiator Tenants mod Initiators while no KV tenant writes. The
// ordering audit stays clean on both.
func TestRunServeMultiTenant(t *testing.T) {
	scan := serveTestJob()
	scan.Tenants, scan.ReadPct, scan.ScanBlocks = 1, 100, 64
	for _, tc := range []struct {
		name string
		job  ServeJob
	}{{"mixA", serveTestJob()}, {"readScan", scan}} {
		eng, c := serveCluster(7)
		defer eng.Shutdown()
		res := RunServe(eng, c, tc.job, 200*sim.Microsecond, 2*sim.Millisecond)
		kvTenants := res.Tenants
		if tc.job.ScanBlocks > 0 {
			if len(res.Tenants) != tc.job.Tenants+1 {
				t.Fatalf("%s: tenants = %d, want %d KV + 1 scan", tc.name, len(res.Tenants), tc.job.Tenants)
			}
			kvTenants = res.Tenants[:tc.job.Tenants]
			sc := res.Tenants[tc.job.Tenants]
			if !sc.Scan || sc.Initiator != tc.job.Tenants%c.Initiators() || sc.Ops == 0 || sc.Reads != 0 || sc.Writes != 0 {
				t.Fatalf("%s: scan tenant = %+v, want Scan on initiator %d with ops and no reads or writes",
					tc.name, sc, tc.job.Tenants%c.Initiators())
			}
			if h, m := res.HitRate(), res.MsgsPerOp(); math.IsNaN(h) || math.IsInf(h, 0) || math.IsNaN(m) || math.IsInf(m, 0) {
				t.Fatalf("%s: hit rate %v, msgs/op %v, want finite", tc.name, h, m)
			}
		} else if len(res.Tenants) != tc.job.Tenants {
			t.Fatalf("%s: tenants = %d, want %d", tc.name, len(res.Tenants), tc.job.Tenants)
		}
		for _, ten := range kvTenants {
			if ten.Scan || ten.Ops == 0 || ten.Reads == 0 || ten.ReadHits == 0 {
				t.Fatalf("%s: KV tenant %d made no progress or never hit the preloaded head: %+v", tc.name, ten.Tenant, ten)
			}
			if (ten.Writes == 0) != (tc.job.ReadPct >= 100) {
				t.Fatalf("%s: KV tenant %d wrote %d times at %d%% reads", tc.name, ten.Tenant, ten.Writes, tc.job.ReadPct)
			}
		}
		if res.Tenants[0].Initiator == res.Tenants[1].Initiator {
			t.Fatalf("%s: tenants 0 and 1 share initiator %d, want one per initiator", tc.name, res.Tenants[0].Initiator)
		}
		if res.KIOPS() <= 0 || res.P99US() <= 0 {
			t.Fatalf("%s: kiops=%.2f p99=%.2fus", tc.name, res.KIOPS(), res.P99US())
		}
		if spread := res.FairnessSpread(); tc.job.ScanBlocks == 0 && (spread < 1 || spread > 3) {
			t.Fatalf("%s: fairness spread = %.2f, want ~1 (equal tenants)", tc.name, spread)
		}
		if v := c.OrderAudit(); v != 0 {
			t.Fatalf("%s: order audit reported %d violations", tc.name, v)
		}
	}
}
