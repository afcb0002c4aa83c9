// Serve experiment: the application tier on the replicated
// multi-initiator stack. Two tenants — each a RocksDB-style store on
// its own RioFS, bound to its own initiator server — share a fleet of
// four Optane targets grouped into 2-way replica sets, and each runs a
// YCSB-style mix (A: 50% reads, B: 95%, C: 100%) over a 4-million-key
// Zipfian keyspace. The gates track aggregate throughput, tail latency
// and the per-tenant fairness spread: per-initiator ordering domains
// are what keeps one tenant's fsync storm out of the other's p99.
package bench

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/stack"
	"repro/internal/workload"
)

// serveTenants is the tenant (and initiator) count of the experiment.
const serveTenants = 2

// serveJob is the per-mix workload shape: millions of keys, YCSB
// Zipfian skew, a preloaded hot head so read-heavy mixes hit.
func serveJob(readPct int) workload.ServeJob {
	return workload.ServeJob{
		Tenants: serveTenants,
		Threads: 4,
		Keys:    4 << 20,
		Theta:   0.99,
		ReadPct: readPct,
		Preload: 4096,
		FS: fs.Options{
			Design:        fs.RioFS,
			Journals:      4,
			JournalBlocks: 2048,
			MaxInodes:     1 << 14,
			DataBlocks:    1 << 20,
		},
	}
}

// kvFleet is the topology of the KV experiments: inits initiators over
// four one-SSD Optane targets in 2-way replica sets.
func kvFleet(inits int) stack.Config {
	cfg := stack.DefaultConfig(stack.ModeRio, optaneTargets(4, 1)...)
	cfg.Initiators = inits
	cfg.Replicas = 2
	cfg.Streams = 4
	cfg.QPs = 4
	return cfg
}

// runServePoint drives one mix on the KV fleet, one tenant per initiator.
func runServePoint(o Options, readPct int) (workload.ServeResult, int) {
	return audited(o, kvFleet(serveTenants), drive(workload.RunServe, serveJob(readPct)))
}

// ServeSweep is the "serve" experiment.
func ServeSweep(o Options) *Result {
	res := &Result{Name: "serve: multi-tenant KV serving on the replicated multi-initiator stack"}
	mixes := []struct {
		key     string
		label   string
		readPct int
	}{
		{"mixa", "A (50% read)", 50},
		{"mixb", "B (95% read)", 95},
		{"mixc", "C (100% read)", 100},
	}
	violations := 0
	tput, p99, hit := metrics.Series{Label: "kiops"}, metrics.Series{Label: "p99 us"}, metrics.Series{Label: "read hit %"}
	for _, mix := range mixes {
		sr, v := runServePoint(o, mix.readPct)
		violations += v
		var reads, hits int64
		for _, t := range sr.Tenants {
			reads += t.Reads
			hits += t.ReadHits
		}
		hitPct := 0.0
		if reads > 0 {
			hitPct = 100 * float64(hits) / float64(reads)
		}
		tput.Add(float64(mix.readPct), sr.KIOPS())
		p99.Add(float64(mix.readPct), sr.P99US())
		hit.Add(float64(mix.readPct), hitPct)
		res.Metric("serve.rio.kiops."+mix.key, sr.KIOPS())
		res.Metric("serve.rio.p99_us."+mix.key, sr.P99US())
		if mix.key == "mixb" {
			// Headline gates: the B mix is the canonical serving shape.
			res.Metric("serve.rio.kiops", sr.KIOPS())
			res.Metric("serve.rio.p99_us", sr.P99US())
			res.Metric("serve.rio.fairness_spread", sr.FairnessSpread())
			for _, t := range sr.Tenants {
				res.Metric(fmt.Sprintf("serve.rio.kiops.tenant%d", t.Tenant),
					sr.TenantKIOPS(t.Tenant))
			}
		}
		res.Notes = append(res.Notes, fmt.Sprintf(
			"mix %s: %.1f kiops aggregate, p99 %.1f µs, read hit %.0f%%, fairness %.2f",
			mix.label, sr.KIOPS(), sr.P99US(), hitPct, sr.FairnessSpread()))
	}
	res.Metric("serve.rio.order_violations", float64(violations))
	res.Metric("serve.tenants", serveTenants)
	res.Metric("serve.keys", float64(4<<20))
	res.plot(
		fmt.Sprintf("YCSB-style mixes (A/B/C), %d tenants on %d initiators, 4 Mi Zipfian keys (θ=0.99), 4 Optane targets in 2-way replica sets",
			serveTenants, serveTenants),
		"read %", tput, p99, hit)
	res.Notes = append(res.Notes,
		"fairness spread = max/min per-tenant kiops on mix B; 1.0 is perfect isolation across ordering domains")
	return res
}
