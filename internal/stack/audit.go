package stack

import (
	"bytes"
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/core"
)

// The contract oracle (DESIGN.md §7 has the clauses as one table). Four
// clauses are cluster-wide and hold at any quiescent point — Audit counts
// their violations — and one is per request: Holds. Tests, tools and
// experiments ask here instead of walking the media themselves.

// AuditReport counts the violations of each cluster-wide clause; the zero
// report is a healthy cluster.
type AuditReport struct {
	Gate     int // parked commands at or below their gate's frontier, over every target (OrderAudit)
	Cache    int // cached blocks that differ from what a read would observe (CacheAudit)
	Trace    int // sampled spans still open, plus the ledger's imbalance: every span ends finished or dropped@stage
	Diverged int // blocks on which in-sync members of a set differ (ReplicaDivergence)
}

// Err names the violated clauses, or returns nil.
func (a AuditReport) Err() error {
	if a == (AuditReport{}) {
		return nil
	}
	return fmt.Errorf("audit: %d gate violations, %d stale cached blocks, %d unaccounted trace spans, %d diverged replica blocks",
		a.Gate, a.Cache, a.Trace, a.Diverged)
}

// Audit checks the cluster-wide clauses. The cache and trace clauses assume
// no write is in flight (a write is cached before it lands, its span open
// until it is delivered).
func (c *Cluster) Audit() AuditReport {
	a := AuditReport{Gate: c.OrderAudit(), Cache: c.CacheAudit(), Diverged: c.ReplicaDivergence()}
	st := c.TraceStats()
	imbalance := int(st.Sampled-st.Finished-st.Dropped) - st.Open
	a.Trace = st.Open + max(imbalance, -imbalance)
	return a
}

// ReplicaDivergence counts the blocks on which an in-sync member's durable
// media differs, in identity or bytes, from its set's first in-sync member —
// over every set, every SSD and every block either of the two holds. A
// degraded member owes its resync backlog and is not compared.
func (c *Cluster) ReplicaDivergence() int {
	bad := 0
	for _, rs := range c.replSets {
		base := rs.firstInSync(-1)
		for k, m := range rs.members {
			if !rs.inSync[k] || m == base {
				continue
			}
			for d, sd := range c.targets[m].ssds {
				ref := c.targets[base].ssds[d]
				for _, lba := range ref.DurableLBAs() {
					want, _ := ref.Durable(lba)
					if got, ok := sd.Durable(lba); !ok || got.Stamp != want.Stamp || !bytes.Equal(got.Data, want.Data) {
						bad++
					}
				}
				for _, lba := range sd.DurableLBAs() {
					if _, ok := ref.Durable(lba); !ok {
						bad++
					}
				}
			}
		}
	}
	return bad
}

// Holds reports whether every block of req is durable under the request's own
// identity — core.AttrStamp of its ticket, the caller's Stamp without one —
// on every in-sync member of the set it maps to.
func (c *Cluster) Holds(req *blockdev.Request) bool {
	stamp := req.Stamp
	if req.Ticket != nil {
		stamp = core.AttrStamp(req.Ticket.Attr)
	}
	for _, ext := range c.vol.Extents(req.LBA, req.Blocks) {
		ref := c.vol.Dev(ext.Dev)
		rs := c.replSets[ref.Server]
		for k, m := range rs.members {
			if !rs.inSync[k] {
				continue
			}
			for b := uint64(0); b < uint64(ext.Blocks); b++ {
				if rec, ok := c.targets[m].ssds[ref.SSD].Durable(ext.DevLBA + b); !ok || rec.Stamp != stamp {
					return false
				}
			}
		}
	}
	return true
}

// PoisonRecycled and BarriersQueued are the crash harness's two white-box
// probes (internal/crash). They are test hooks, not configuration: nothing a
// Config can say reaches them.

// PoisonRecycled makes every recycled target completion event (and the SSD
// command embedded in it) dead for good instead of reusable, so a reference
// that outlived the recycle, or a second recycle, panics instead of
// corrupting a later command.
func (c *Cluster) PoisonRecycled() { c.poison = true }

// BarriersQueued reports whether device d's flush combiner has a FLUSH at
// the device with barriers queued behind it.
func (t *Target) BarriersQueued(d int) bool { return t.flushers[d].busy && t.flushers[d].wait != nil }
