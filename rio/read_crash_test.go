package rio

import (
	"fmt"
	"testing"

	"repro/internal/fs"
	"repro/internal/kv"
	"repro/internal/sim"
)

// Cached-read crash tests: the serve crash scenarios re-run with the
// full read path on — block cache, read-ahead, negative lookups — which
// adds two obligations on top of the write-side invariants. First, the
// cache audit must find zero stale entries after every fault and
// recovery: no hit may ever serve a rolled-back block or a dead
// incarnation's write. Second, reads must stay correct end to end — a
// Get of an acknowledged key is always present, a Get of a never-written
// key is always absent, across member cuts, initiator cuts and
// unreplicated target cuts.

// readCrashOpts sizes the read path so the crash workload actually
// exercises it: the cache is smaller than the combined journal + WAL +
// scan traffic, so misses, evictions and refills all occur under the
// crash schedule.
func readCrashOpts() ReadOptions {
	return ReadOptions{CacheBlocks: 1024, ReadAhead: 8, NegativeLookup: true}
}

const readCrashScanBlocks = 64

// readCrashTenant runs the mixed load of the cached crash tests on one
// tenant: fillsync puts, and every 4th iteration a read-back Get of an
// earlier acked key (must be present), a probe of a never-written key
// (must be absent), and one block of an ascending file scan through the
// block cache. It returns when the tenant's initiator dies or a put
// fails (dead target).
func readCrashTenant(t *testing.T, ctx *Ctx, ten int, stop *bool,
	acked, badGet []int, dbs []*kv.DB, fss []*fs.FS) {
	p := ctx.Proc()
	fsys := ctx.FS(serveFSOpts(ten))
	if fss != nil {
		fss[ten] = fsys
	}
	db, err := ctx.KV(fsys, serveKVOpts())
	if err != nil {
		t.Errorf("tenant %d open: %v", ten, err)
		return
	}
	if dbs != nil {
		dbs[ten] = db
	}
	scan, err := fsys.Create(p, "scan.dat")
	if err != nil {
		t.Errorf("tenant %d scan file: %v", ten, err)
		return
	}
	for b := 0; b < readCrashScanBlocks; b += 16 {
		fsys.Append(p, scan, 16*fs.BlockSize)
	}
	fsys.Fsync(p, scan, 0)
	off := uint64(0)
	for i := 0; !*stop && ctx.Alive(); i++ {
		key := fmt.Sprintf("t%d-%08d", ten, i)
		if err := db.Put(p, i%2, key, db.Options().ValueSize); err != nil {
			return
		}
		acked[ten]++
		if i%4 == 3 {
			if !db.Get(p, fmt.Sprintf("t%d-%08d", ten, i/2)) {
				badGet[ten]++
			}
			if db.Get(p, fmt.Sprintf("absent-t%d-%08d", ten, i)) {
				badGet[ten]++
			}
			fsys.Read(p, scan, off*fs.BlockSize, fs.BlockSize)
			off = (off + 1) % readCrashScanBlocks
		}
	}
}

// TestServeCrashMemberCachedReads: the replica-member cut under cached
// reads. One member of set 0 dies mid-load; both tenants keep serving
// at quorum, every read-back stays correct throughout the degraded
// window and the background resync, and the cache audit is clean at
// every step — the epoch fence may never let a hit outlive the data it
// cached.
func TestServeCrashMemberCachedReads(t *testing.T) {
	c := NewCluster(Options{
		Seed:       31,
		Initiators: 2,
		Streams:    4,
		Targets: []TargetSpec{
			{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
			{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
			{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
		},
		Replicas: 3,
		Read:     readCrashOpts(),
	})
	defer c.Close()

	const tenants = 2
	acked := make([]int, tenants)
	ackedAtCut := make([]int, tenants)
	badGet := make([]int, tenants)
	dbs := make([]*kv.DB, tenants)
	stop := false
	for ten := 0; ten < tenants; ten++ {
		ten := ten
		c.GoOn(ten, func(ctx *Ctx) {
			readCrashTenant(t, ctx, ten, &stop, acked, badGet, dbs, nil)
		})
	}
	cutAt := 800 * sim.Microsecond
	c.Engine().At(cutAt, func() {
		c.Fault(TargetScope(1))
		copy(ackedAtCut, acked)
	})
	c.RunFor(cutAt + 2*sim.Millisecond)
	stop = true
	c.Run()

	for ten := 0; ten < tenants; ten++ {
		if ackedAtCut[ten] == 0 {
			t.Fatalf("tenant %d: no put acknowledged before the cut", ten)
		}
		if acked[ten] <= ackedAtCut[ten] {
			t.Errorf("tenant %d stalled after member cut: %d at cut, %d at end",
				ten, ackedAtCut[ten], acked[ten])
		}
		if badGet[ten] != 0 {
			t.Errorf("tenant %d: %d wrong read-backs under the degraded window", ten, badGet[ten])
		}
	}
	// Degraded but not recovered yet: no cache entry may be stale.
	if bad := c.CacheAudit(); bad != 0 {
		t.Fatalf("cache audit while member down: %d stale entries", bad)
	}

	c.Go(func(ctx *Ctx) { ctx.Recover(TargetScope(1)) })
	c.Run()
	if !c.InSync(1) {
		t.Error("member not in sync after resync")
	}
	if d := c.Stack().ReplicaDivergence(); d != 0 {
		t.Errorf("member diverges from peer on %d blocks after resync", d)
	}
	if bad := c.CacheAudit(); bad != 0 {
		t.Errorf("cache audit after resync: %d stale entries", bad)
	}
	if v := c.OrderAudit(); v != 0 {
		t.Errorf("order audit: %d violations", v)
	}
	// The read path was actually on: cache hits occurred and at least
	// one absent probe was answered by the bloom filter alone.
	if st := c.CacheStatsAll(); st.Hits == 0 {
		t.Errorf("cached crash run recorded no cache hits: %+v", st)
	}
	neg := int64(0)
	for _, db := range dbs {
		if db != nil {
			neg += db.Stats().NegativeHits
		}
	}
	if neg == 0 {
		t.Error("no get was answered by the negative-lookup filter")
	}
}

// TestServeCrashInitiatorCachedReads: tenant 1's initiator dies mid-load
// with the read path on. Its block cache dies with the incarnation —
// after InitiatorScope recovery and remount, KVReopen must come back
// with a SATURATED bloom filter (MayContain true for every acked
// pre-crash key: the superset invariant), every acked put durable, no
// torn record, and clean cache and order audits.
func TestServeCrashInitiatorCachedReads(t *testing.T) {
	c := NewCluster(Options{
		Seed:       32,
		Initiators: 2,
		Streams:    4,
		Targets: []TargetSpec{
			{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
			{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
		},
		Replicas: 2,
		Read:     readCrashOpts(),
	})
	defer c.Close()

	const tenants = 2
	acked := make([]int, tenants)
	ackedAtCut := make([]int, tenants)
	badGet := make([]int, tenants)
	stop := false
	for ten := 0; ten < tenants; ten++ {
		ten := ten
		c.GoOn(ten, func(ctx *Ctx) {
			readCrashTenant(t, ctx, ten, &stop, acked, badGet, nil, nil)
		})
	}
	cutAt := 800 * sim.Microsecond
	c.Engine().At(cutAt, func() {
		c.Fault(InitiatorScope(1))
		copy(ackedAtCut, acked)
	})
	c.RunFor(cutAt + 2*sim.Millisecond)
	stop = true
	c.Run()

	if ackedAtCut[1] == 0 {
		t.Fatal("tenant 1: no put acknowledged before the cut")
	}
	if acked[0] <= ackedAtCut[0] {
		t.Errorf("tenant 0 stalled by tenant 1's initiator cut: %d at cut, %d at end",
			ackedAtCut[0], acked[0])
	}
	if acked[1] != ackedAtCut[1] {
		t.Errorf("tenant 1 acked %d puts after its server died", acked[1]-ackedAtCut[1])
	}
	if badGet[0] != 0 || badGet[1] != 0 {
		t.Errorf("wrong read-backs: tenant 0 %d, tenant 1 %d", badGet[0], badGet[1])
	}

	c.GoOn(1, func(ctx *Ctx) {
		if rep := ctx.Recover(InitiatorScope(1)); rep == nil {
			t.Fatal("nil recovery report")
		}
		p := ctx.Proc()
		fs2, rst := ctx.RemountFS(serveFSOpts(1))
		if rst.Committed == 0 {
			t.Error("remount replayed no journal transactions")
		}
		db2, err := ctx.KVReopen(fs2, serveKVOpts())
		if err != nil {
			t.Fatalf("kv reopen: %v", err)
		}
		// Superset invariant: the reopened filter answers "maybe" for
		// every key acked before the crash — a false "absent" here is
		// data loss to the application.
		missed := 0
		for i := 0; i < acked[1]; i++ {
			if !db2.MayContain(fmt.Sprintf("t1-%08d", i)) {
				missed++
			}
		}
		if missed != 0 {
			t.Errorf("reopened filter denies %d of %d acked keys (superset broken)", missed, acked[1])
		}
		n, err := ctx.KVRecoverCount(fs2, serveKVOpts())
		if err != nil {
			t.Fatalf("recover count: %v", err)
		}
		if n < acked[1] {
			t.Errorf("lost acked puts: %d acked, %d durable", acked[1], n)
		}
		assertWholeRecords(t, p, fs2, kvRecordBytes(serveKVOpts()))
		// The reopened store serves fresh traffic.
		if err := db2.Put(p, 0, "post-crash", db2.Options().ValueSize); err != nil {
			t.Fatalf("post-crash put: %v", err)
		}
		if !db2.Get(p, "post-crash") {
			t.Error("post-crash put not readable")
		}
	})
	c.Run()
	if bad := c.CacheAudit(); bad != 0 {
		t.Errorf("cache audit after initiator recovery: %d stale entries", bad)
	}
	if v := c.OrderAudit(); v != 0 {
		t.Errorf("order audit: %d violations", v)
	}
}

// TestServeCrashTargetCachedReads: an UNREPLICATED target dies mid-load
// with the read path on. Recovery rolls its media back to the durable
// prefix, so every cached block beyond the prefix is gone from the
// device — the epoch fence must have dropped those entries (cache audit
// clean), the remounted store holds every acked put, and the reopened
// bloom filter is the saturated superset of the pre-crash keys.
func TestServeCrashTargetCachedReads(t *testing.T) {
	c := NewCluster(Options{
		Seed:       33,
		Initiators: 1,
		Streams:    4,
		Targets: []TargetSpec{
			{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
		},
		Read: readCrashOpts(),
	})
	defer c.Close()

	acked := make([]int, 1)
	badGet := make([]int, 1)
	stop := false
	c.Go(func(ctx *Ctx) {
		readCrashTenant(t, ctx, 0, &stop, acked, badGet, nil, nil)
	})
	cutAt := 800 * sim.Microsecond
	ackedAtCut := 0
	c.Engine().At(cutAt, func() {
		c.Fault(TargetScope(1)) // unreplicated: half the stripes go dark
		ackedAtCut = acked[0]
	})
	c.RunFor(cutAt + sim.Millisecond)
	stop = true
	c.Run()

	if ackedAtCut == 0 {
		t.Fatal("no put acknowledged before the cut")
	}
	if badGet[0] != 0 {
		t.Errorf("%d wrong read-backs around the target cut", badGet[0])
	}
	// The dead target's blocks must already be fenced out of the cache.
	if bad := c.CacheAudit(); bad != 0 {
		t.Fatalf("cache audit with target down: %d stale entries", bad)
	}

	c.Go(func(ctx *Ctx) {
		if rep := ctx.Recover(TargetScope(1)); rep == nil {
			t.Fatal("nil recovery report")
		}
		p := ctx.Proc()
		fs2, _ := ctx.RemountFS(serveFSOpts(0))
		db2, err := ctx.KVReopen(fs2, serveKVOpts())
		if err != nil {
			t.Fatalf("kv reopen: %v", err)
		}
		missed := 0
		for i := 0; i < acked[0]; i++ {
			if !db2.MayContain(fmt.Sprintf("t0-%08d", i)) {
				missed++
			}
		}
		if missed != 0 {
			t.Errorf("reopened filter denies %d of %d acked keys (superset broken)", missed, acked[0])
		}
		n, err := ctx.KVRecoverCount(fs2, serveKVOpts())
		if err != nil {
			t.Fatalf("recover count: %v", err)
		}
		if n < acked[0] {
			t.Errorf("lost acked puts: %d acked, %d durable", acked[0], n)
		}
		assertWholeRecords(t, p, fs2, kvRecordBytes(serveKVOpts()))
	})
	c.Run()
	if bad := c.CacheAudit(); bad != 0 {
		t.Errorf("cache audit after target recovery: %d stale entries", bad)
	}
	if v := c.OrderAudit(); v != 0 {
		t.Errorf("order audit: %d violations", v)
	}
}
