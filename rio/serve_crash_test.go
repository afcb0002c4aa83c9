package rio

import (
	"fmt"
	"testing"

	"repro/internal/fs"
	"repro/internal/sim"
)

// Crash-consistency tests for the ported application tier: power-cut a
// replica member and an initiator server mid-Put / mid-journal-commit
// under live serve traffic, recover through the unified Fault/Recover
// surface, and prove that no acknowledged put is lost, no torn KV
// record survives (every durable WAL divides evenly into whole
// records), the recovered WAL is a monotonic prefix of the submitted
// puts, and the ordering audit stays clean.

// serveFSOpts sizes one tenant's file system for the crash tests.
func serveFSOpts(tenant int) FSOptions {
	o := FSOptions{
		Design:        RioFSFS,
		Journals:      4,
		JournalBlocks: 1024,
		MaxInodes:     1 << 12,
		DataBlocks:    1 << 18,
	}
	o.BaseLBA = uint64(tenant) * o.Blocks()
	return o
}

// serveKVOpts keeps the memtable large so no SST flush runs during the
// short test window: the durable record count is then exactly the WAL
// record count, which makes the monotonic-prefix bound tight.
func serveKVOpts() KVOptions { return KVOptions{MemtableBytes: 64 << 20} }

// kvRecordBytes is the on-WAL size of one put (key + value + header).
func kvRecordBytes(o KVOptions) int {
	if o.KeySize == 0 {
		o.KeySize = 16
	}
	if o.ValueSize == 0 {
		o.ValueSize = 1024
	}
	return o.KeySize + o.ValueSize + 16
}

// assertWholeRecords fails if any durable WAL file of the store tears a
// record: under ordered writes a journal commit is all-or-nothing, so
// every recovered WAL size must divide evenly by the record size.
func assertWholeRecords(t *testing.T, p *sim.Proc, fsys *fs.FS, rec int) {
	t.Helper()
	names, err := fsys.List(p, "db")
	if err != nil {
		t.Fatalf("list db: %v", err)
	}
	for _, name := range names {
		if len(name) < 3 || name[:3] != "WAL" {
			continue
		}
		f, err := fsys.Open(p, "db/"+name)
		if err != nil {
			t.Fatalf("open %s: %v", name, err)
		}
		if f.Size()%uint64(rec) != 0 {
			t.Errorf("torn record: db/%s holds %d bytes, not a multiple of %d", name, f.Size(), rec)
		}
	}
}

// TestServeCrashReplicaMember: two tenants serve fillsync puts from
// their own initiators over 3-way replica sets; one member of set 0 is
// power-cut mid-put. At majority quorum no stream stalls — both tenants
// keep acknowledging puts — and after the background resync the member
// is byte-identical to its peers, every WAL holds whole records only,
// and the order audit is clean.
func TestServeCrashReplicaMember(t *testing.T) {
	c := NewCluster(Options{
		Seed:       21,
		Initiators: 2,
		Streams:    4,
		Targets: []TargetSpec{
			{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
			{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
			{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
		},
		Replicas: 3, // majority quorum 2: one member down must not stall
	})
	defer c.Close()

	const tenants = 2
	acked := make([]int, tenants)
	ackedAtCut := make([]int, tenants)
	stop := false
	fss := make([]*fs.FS, tenants)
	for ten := 0; ten < tenants; ten++ {
		ten := ten
		c.GoOn(ten, func(ctx *Ctx) {
			p := ctx.Proc()
			fsys := ctx.FS(serveFSOpts(ten))
			fss[ten] = fsys
			db, err := ctx.KV(fsys, serveKVOpts())
			if err != nil {
				t.Errorf("tenant %d open: %v", ten, err)
				return
			}
			for i := 0; !stop && ctx.Alive(); i++ {
				key := fmt.Sprintf("t%d-%08d", ten, i)
				if err := db.Put(p, i%2, key, db.Options().ValueSize); err != nil {
					t.Errorf("tenant %d put: %v", ten, err)
					return
				}
				acked[ten]++
			}
		})
	}
	cutAt := 200 * sim.Microsecond
	c.Engine().At(cutAt, func() {
		c.Fault(TargetScope(1)) // a member of set 0, mid-put
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
			t.Errorf("tenant %d stalled after member cut: %d acked at cut, %d at end",
				ten, ackedAtCut[ten], acked[ten])
		}
	}
	if c.InSync(1) {
		t.Fatal("cut member still marked in sync")
	}

	// Background resync rejoins the member; then audit everything.
	c.Go(func(ctx *Ctx) {
		ctx.Recover(TargetScope(1))
		p := ctx.Proc()
		for ten := 0; ten < tenants; ten++ {
			n, err := ctx.KVRecoverCount(fss[ten], serveKVOpts())
			if err != nil {
				t.Errorf("tenant %d recover count: %v", ten, err)
				continue
			}
			if n < acked[ten] {
				t.Errorf("tenant %d: %d acked puts, only %d records durable", ten, acked[ten], n)
			}
			if slack := n - acked[ten]; slack > 2 {
				t.Errorf("tenant %d: %d durable records vs %d acked — prefix not tight (max 1 in-flight per thread)",
					ten, n, acked[ten])
			}
			assertWholeRecords(t, p, fss[ten], kvRecordBytes(serveKVOpts()))
		}
	})
	c.Run()
	if !c.InSync(1) {
		t.Error("member not in sync after resync")
	}
	if d := c.Stack().ReplicaDivergence(); d != 0 {
		t.Errorf("member diverges from peer on %d blocks after resync", d)
	}
	if v := c.OrderAudit(); v != 0 {
		t.Errorf("order audit: %d violations", v)
	}
}

// TestServeCrashInitiator: tenant 1's initiator server is power-cut
// mid-put while tenant 0 keeps serving. After InitiatorScope recovery
// the tenant's volume remounts on the recovered server with no torn
// record, a monotonic WAL prefix (every acked put durable, at most the
// in-flight puts beyond), and a clean order audit; tenant 0 never
// noticed.
func TestServeCrashInitiator(t *testing.T) {
	c := NewCluster(Options{
		Seed:       22,
		Initiators: 2,
		Streams:    4,
		Targets: []TargetSpec{
			{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
			{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
		},
		Replicas: 2,
	})
	defer c.Close()

	const tenants = 2
	acked := make([]int, tenants)
	ackedAtCut := make([]int, tenants)
	attempted := make([]int, tenants)
	threads := 2
	stop := false
	for ten := 0; ten < tenants; ten++ {
		ten := ten
		c.GoOn(ten, func(ctx *Ctx) {
			p := ctx.Proc()
			fsys := ctx.FS(serveFSOpts(ten))
			db, err := ctx.KV(fsys, serveKVOpts())
			if err != nil {
				t.Errorf("tenant %d open: %v", ten, err)
				return
			}
			for i := 0; !stop && ctx.Alive(); i++ {
				key := fmt.Sprintf("t%d-%08d", ten, i)
				attempted[ten]++
				if err := db.Put(p, i%threads, key, db.Options().ValueSize); err != nil {
					return
				}
				acked[ten]++
			}
		})
	}
	cutAt := 200 * sim.Microsecond
	c.Engine().At(cutAt, func() {
		c.Fault(InitiatorScope(1)) // tenant 1's server dies mid-put
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

	// Recover the initiator, remount tenant 1's volume on it, audit.
	c.GoOn(1, func(ctx *Ctx) {
		rep := ctx.Recover(InitiatorScope(1))
		if rep == nil {
			t.Fatal("nil recovery report")
		}
		p := ctx.Proc()
		fs2, rst := ctx.RemountFS(serveFSOpts(1))
		if rst.Committed == 0 {
			t.Error("remount replayed no journal transactions")
		}
		n, err := ctx.KVRecoverCount(fs2, serveKVOpts())
		if err != nil {
			t.Fatalf("recover count: %v", err)
		}
		// Monotonic prefix: every acknowledged put is durable, and at
		// most the puts in flight at the cut (one per thread) beyond.
		if n < acked[1] {
			t.Errorf("lost acked puts: %d acked, %d durable", acked[1], n)
		}
		if n > acked[1]+threads {
			t.Errorf("durable records %d exceed acked %d + %d in-flight", n, acked[1], threads)
		}
		assertWholeRecords(t, p, fs2, kvRecordBytes(serveKVOpts()))
	})
	c.Run()
	if v := c.OrderAudit(); v != 0 {
		t.Errorf("order audit: %d violations", v)
	}
}
