package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// TestOverlappingDispatchesOwnTheirRecords: two threads on one stream
// overflow the stream's plug while its hold timer hands leftovers to the
// shard's dispatch context, on one initiator core, with merge checks, cache
// population and posts costly enough that every dispatch yields mid-batch —
// so several dispatches of one shard are in progress at once, on the relay
// route of a 3-way set. Each owns its record: every request is delivered
// once, no capsule arrives misrouted (the target panics on an entry
// addressed elsewhere) and the cluster audits clean.
func TestOverlappingDispatchesOwnTheirRecords(t *testing.T) {
	eng := sim.New(7)
	defer eng.Shutdown()
	cfg := relayConfig(3)
	cfg.InitiatorCores = 1
	cfg.CacheBlocks = 4096
	cfg.MaxPlug = 3
	cfg.Costs.SubmitBio = 0 // a thread fills the plug without waiting for the core
	cfg.Costs.MergeCheck = 3 * sim.Microsecond
	cfg.Costs.CacheBlockCPU = 2 * sim.Microsecond
	cfg.Costs.PostMsg = 4 * sim.Microsecond
	c := New(eng, cfg)
	in := c.Init(0)
	const perThread = 60
	var reqs []*blockdev.Request
	for th := 0; th < 2; th++ {
		eng.Go("app", func(p *sim.Proc) {
			for g := 0; g < perThread; g++ {
				lba := uint64(th*100000 + g)
				reqs = append(reqs, in.OrderedWrite(p, 0, lba, 1, 0, nil, g%3 == 2, false, false))
				if g%7 == 6 {
					p.Sleep(5 * sim.Microsecond) // leftovers go to the hold timer
				}
			}
		})
	}
	eng.Run()

	if c.Target(c.SetMembers(0)[0]).Stats().Relays == 0 {
		t.Fatal("nothing took the relay route")
	}
	sh := in.shards[0]
	if len(sh.disp.batch) == 0 {
		t.Fatal("the shard's dispatch context never took a batch")
	}
	a, b := sh.dispFree.Get(), sh.dispFree.Get()
	if a.in == nil || b.in == nil {
		t.Fatal("no two threads ever dispatched in their own place at once")
	}
	for _, r := range reqs {
		if !r.Done.Fired() {
			t.Fatalf("request at LBA %d never delivered", r.LBA)
		}
	}
	if got := in.Stats().Completed; got != 2*perThread {
		t.Fatalf("%d completions for %d requests", got, 2*perThread)
	}
	if err := c.Audit().Err(); err != nil {
		t.Fatal(err)
	}
}
