package rio_test

import (
	"fmt"

	"repro/internal/fs"
	"repro/internal/sim"
	"repro/rio"
)

// The Rio programming model (§4.6) in a dozen lines. A stream gives
// ordered writes: groups delimited by boundaries, durability from a single
// FLUSH-carrying commit, and completions always delivered in storage order
// — while everything underneath runs asynchronously across the simulated
// RDMA fabric and NVMe SSDs.
func Example_quickstart() {
	// rio_setup: one initiator, one Optane target, 24 streams.
	c := rio.NewCluster(rio.Options{Seed: 42})
	defer c.Close()

	c.Go(func(ctx *rio.Ctx) {
		s := ctx.Stream(0)

		// A metadata-journaling transaction: the journal description and
		// metadata blocks form group 1 (they may reorder with each other),
		// the commit record is group 2 and must persist after them.
		s.Write(100, 2)        // rio_submit: journal description + metadata
		jm := s.Close(102, 1)  // rio_submit: boundary closes group 1
		jc := s.Commit(103, 1) // rio_submit: commit record + FLUSH

		jc.Wait() // rio_wait: durable and ordered

		fmt.Printf("commit delivered at %v (group %d)\n", ctx.Now(), jc.Attr().SeqStart)
		fmt.Printf("in-order completion: earlier group delivered first = %v\n", jm.Done())

		// Throughput feel: push 1000 ordered 4 KB writes asynchronously,
		// wait once at the end.
		start := ctx.Now()
		var last *rio.Handle
		for i := 0; i < 1000; i++ {
			last = s.Close(uint64(1000+i), 1)
		}
		last.Wait()
		el := ctx.Now() - start
		fmt.Printf("1000 ordered writes in %v (%.0f K ordered writes/s)\n",
			el, 1000/el.Seconds()/1e3)
	})
	c.Run()
	// Output:
	// commit delivered at 39.492us (group 2)
	// in-order completion: earlier group delivered first = true
	// 1000 ordered writes in 2.236ms (447 K ordered writes/s)
}

// Ordered writes striped across two target servers (the paper's Fig. 10(d)
// topology) need no cross-server coordination on the data path, and a
// crashed target is repaired by replaying in-flight requests (§4.4.1)
// transparently to the application.
func Example_multiTarget() {
	c := rio.NewCluster(rio.Options{
		Seed: 3,
		Targets: []rio.TargetSpec{
			{SSDs: []rio.DeviceClass{rio.Optane, rio.Flash}},
			{SSDs: []rio.DeviceClass{rio.Optane, rio.Flash}},
		},
		Streams: 8,
	})
	defer c.Close()

	// Phase 1: striped ordered writes saturate both servers concurrently.
	c.Go(func(ctx *rio.Ctx) {
		s := ctx.Stream(0)
		start := ctx.Now()
		// 64 KB ordered writes: split across devices (and servers) with
		// split ordering attributes, merged back during recovery.
		var last *rio.Handle
		for i := 0; i < 200; i++ {
			last = s.Close(uint64(i*16), 16)
		}
		last.Wait()
		el := ctx.Now() - start
		fmt.Printf("striped: 200 x 64KB ordered writes in %v (%.2f GB/s)\n",
			el, 200*16*4096/el.Seconds()/1e9)
	})
	c.Run()

	// Phase 2: crash target 1 mid-stream; the initiator replays.
	var handles []*rio.Handle
	c.Go(func(ctx *rio.Ctx) {
		s := ctx.Stream(1)
		for i := 0; i < 100; i++ {
			handles = append(handles, s.Close(uint64(1_000_000+i), 1))
			ctx.Sleep(2 * sim.Microsecond)
		}
	})
	c.Engine().At(50*sim.Microsecond, func() {
		fmt.Println("!! target 1 loses power mid-stream")
		c.Fault(rio.TargetScope(1))
	})
	c.RunFor(2 * sim.Millisecond)

	c.Go(func(ctx *rio.Ctx) {
		rep := ctx.Recover(rio.TargetScope(1))
		fmt.Printf("target recovery: replayed %d commands in %v\n",
			rep.Timing.Replayed, rep.Timing.DataRecovery)
	})
	c.Run()

	delivered := 0
	for _, h := range handles {
		if h.Done() {
			delivered++
		}
	}
	fmt.Printf("after recovery: %d/%d ordered writes delivered (no application-visible loss)\n",
		delivered, len(handles))
	// Output:
	// striped: 200 x 64KB ordered writes in 2.781ms (4.71 GB/s)
	// !! target 1 loses power mid-stream
	// target recovery: replayed 46 commands in 2.638ms
	// after recovery: 100/100 ordered writes delivered (no application-visible loss)
}

// Several initiator servers share one target fleet, each with its own
// ordering domains end to end — per-initiator sequencer namespaces,
// queue-pair sets and PMR log partitions at the targets. Aggregate
// throughput scales with initiators at fixed targets, and power-cutting one
// initiator mid-stream leaves the others' throughput and ordering
// untouched: the crashed initiator recovers from its OWN PMR partitions
// without rolling back a single block of its neighbors.
func Example_multiInitiator() {
	const initiators = 3
	c := rio.NewCluster(rio.Options{
		Seed:       11,
		Initiators: initiators,
		Streams:    4,
		Targets: []rio.TargetSpec{
			{SSDs: []rio.DeviceClass{rio.Optane, rio.Optane}},
			{SSDs: []rio.DeviceClass{rio.Optane, rio.Optane}},
		},
	})
	defer c.Close()

	// Phase 1: every initiator pushes ordered writes concurrently.
	done := 0
	for ii := 0; ii < initiators; ii++ {
		c.GoOn(ii, func(ctx *rio.Ctx) {
			s := ctx.Stream(0)
			var last *rio.Handle
			for i := 0; i < 300; i++ {
				// Disjoint LBA areas per initiator; same stream id — the
				// domains are (initiator, stream), so they never collide.
				last = s.Close(uint64(ii<<22|i*2), 1)
			}
			last.Wait()
			done += 300
		})
	}
	start := c.Now()
	c.Run()
	el := c.Now() - start
	fmt.Printf("phase 1: %d initiators wrote %d ordered groups in %v (%.0f K ordered writes/s aggregate)\n",
		initiators, done, el, float64(done)/el.Seconds()/1e3)

	// Phase 2: initiator 2 dies mid-batch; 0 and 1 keep going.
	var survivors [2]*rio.Handle
	var victimSubmitted int
	c.GoOn(2, func(ctx *rio.Ctx) {
		s := ctx.Stream(1)
		for i := 0; i < 200 && ctx.Alive(); i++ {
			s.Close(uint64(2<<22|1<<20|i), 1)
			victimSubmitted++
			ctx.Sleep(2 * sim.Microsecond)
		}
	})
	for ii := range survivors {
		c.GoOn(ii, func(ctx *rio.Ctx) {
			s := ctx.Stream(1)
			var last *rio.Handle
			for i := 0; i < 200; i++ {
				last = s.Close(uint64(ii<<22|1<<20|i), 1)
				ctx.Sleep(sim.Microsecond)
			}
			survivors[ii] = last
		})
	}
	c.Engine().At(100*sim.Microsecond, func() { c.Fault(rio.InitiatorScope(2)) })
	c.Run()
	ok := 0
	for _, h := range survivors {
		if h != nil && h.Done() {
			ok++
		}
	}
	fmt.Printf("phase 2: initiator 2 power-cut after submitting %d groups; %d/2 survivors completed all 200 groups each\n",
		victimSubmitted, ok)

	// Phase 3: the victim recovers from its own PMR partitions; peers
	// are neither scanned nor rolled back.
	c.GoOn(2, func(ctx *rio.Ctx) {
		rep := ctx.Recover(rio.InitiatorScope(2))
		fmt.Printf("phase 3: initiator 2 recovered: durable prefix on its stream 1 = %d of %d submitted (order rebuild %v, data recovery %v)\n",
			rep.DurablePrefixFor(2, 1), victimSubmitted,
			rep.Timing.OrderRebuild, rep.Timing.DataRecovery)
		// The fresh incarnation is immediately usable.
		ctx.Stream(0).Commit(uint64(2<<22|3<<20), 1).Wait()
		fmt.Println("phase 3: recovered initiator committed new durable work — cluster fully operational")
	})
	c.Run()
	// Output:
	// phase 1: 3 initiators wrote 900 ordered groups in 805.425us (1117 K ordered writes/s aggregate)
	// phase 2: initiator 2 power-cut after submitting 38 groups; 2/2 survivors completed all 200 groups each
	// phase 3: initiator 2 recovered: durable prefix on its stream 1 = 29 of 38 submitted (order rebuild 18.178ms, data recovery 12.000us)
	// phase 3: recovered initiator committed new durable work — cluster fully operational
}

// Every stream's ordered writes fan out to a replica set of R targets,
// each replica enforcing Rio's ordering invariants independently (own
// dense ServerIdx chain, own PMR log, own in-order gate), with completions
// delivered at write quorum. A committed write is durable and
// byte-identical on a quorum of members; power-cutting one member
// mid-stream stalls no stream while the set runs degraded (epoch-marked in
// the survivors' PMR); and the member rejoins by replaying the delta it
// missed from a peer replica's media. Over the relay fast path, even a
// head cut degrades the set to direct fan-out without a stall.
func Example_replication() {
	optane3 := []rio.TargetSpec{
		{SSDs: []rio.DeviceClass{rio.Optane}},
		{SSDs: []rio.DeviceClass{rio.Optane}},
		{SSDs: []rio.DeviceClass{rio.Optane}},
	}
	c := rio.NewCluster(rio.Options{Seed: 21, Streams: 4, Replicas: 3, Targets: optane3})
	defer c.Close()
	fmt.Printf("replica sets: %d, members per set: %v, write quorum: %d\n",
		c.ReplicaSets(), c.SetMembers(0), c.WriteQuorum())

	// writeThrough writes 200 one-block groups on stream, one a
	// microsecond, while a power cut hits target at 80 µs, and returns how
	// many of them never completed.
	writeThrough := func(c *rio.Cluster, stream int, base uint64, target int) int {
		var handles []*rio.Handle
		c.Go(func(ctx *rio.Ctx) {
			s := ctx.Stream(stream)
			for g := 0; g < 200; g++ {
				handles = append(handles, s.Close(base|uint64(g), 1))
				ctx.Sleep(sim.Microsecond)
			}
		})
		c.Engine().At(80*sim.Microsecond, func() { c.Fault(rio.TargetScope(target)) })
		c.Run()
		stalled := 0
		for _, h := range handles {
			if !h.Done() {
				stalled++
			}
		}
		return stalled
	}

	// Phase 1: ordered writes land on every member.
	c.Go(func(ctx *rio.Ctx) {
		s := ctx.Stream(0)
		for g := 0; g < 99; g++ {
			s.Close(uint64(g), 1)
		}
		s.Close(99, 1).Wait()
	})
	c.Run()
	fmt.Println("phase 1: 100 ordered groups committed across the 3-way set")

	// Phase 2: one member dies mid-stream; nothing stalls.
	stalled := writeThrough(c, 1, 1<<20, 1)
	fmt.Printf("phase 2: member 1 power-cut mid-stream; %d/200 writes stalled (in sync: %v, set epoch %d, resync backlog %d extents)\n",
		stalled, c.InSync(1), c.SetEpoch(0), c.ResyncBacklog(1))

	// Phase 3: background resync — the member replays the delta from a
	// peer's media and rejoins; the set converges, which the read path
	// (any in-sync member) shows.
	c.Go(func(ctx *rio.Ctx) {
		rep := ctx.Recover(rio.TargetScope(1))
		fmt.Printf("phase 3: member 1 resynced (peer PMR scan %v, delta copy %v, %d blocks replayed) — in sync: %v, set epoch %d\n",
			rep.Timing.OrderRebuild, rep.Timing.DataRecovery, rep.Timing.Replayed,
			c.InSync(1), c.SetEpoch(0))
		readable := 0
		for g := 0; g < 200; g++ {
			if recs := ctx.Read(uint64(1<<20|g), 1); len(recs) > 0 && recs[0].Stamp != 0 {
				readable++
			}
		}
		fmt.Printf("phase 3: %d/200 of the failover-window writes readable after resync\n", readable)
	})
	c.Run()

	// Phase 4: the relay fast path. The initiator posts one capsule per
	// batch to the set HEAD, which relays follower copies over
	// target-to-target links and aggregates follower acks into a single
	// quorum CQE. Cutting the head mid-stream is the worst case: the set
	// must degrade back to direct fan-out with no lost or duplicated
	// completions.
	rc := rio.NewCluster(rio.Options{Seed: 22, Streams: 4, Replicas: 3, Relay: true, Targets: optane3})
	defer rc.Close()
	head := rc.SetMembers(0)[0]
	fmt.Printf("phase 4: relay head (member %d) power-cut mid-stream; %d/200 writes stalled (set degraded to direct fan-out)\n",
		head, writeThrough(rc, 0, 2<<20, head))
	// Output:
	// replica sets: 1, members per set: [0 1 2], write quorum: 2
	// phase 1: 100 ordered groups committed across the 3-way set
	// phase 2: member 1 power-cut mid-stream; 0/200 writes stalled (in sync: false, set epoch 1, resync backlog 85 extents)
	// phase 3: member 1 resynced (peer PMR scan 54.529ms, delta copy 1.175ms, 170 blocks replayed) — in sync: true, set epoch 2
	// phase 3: 200/200 of the failover-window writes readable after resync
	// phase 4: relay head (member 0) power-cut mid-stream; 0/200 writes stalled (set degraded to direct fan-out)
}

// The fsync path of the three file systems the paper compares (§6.3) on
// the same workload, with the Fig. 14 latency breakdown. Ext4 orders its
// journal with synchronous transfer + FLUSH, HoraeFS with Horae's
// synchronous control path, and RioFS with Rio streams. The RioFS run uses
// the full modern topology: two initiator servers over a 2-way-replicated
// target fleet, with the file system bound to initiator 1 — per-initiator
// ordering domains make the choice free.
func Example_journaling() {
	for _, d := range []struct {
		name     string
		ordering rio.Ordering
		fsDesign rio.FSDesign
		// The replicated multi-initiator topology needs Rio ordering;
		// the baselines keep the classic single-server shape.
		replicated bool
	}{
		{"Ext4   ", rio.Orderless, rio.Ext4FS, false},
		{"HoraeFS", rio.Horae, rio.HoraeFSFS, false},
		{"RioFS  ", rio.Rio, rio.RioFSFS, true},
	} {
		opts := rio.Options{Ordering: d.ordering, Seed: 7}
		bind := 0
		if d.replicated {
			opts.Initiators, opts.Replicas, bind = 2, 2, 1
			opts.Targets = []rio.TargetSpec{
				{SSDs: []rio.DeviceClass{rio.Optane}}, {SSDs: []rio.DeviceClass{rio.Optane}},
			}
		}
		c := rio.NewCluster(opts)
		c.GoOn(bind, func(ctx *rio.Ctx) {
			p := ctx.Proc()
			fsys := ctx.FS(rio.FSOptions{Design: d.fsDesign, Journals: 8})
			var tr fs.FsyncTrace // the last fsync's phases
			fsys.TraceHook = func(last fs.FsyncTrace) { tr = last }
			f, err := fsys.Create(p, "journal-demo")
			// One warm-up transaction, then 50 measured steady fsyncs.
			var start sim.Time
			for i := 0; i <= 50 && err == nil; i++ {
				if i == 1 {
					start = ctx.Now()
				}
				if err = fsys.Append(p, f, 4096); err == nil {
					fsys.Fsync(p, f, 0)
				}
			}
			if err != nil {
				fmt.Println(err)
				return
			}
			fmt.Printf("%s (initiator %d)  fsync avg %8v   breakdown: D=%v JM=%v JC=%v wait=%v\n",
				d.name, ctx.Initiator(), (ctx.Now()-start)/50, tr.DDispatch, tr.JMDispatch, tr.JCDispatch, tr.WaitIO)
		})
		c.Run()
		c.Close()
	}
	fmt.Println("\npaper (Fig. 14): HoraeFS D=5.9us JM=19.3us JC=16.7us wait=34.9us -> 76.7us")
	fmt.Println("                 RioFS   D=5.9us JM=1.4us  JC=1.1us  wait=34.8us -> 43.2us")
	// Output:
	// Ext4    (initiator 0)  fsync avg 151.571us   breakdown: D=5.700us JM=0ns JC=0ns wait=144.790us
	// HoraeFS (initiator 0)  fsync avg 78.323us   breakdown: D=5.700us JM=20.738us JC=20.709us wait=31.198us
	// RioFS   (initiator 1)  fsync avg 47.958us   breakdown: D=5.700us JM=1.700us JC=700ns wait=35.535us
	//
	// paper (Fig. 14): HoraeFS D=5.9us JM=19.3us JC=16.7us wait=34.9us -> 76.7us
	//                  RioFS   D=5.9us JM=1.4us  JC=1.1us  wait=34.8us -> 43.2us
}

// Two tenants — each a RocksDB-like LSM engine (WAL + memtable + SST
// flush) on its own RioFS — serve fillsync traffic from their own
// initiator servers over a replicated target fleet; then the whole cluster
// loses power and both tenants recover: the §6.4 workload plus the crash
// behavior that makes ordered storage worth having.
func Example_kvStore() {
	const tenants = 2
	optane := rio.TargetSpec{SSDs: []rio.DeviceClass{rio.Optane}}
	c := rio.NewCluster(rio.Options{
		Seed:       11,
		History:    true,
		Initiators: tenants,
		Targets:    []rio.TargetSpec{optane, optane, optane, optane},
		Replicas:   2,
	})
	defer c.Close()

	kvOpts := rio.KVOptions{MemtableBytes: 64 << 10}
	fsOpts := func(tenant int) rio.FSOptions {
		o := rio.FSOptions{Design: rio.RioFSFS, Journals: 8, JournalBlocks: 2048}
		o.BaseLBA = uint64(tenant) * o.Blocks() // tenants stack on the volume
		return o
	}

	acked := make([]int, tenants)
	for ten := 0; ten < tenants; ten++ {
		c.GoOn(ten, func(ctx *rio.Ctx) {
			p := ctx.Proc()
			db, err := ctx.KV(ctx.FS(fsOpts(ten)), kvOpts)
			start := ctx.Now()
			for i := 0; i < 200 && err == nil; i++ {
				key := fmt.Sprintf("user%08d", i*7919%100000)
				if err = db.Put(p, 0, key, db.Options().ValueSize); err == nil {
					acked[ten]++
				}
			}
			if err != nil {
				fmt.Println(err)
				return
			}
			el := ctx.Now() - start
			st := db.Close(p)
			fmt.Printf("tenant %d (initiator %d): %d puts in %v (%.1f K puts/s), %d memtable flushes, %d SSTs\n",
				ten, ctx.Initiator(), st.Puts, el, float64(st.Puts)/el.Seconds()/1e3, st.Flushes, st.SSTFiles)
		})
	}
	c.Run()

	// Every put was acknowledged durable (WAL fsync on a write quorum) —
	// cut the power on the whole deployment, then recover it.
	c.Fault(rio.ClusterScope())
	c.Go(func(ctx *rio.Ctx) {
		rep := ctx.Recover(rio.ClusterScope())
		fmt.Printf("storage recovery: order rebuild %v, data recovery %v\n",
			rep.Timing.OrderRebuild, rep.Timing.DataRecovery)
		lost := 0
		for ten := 0; ten < tenants; ten++ {
			fs2, rst := ctx.RemountFS(fsOpts(ten))
			n, err := ctx.KVRecoverCount(fs2, kvOpts)
			if err != nil {
				fmt.Println(err)
				return
			}
			fmt.Printf("tenant %d: fs replayed %d txns (%d incomplete discarded); WAL+SST hold %d records (acked before cut: %d)\n",
				ten, rst.Committed, rst.Incomplete, n, acked[ten])
			lost += max(acked[ten]-n, 0)
		}
		fmt.Printf("=> %d acknowledged puts lost across both tenants\n", lost)
	})
	c.Run()
	// Output:
	// tenant 0 (initiator 0): 200 puts in 9.557ms (20.9 K puts/s), 3 memtable flushes, 3 SSTs
	// tenant 1 (initiator 1): 200 puts in 9.569ms (20.9 K puts/s), 3 memtable flushes, 3 SSTs
	// storage recovery: order rebuild 54.532ms, data recovery 0ns
	// tenant 0: fs replayed 203 txns (0 incomplete discarded); WAL+SST hold 389 records (acked before cut: 200)
	// tenant 1: fs replayed 203 txns (0 incomplete discarded); WAL+SST hold 389 records (acked before cut: 200)
	// => 0 acknowledged puts lost across both tenants
}
