package main

import (
	"runtime"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/fs"
	"repro/internal/kv"
	"repro/internal/metrics"
	"repro/internal/nvmeof"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
	"repro/internal/trace"
	"repro/rio"
)

// The layer microbenchmarks: timed loops over one layer's exported
// functions, host ns and Go allocations per call. They do not depend on
// the workload; a traced run reports them beside the workload's own
// per-layer numbers.

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink any

// stopwatch times the part of a microbenchmark between start and stop.
type stopwatch struct {
	m0     runtime.MemStats
	t0     time.Time
	ns     int64
	allocs int64
}

func (s *stopwatch) start() {
	runtime.ReadMemStats(&s.m0)
	s.t0 = time.Now()
}

func (s *stopwatch) stop() {
	s.ns = time.Since(s.t0).Nanoseconds()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	s.allocs = int64(m1.Mallocs - s.m0.Mallocs)
}

// timed runs fn three times over n calls and returns the median host ns
// and allocations per call. fn starts the stopwatch after its set-up and
// stops it before its tear-down.
func timed(n int, fn func(n int, sw *stopwatch)) (ns, allocs float64) {
	var nss, as []float64
	for i := 0; i < 3; i++ {
		var sw stopwatch
		fn(n, &sw)
		nss = append(nss, float64(sw.ns)/float64(n))
		as = append(as, float64(sw.allocs)/float64(n))
	}
	return median(nss), median(as)
}

// layerBenchmarks returns every ".ns"/".allocs"/".host_ns" metric.
func layerBenchmarks(short bool) map[string]float64 {
	out := map[string]float64{}
	scale := func(n int) int {
		if short {
			return n/20 + 1
		}
		return n
	}
	run := func(name string, n int, fn func(n int, sw *stopwatch)) {
		ns, allocs := timed(scale(n), fn)
		out[name+nsSuffix(name)] = ns
		out[name+".allocs"] = allocs // kept only where the metric table lists it
	}

	run("sim.at_run", 50000, func(n int, sw *stopwatch) {
		eng := sim.New(1)
		cnt := 0
		sw.start()
		for i := 0; i < n; i++ {
			eng.At(sim.Time(i%97), func() { cnt++ })
		}
		eng.Run()
		sw.stop()
		sink = cnt
	})
	run("sim.proc_sleep", 20000, func(n int, sw *stopwatch) {
		eng := sim.New(1)
		eng.Go("sleeper", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(10)
			}
		})
		sw.start()
		eng.Run()
		sw.stop()
		eng.Shutdown()
	})
	run("sim.queue_handoff", 20000, func(n int, sw *stopwatch) {
		eng := sim.New(1)
		q := sim.NewQueue[int](eng)
		got := 0
		eng.Go("consumer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				got += q.Pop(p)
			}
		})
		eng.Go("producer", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				q.Push(i)
				p.Yield()
			}
		})
		sw.start()
		eng.Run()
		sw.stop()
		eng.Shutdown()
		sink = got
	})
	run("sim.resource_use", 20000, func(n int, sw *stopwatch) {
		eng := sim.New(1)
		r := sim.NewResource(eng, 1)
		eng.Go("user", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				r.Use(p, 10)
			}
		})
		sw.start()
		eng.Run()
		sw.stop()
		eng.Shutdown()
	})
	run("sim.cond_signal", 20000, func(n int, sw *stopwatch) {
		eng := sim.New(1)
		ping, pong := sim.NewCond(eng), sim.NewCond(eng)
		eng.Go("echo", func(p *sim.Proc) {
			for {
				ping.Wait(p)
				pong.Signal()
			}
		})
		eng.Go("caller", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				ping.Signal()
				pong.Wait(p)
			}
		})
		sw.start()
		eng.Run()
		sw.stop()
		eng.Shutdown()
	})

	domain := func() *order.Domain[int] {
		return order.NewEngine[int](order.Rio{}, 1, 1, 1, 32).Domain(0, 0)
	}
	run("order.gate_inorder", 1000000, func(n int, sw *stopwatch) {
		d := domain()
		admitted := 0
		sw.start()
		for i := uint64(1); i <= uint64(n); i++ {
			if d.Admit(i) {
				admitted++
			}
			d.Advance(i)
		}
		sw.stop()
		sink = admitted
	})
	run("order.gate_park_drain", 500000, func(n int, sw *stopwatch) {
		// Reverse arrival in runs of 16: 15 commands park, the 16th is the
		// frontier and drains them.
		d := domain()
		drained := 0
		sw.start()
		for base := uint64(0); base < uint64(n); base += 16 {
			for k := uint64(16); k >= 2; k-- {
				d.Park(base+k, int(k))
			}
			d.Advance(base + 1)
			for {
				v, ok := d.TakeNext()
				if !ok {
					break
				}
				drained += v
				d.Advance(d.Frontier())
			}
		}
		sw.stop()
		sink = drained
	})
	run("order.slot_retire", 1000000, func(n int, sw *stopwatch) {
		d := domain()
		freed := 0
		free := func(uint64) { freed++ }
		sw.start()
		for i := uint64(1); i <= uint64(n); i++ {
			d.RecordSlot(i, i)
			if i%16 == 0 {
				d.RetireUpTo(i, free)
			}
		}
		sw.stop()
		sink = freed
	})
	run("order.quorum_ack", 1000000, func(n int, sw *stopwatch) {
		var q order.Quorum
		fired := 0
		sw.start()
		for i := 0; i < n; i++ {
			q.Reset()
			q.Need = 2
			for m := 0; m < 3; m++ {
				q.Add(m)
			}
			for m := 0; m < 3; m++ {
				if q.Ack(q.Pos(m)) && q.Acks == q.Need {
					fired++
				}
			}
			if !q.Done() {
				fired--
			}
		}
		sw.stop()
		sink = fired
	})

	attr := core.Attr{Stream: 3, ReqID: 9, SeqStart: 7, SeqEnd: 7, Num: 1, ServerIdx: 5,
		LBA: 4096, Blocks: 1, Boundary: true}
	run("nvmeof.attr_roundtrip", 1000000, func(n int, sw *stopwatch) {
		var blocks uint32
		sw.start()
		for i := 0; i < n; i++ {
			a := attr
			a.LBA = uint64(i)
			sqe := nvmeof.RioWriteCommand(1, a)
			back, err := nvmeof.DecodeAttr(&sqe)
			if err == nil {
				blocks += back.Blocks
			}
		}
		sw.stop()
		sink = blocks
	})
	run("nvmeof.vector8_encode_check", 1000000, func(n int, sw *stopwatch) {
		sqes := make([]*nvmeof.SQE, 8)
		for i := range sqes {
			s := nvmeof.RioWriteCommand(1, attr)
			sqes[i] = &s
		}
		bad := 0
		sw.start()
		for i := 0; i < n; i++ {
			nvmeof.EncodeVector(sqes)
			if nvmeof.CheckVector(sqes) != nil {
				bad++
			}
		}
		sw.stop()
		sink = bad
	})
	run("nvmeof.cqevector8_encode_check", 1000000, func(n int, sw *stopwatch) {
		cqes := make([]nvmeof.CQE, 8)
		for i := range cqes {
			cqes[i] = nvmeof.NewCQE(uint64(i))
		}
		bad := 0
		sw.start()
		for i := 0; i < n; i++ {
			nvmeof.EncodeCQEVector(cqes)
			if nvmeof.CheckCQEVector(cqes) != nil {
				bad++
			}
		}
		sw.stop()
		sink = bad
	})

	run("core.log_append_persist_retire", 300000, func(n int, sw *stopwatch) {
		l := core.NewLog(make([]byte, 2<<20))
		sw.start()
		for i := 0; i < n; i++ {
			slot, ok := l.Append(attr)
			if ok {
				l.MarkPersist(slot)
				l.Retire(slot)
			}
		}
		sw.stop()
		sink = l.Free()
	})
	run("core.seq_submit_complete", 300000, func(n int, sw *stopwatch) {
		st := core.NewSequencer(1).Stream(0)
		delivered := 0
		sw.start()
		for i := 0; i < n; i++ {
			t := st.Submit(uint64(i), 1, true, false, false, nil)
			st.NextServerIdx(0)
			delivered += len(st.Completed(t.Attr.ReqID))
		}
		sw.stop()
		sink = delivered
	})
	run("core.merge_split", 1000000, func(n int, sw *stopwatch) {
		a, b := attr, attr
		b.SeqStart, b.SeqEnd, b.LBA, b.ServerIdx = 8, 8, attr.LBA+1, 6
		wide := attr
		wide.Blocks = 4
		var frags []core.Attr
		var blocks uint32
		sw.start()
		for i := 0; i < n; i++ {
			blocks += core.Merge(a, b).Blocks
			frags = core.SplitAttrInto(frags, wide, []uint32{2, 2})
		}
		sw.stop()
		sink = blocks + uint32(len(frags))
	})
	// One 2 MB PMR region as a crash leaves it: 8 streams, persisted
	// entries, the newest few not yet persisted.
	region := make([]byte, 2<<20)
	{
		l := core.NewLog(region)
		for i := 0; i < l.Cap(); i++ {
			a := attr
			a.Stream = uint16(i % 8)
			a.SeqStart = uint64(i/8 + 1)
			a.SeqEnd = a.SeqStart
			a.ReqID = uint32(i / 8)
			a.ServerIdx = a.SeqStart
			a.LBA = uint64(i)
			slot, _ := l.Append(a)
			if i < l.Cap()-64 {
				l.MarkPersist(slot)
			}
		}
	}
	entries := len(region) / core.EntrySize
	scanNs, _ := timed(scale(20), func(n int, sw *stopwatch) {
		found := 0
		sw.start()
		for i := 0; i < n; i++ {
			found += len(core.ScanRegion(region))
		}
		sw.stop()
		sink = found
	})
	out["core.scan_region.ns_per_entry"] = scanNs / float64(entries)
	view := order.ScanPartition(0, true, region)
	analyzeNs, _ := timed(scale(10), func(n int, sw *stopwatch) {
		var prefix uint64
		sw.start()
		for i := 0; i < n; i++ {
			prefix += order.MergeViews([]core.ServerView{view}).Prefix(0)
		}
		sw.stop()
		sink = prefix
	})
	out["core.analyze.ns_per_entry"] = analyzeNs / float64(entries)

	vol := blockdev.NewVolume([]blockdev.DevRef{{Server: 0, SSD: 0, Blocks: 1 << 22}, {Server: 0, SSD: 1, Blocks: 1 << 22},
		{Server: 1, SSD: 0, Blocks: 1 << 22}, {Server: 1, SSD: 1, Blocks: 1 << 22}}, 4)
	run("blockdev.extents", 500000, func(n int, sw *stopwatch) {
		exts := 0
		sw.start()
		for i := 0; i < n; i++ {
			exts += len(vol.Extents(uint64(i)*16, 16))
		}
		sw.stop()
		sink = exts
	})
	run("blockdev.fuserun16", 20000, func(n int, sw *stopwatch) {
		// FuseRun consumes its input, so every call gets a batch of 16
		// consecutive mergeable one-block commands built beforehand.
		batches := make([][]*blockdev.WireCmd, n)
		for i := range batches {
			for k := 0; k < 16; k++ {
				a := attr
				a.SeqStart = uint64(i*16 + k + 1)
				a.SeqEnd = a.SeqStart
				a.LBA = uint64(k)
				a.ServerIdx = a.SeqStart
				batches[i] = append(batches[i], &blockdev.WireCmd{
					LBA: uint64(k), Blocks: 1, Ordered: true, Attr: a, Stamps: []uint64{a.SeqStart}})
			}
		}
		left := 0
		sw.start()
		for _, b := range batches {
			left += len(blockdev.FuseRun(b, 32))
		}
		sw.stop()
		sink = left
	})

	run("fabric.send_deliver", 20000, func(n int, sw *stopwatch) {
		eng := sim.New(1)
		conn := fabric.NewConn(eng, fabric.DefaultConfig(8))
		got := 0
		conn.SetHandler(fabric.Target, func(fabric.Message) { got++ })
		sw.start()
		for i := 0; i < n; i++ {
			conn.Send(fabric.Initiator, fabric.Message{QP: i % 8, Size: nvmeof.CapsuleSize(0)})
		}
		eng.Run()
		sw.stop()
		eng.Shutdown()
		sink = got
	})
	run("ssd.write_complete", 10000, func(n int, sw *stopwatch) {
		eng := sim.New(1)
		dev := ssd.New(eng, ssd.OptaneConfig())
		done := 0
		sw.start()
		for i := 0; i < n; i++ {
			dev.Submit(&ssd.Command{Op: ssd.OpWrite, LBA: uint64(i), Blocks: 1,
				Stamps: []uint64{uint64(i)}, Done: func(*ssd.Command) { done++ }})
		}
		eng.Run()
		sw.stop()
		eng.Shutdown()
		sink = done
	})

	run("metrics.hist_record", 2000000, func(n int, sw *stopwatch) {
		var h metrics.Histogram
		sw.start()
		for i := 0; i < n; i++ {
			h.Record(sim.Time(i * 37 % 200000))
		}
		sw.stop()
		sink = h.Count()
	})
	run("metrics.hist_p99", 20000, func(n int, sw *stopwatch) {
		var h metrics.Histogram
		for i := 0; i < 100000; i++ {
			h.Record(sim.Time(i * 37 % 200000))
		}
		var sum sim.Time
		sw.start()
		for i := 0; i < n; i++ {
			sum += h.P99()
		}
		sw.stop()
		sink = sum
	})
	run("trace.span_cycle", 300000, func(n int, sw *stopwatch) {
		tr := trace.New(trace.Config{SampleEvery: 1}, 1)
		slab := tr.NewSlab()
		sw.start()
		for i := 0; i < n; i++ {
			at := sim.Time(i * 100)
			s := tr.Start(slab, 0, 0, uint64(i), 1, at)
			seq := s.Seq()
			for m := trace.MStaged; m < trace.NumMilestones; m++ {
				s.Mark(seq, m, at+sim.Time(m))
			}
			s.AddWait(seq, trace.WaitPMR, 5)
			tr.Finish(s, seq)
		}
		sw.stop()
		sink = tr.Stats().Finished
	})

	run("rio.write_wait", 3000, func(n int, sw *stopwatch) {
		c := rio.NewCluster(rio.Options{Streams: 1, Seed: 1})
		c.Go(func(ctx *rio.Ctx) {
			s := ctx.Stream(0)
			for i := 0; i < n; i++ {
				s.Commit(uint64(i), 1).Wait()
			}
		})
		sw.start()
		c.Run()
		sw.stop()
		c.Close()
	})

	// fs and kv on one Optane target: the application tier's host cost
	// per call, the stack underneath included.
	tier := func(n int, sw *stopwatch, setup func(p *sim.Proc, fsys *fs.FS) func(p *sim.Proc)) {
		eng := sim.New(1)
		c := stack.New(eng, baseConfig(stack.ModeRio, 4, targets(1, ssd.OptaneConfig())))
		fsys := fs.Open(c.Init(0), kvFS)
		var body func(p *sim.Proc)
		eng.Go("setup", func(p *sim.Proc) { body = setup(p, fsys) })
		eng.Run()
		eng.Go("body", body)
		sw.start()
		eng.Run()
		sw.stop()
		eng.Shutdown()
	}
	run("fs.append_fsync", 2000, func(n int, sw *stopwatch) {
		tier(n, sw, func(p *sim.Proc, fsys *fs.FS) func(p *sim.Proc) {
			f, err := fsys.Create(p, "log")
			if err != nil {
				panic(err)
			}
			return func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					if fsys.Append(p, f, fs.BlockSize) != nil {
						return
					}
					fsys.Fsync(p, f, 0)
				}
			}
		})
	})
	store := func(p *sim.Proc, fsys *fs.FS) *kv.DB {
		db, err := kv.Open(p, fsys, kv.Options{NegativeLookup: true})
		if err != nil {
			panic(err)
		}
		for k := 0; k < 256; k++ {
			if err := db.Put(p, 0, kvKey(uint64(k)), db.Options().ValueSize); err != nil {
				panic(err)
			}
		}
		return db
	}
	run("kv.put", 1500, func(n int, sw *stopwatch) {
		tier(n, sw, func(p *sim.Proc, fsys *fs.FS) func(p *sim.Proc) {
			db := store(p, fsys)
			return func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					if db.Put(p, 0, kvKey(uint64(1000+i)), db.Options().ValueSize) != nil {
						return
					}
				}
			}
		})
	})
	gets := func(first uint64) func(n int, sw *stopwatch) {
		return func(n int, sw *stopwatch) {
			tier(n, sw, func(p *sim.Proc, fsys *fs.FS) func(p *sim.Proc) {
				db := store(p, fsys)
				return func(p *sim.Proc) {
					hits := 0
					for i := 0; i < n; i++ {
						if db.Get(p, kvKey(first+uint64(i%256))) {
							hits++
						}
					}
					sink = hits
				}
			})
		}
	}
	run("kv.get_hit", 20000, gets(0))
	run("kv.get_absent", 20000, gets(1<<30))

	// Keep the names the metric table lists, under its spelling.
	listed := map[string]bool{}
	for _, m := range perLayer {
		listed[m.name] = true
	}
	for k := range out {
		if !listed[k] {
			delete(out, k)
		}
	}
	return out
}

// nsSuffix is ".host_ns" for the application-tier calls, whose time
// includes the whole stack underneath, and ".ns" for a single layer's.
func nsSuffix(name string) string {
	switch name {
	case "fs.append_fsync", "kv.put", "kv.get_hit", "kv.get_absent", "rio.write_wait":
		return ".host_ns"
	}
	return ".ns"
}
