package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
	"repro/internal/trace"
)

// options select how one seeded run of a workload is made.
type options struct {
	traced bool // stack tracer on, call spans recorded, CPU profile taken
	short  bool // 1 ms windows: the smoke run of the tests
	prof   *profiler
}

// traceConfig is the tracer setting of a traced run.
var traceConfig = trace.Config{SampleEvery: 8, Keep: 4096}

// hostCost is the host clock over one measure window: CPU time of the
// process (see yardstick.go), wall time, Go allocations.
type hostCost struct {
	ns, wallNs, allocs, bytes int64
	quietNs                   float64 // ns, each step scaled by the yardstick readings around it
	yardNs                    float64 // the readings themselves: ns per round trip, summed
	yardReadings              int64
}

func (h *hostCost) add(o hostCost) {
	h.ns += o.ns
	h.wallNs += o.wallNs
	h.allocs += o.allocs
	h.bytes += o.bytes
	h.quietNs += o.quietNs
	h.yardNs += o.yardNs
	h.yardReadings += o.yardReadings
}

var yard = newYardstick()

// timed closes the set-up that began at CPU time t0 and runs the steps of
// the measure window one after the other, recording what they cost the
// host. Before the first step and after every step comes a collection (so
// that a step pays for its own garbage only, and none is being marked while
// the yardstick runs) and a yardstick reading; neither counts as window
// time. Each step's CPU time is scaled by the mean of the readings on its
// two sides, the set-up by the reading that follows it. On traced runs the
// steps are CPU-profiled too.
func (w *window) timed(o options, t0 time.Duration, steps ...func()) {
	setup := cpuNow() - t0
	runtime.GC()
	trip := yard.reading()
	w.setup = time.Duration(float64(setup) * yardNominalNs / trip)
	h := hostCost{yardNs: trip, yardReadings: 1}
	for _, step := range steps {
		var m0, m1 runtime.MemStats
		if o.prof != nil {
			o.prof.start()
		}
		runtime.ReadMemStats(&m0)
		wall0, cpu0 := time.Now(), cpuNow()
		step()
		ns, wallNs := (cpuNow() - cpu0).Nanoseconds(), time.Since(wall0).Nanoseconds()
		runtime.ReadMemStats(&m1)
		if o.prof != nil {
			o.prof.stop()
		}
		runtime.GC()
		before := trip
		trip = yard.reading()
		h.add(hostCost{ns: ns, wallNs: wallNs,
			allocs: int64(m1.Mallocs - m0.Mallocs), bytes: int64(m1.TotalAlloc - m0.TotalAlloc),
			quietNs: float64(ns) * yardNominalNs / ((before + trip) / 2),
			yardNs:  trip, yardReadings: 1})
	}
	w.host = h
}

// quarters returns the steps that advance eng from where it stands to
// until, a quarter of the way each: four yardstick readings inside a long
// window, where the sandbox changes speed within a second.
func quarters(eng *sim.Engine, until sim.Time) []func() {
	from := eng.Now()
	steps := make([]func(), 4)
	for i := range steps {
		t := from + (until-from)*sim.Time(i+1)/4
		steps[i] = func() { eng.RunUntil(t) }
	}
	return steps
}

// counters is a snapshot of every cumulative counter a window is
// differenced over.
type counters struct {
	at                sim.Time
	cs                stack.ClusterStats
	ts                stack.TargetStats
	rc                stack.RCacheStats
	initBusy, tgtBusy sim.Time
	ssdWrites         int64
	ssdFlushes        int64
	ssdFlushBusy      sim.Time
	ssdSatStall       sim.Time
	ssdChanBusy       sim.Time
}

func snapshot(c *stack.Cluster) counters {
	s := counters{
		at: c.Eng.Now(), cs: c.StatsAll(), ts: c.TargetStatsAll(), rc: c.ReadCacheStatsAll(),
		initBusy: c.InitiatorUtil().Busy, tgtBusy: c.TargetUtil().Busy,
	}
	forEachSSD(c, func(d *ssd.SSD) {
		st := d.Stats()
		s.ssdWrites += st.Writes
		s.ssdFlushes += st.Flushes
		s.ssdFlushBusy += st.FlushBusy
		s.ssdSatStall += st.SatStall
		s.ssdChanBusy += d.ChannelBusy()
	})
	return s
}

// window is what one measure window (or the sum of several) produced.
// Everything in it adds, so a run made of several clusters (the offered
// rates of openloop_knee, the cuts of crash_recover) sums its windows.
type window struct {
	simNs  sim.Time
	ops    int64
	failed int64
	lat    []int64 // sorted
	host   hostCost
	setup  time.Duration

	cs                stack.ClusterStats
	ts                stack.TargetStats
	rc                stack.RCacheStats
	initBusy, tgtBusy sim.Time
	ssdWrites         int64
	ssdFlushes        int64
	ssdFlushBusy      sim.Time
	ssdSatStall       sim.Time
	ssdChanBusy       sim.Time
	chanNs            sim.Time // channels × simulated ns: the capacity ssdChanBusy fills
	ssdNs             sim.Time // devices × simulated ns

	tr      trace.Stats
	budget  float64 // p99 stage budget ÷ measured p99 of the traced spans
	calls   callSpans
	lateMax sim.Time
	audits  int64    // order/gate audit hits
	why     []string // one line per failed check
}

// between fills the counter deltas of w from two snapshots of c.
func (w *window) between(c *stack.Cluster, a, b counters) {
	w.simNs = b.at - a.at
	w.cs = b.cs.Sub(a.cs)
	w.ts = b.ts.Sub(a.ts)
	w.rc = b.rc.Sub(a.rc)
	w.initBusy = b.initBusy - a.initBusy
	w.tgtBusy = b.tgtBusy - a.tgtBusy
	w.ssdWrites = b.ssdWrites - a.ssdWrites
	w.ssdFlushes = b.ssdFlushes - a.ssdFlushes
	w.ssdFlushBusy = b.ssdFlushBusy - a.ssdFlushBusy
	w.ssdSatStall = b.ssdSatStall - a.ssdSatStall
	w.ssdChanBusy = b.ssdChanBusy - a.ssdChanBusy
	forEachSSD(c, func(d *ssd.SSD) {
		w.chanNs += sim.Time(d.Config().Channels) * w.simNs
		w.ssdNs += w.simNs
	})
}

func (w *window) add(o *window) {
	w.simNs += o.simNs
	w.ops += o.ops
	w.failed += o.failed
	w.lat = append(w.lat, o.lat...)
	slices.Sort(w.lat)
	w.host.add(o.host)
	w.setup += o.setup
	w.cs = w.cs.Add(o.cs)
	w.ts = w.ts.Add(o.ts)
	w.rc = w.rc.Add(o.rc)
	w.initBusy += o.initBusy
	w.tgtBusy += o.tgtBusy
	w.ssdWrites += o.ssdWrites
	w.ssdFlushes += o.ssdFlushes
	w.ssdFlushBusy += o.ssdFlushBusy
	w.ssdSatStall += o.ssdSatStall
	w.ssdChanBusy += o.ssdChanBusy
	w.chanNs += o.chanNs
	w.ssdNs += o.ssdNs
	w.tr.Merge(&o.tr)
	if o.budget > 0 {
		w.budget = o.budget
	}
	w.calls.submit = append(w.calls.submit, o.calls.submit...)
	w.calls.wait = append(w.calls.wait, o.calls.wait...)
	w.calls.put = append(w.calls.put, o.calls.put...)
	w.calls.get = append(w.calls.get, o.calls.get...)
	if o.lateMax > w.lateMax {
		w.lateMax = o.lateMax
	}
	w.audits += o.audits
	w.why = append(w.why, o.why...)
}

// fail records a failed output check; n operations count as failed.
func (w *window) fail(n int64, format string, args ...any) {
	if n <= 0 {
		return
	}
	w.failed += n
	w.why = append(w.why, fmt.Sprintf(format, args...))
}

// takeLoad moves the generators' results into w.
func (w *window) takeLoad(l *load) {
	w.ops = l.ops
	w.lat = sortedCopy(l.lat)
	if l.calls != nil {
		w.calls = *l.calls
	}
	w.fail(l.misordered, "%d completions delivered out of submission order", l.misordered)
	w.fail(l.wrong, "%d operations returned a wrong result", l.wrong)
}

// audit runs the output checks every workload shares, at a quiescent
// point: ordering-engine and per-target gate audits, read-cache audit,
// tracer books balanced and, with sameMedia, replica media byte-identical.
// sameMedia holds only where no block is written by two streams: a file
// system checkpoints one inode's home block from several journals, and
// nothing orders two streams' writes to one block across the members.
func (w *window) audit(c *stack.Cluster, sameMedia bool) {
	w.audits = int64(c.OrderAudit())
	for t := 0; t < c.Targets(); t++ {
		w.audits += int64(c.Target(t).GateAudit())
	}
	w.fail(w.audits, "order/gate audit: %d dense-chain violations", w.audits)
	if n := int64(c.CacheAudit()); n > 0 {
		w.fail(n, "cache audit: %d stale cached blocks", n)
	}
	if n := replicaDivergence(c); sameMedia && n > 0 {
		w.fail(n, "replica media: %d blocks differ between members of a set", n)
	}
	if tr := c.Tracer(); tr != nil {
		st := tr.Stats()
		if st.Sampled != st.Finished+st.Dropped+int64(st.Open) {
			w.fail(1, "tracer books: sampled %d != finished %d + dropped %d + open %d",
				st.Sampled, st.Finished, st.Dropped, st.Open)
		}
		w.tr = st
		w.budget = trace.BudgetP99(tr.Retained()).Ratio()
	}
}

// forEachSSD visits every device of every target of c.
func forEachSSD(c *stack.Cluster, fn func(d *ssd.SSD)) {
	for t, tc := range c.Config().Targets {
		for d := range tc.SSDs {
			fn(c.Target(t).SSD(d))
		}
	}
}

// replicaDivergence compares the durable media of every replica set's
// members block by block and returns the number of differing blocks.
func replicaDivergence(c *stack.Cluster) int64 {
	if c.Replicas() <= 1 {
		return 0
	}
	var bad int64
	for set := 0; set < c.SetCount(); set++ {
		members := c.SetMembers(set)
		for d := range c.Config().Targets[members[0]].SSDs {
			head := c.Target(members[0]).SSD(d)
			lbas := head.DurableLBAs()
			for _, m := range members[1:] {
				peer := c.Target(m).SSD(d)
				if len(peer.DurableLBAs()) != len(lbas) {
					bad++
				}
				for _, lba := range lbas {
					a, _ := head.Durable(lba)
					b, ok := peer.Durable(lba)
					if !ok || a.Stamp != b.Stamp {
						bad++
					}
				}
			}
		}
	}
	return bad
}

// drain stops the generators and runs the cluster to quiescence, then
// checks that every generator finished (none is stuck on a completion
// that never came).
func (w *window) drain(eng *sim.Engine, l *load) {
	l.stop = true
	eng.Run()
	w.fail(int64(l.started-l.finished), "%d of %d generators never finished: completions lost",
		l.started-l.finished, l.started)
}
