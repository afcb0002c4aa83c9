package stack

import (
	"sort"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/trace"
)

// TestTargetChargeLedger sends one capsule of n ordered writes to one
// Optane target on one stream and checks the target's busy time against
// the cost model, exactly: one RecvMsg, per command a CmdProcess and an
// attribute append, ONE PMR read-back for the whole capsule, per
// completion a CplHandle and a persist toggle, and a PostMsg per response
// capsule.
func TestTargetChargeLedger(t *testing.T) {
	for _, n := range []int{1, 4} {
		eng := sim.New(1)
		cfg := DefaultConfig(ModeRio, OptaneTarget())
		cfg.Streams, cfg.QPs = 1, 1
		c := New(eng, cfg)
		in, tgt := c.Init(0), c.Target(0)
		eng.Go("app", func(p *sim.Proc) {
			reqs := make([]*blockdev.Request, n)
			in.StartPlug(0)
			for i := range reqs {
				reqs[i] = in.OrderedWrite(p, 0, uint64(8*i), 1, 0, nil, true, false, false)
			}
			in.FinishPlug(p, 0)
			for _, r := range reqs {
				in.Wait(p, r)
			}
		})
		eng.Run()
		st := tgt.Stats()
		if st.Capsules != 1 || st.Commands != int64(n) || st.PMRAppends != int64(n) || st.PMRToggles != int64(n) || st.Holdbacks != 0 {
			t.Fatalf("n=%d: %+v, want one capsule of %d commands, each appended and toggled once", n, st, n)
		}
		k, sd := cfg.Costs, tgt.SSD(0)
		want := k.RecvMsg + sim.Time(n)*(k.CmdProcess+k.PMRAppendCPU) + sd.PMRWriteLat() +
			sim.Time(n)*(k.CplHandle+k.PMRToggleCPU) + sim.Time(st.Responses)*k.PostMsg
		if got := tgt.cores.BusyTime(); got != want {
			t.Errorf("n=%d: target busy %v, want %v (%d response capsules)", n, got, want, st.Responses)
		}
		eng.Shutdown()
	}
}

// TestBurstKeepsDomainOrderAcrossLanes scatters two streams over every
// queue pair (no stream affinity), so commands of one ordering domain
// arrive on several lanes out of order and park. Each domain's writes must
// still reach the SSD in ServerIdx order — here, LBA order — one after
// another: a lane never submits a successor of a command another lane
// holds in its burst. A parked command's gate-park wait reaches its trace.
func TestBurstKeepsDomainOrderAcrossLanes(t *testing.T) {
	eng := sim.New(5)
	cfg := smallConfig(ModeRio, optane1()...)
	cfg.StreamAffinity = false
	cfg.Trace = trace.Config{SampleEvery: 1}
	c := New(eng, cfg)
	const n = 60
	for s := 0; s < 2; s++ {
		eng.Go("app", func(p *sim.Proc) {
			var last *blockdev.Request
			for i := 0; i < n; i++ {
				last = c.Init(0).OrderedWrite(p, s, uint64(s<<20|8*i), 1, 0, nil, true, false, false)
			}
			c.Init(0).Wait(p, last)
		})
	}
	eng.Run()
	defer eng.Shutdown()
	if hb := c.Target(0).Stats().Holdbacks; hb == 0 {
		t.Fatal("no command parked: the lanes never reordered a domain")
	}
	if v := c.OrderAudit(); v != 0 {
		t.Fatalf("order audit: %d violations", v)
	}
	recs := c.tracer.Retained()
	if len(recs) != 2*n {
		t.Fatalf("%d spans retained, want %d", len(recs), 2*n)
	}
	parked := 0
	for _, r := range recs {
		if r.Waits[trace.WaitPark] > 0 {
			parked++
		}
	}
	if parked == 0 {
		t.Fatal("no traced request carries a gate-park wait")
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].LBA < recs[j].LBA })
	for i := 1; i < len(recs); i++ {
		a, b := recs[i-1], recs[i]
		if a.Stream == b.Stream && b.MS[trace.MSSDSubmit] <= a.MS[trace.MSSDSubmit] {
			t.Fatalf("stream %d: LBA %d reached the SSD at %v, not after LBA %d at %v",
				b.Stream, b.LBA, b.MS[trace.MSSDSubmit], a.LBA, a.MS[trace.MSSDSubmit])
		}
	}
}
