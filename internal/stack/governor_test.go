package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
)

// govBase is a complete, valid governor config for DefaultConfig.
func govBase() GovernorConfig {
	return GovernorConfig{
		Enabled:     true,
		UpOpsPerSec: 400e3, DownOpsPerSec: 200e3,
		LowHold: sim.Microsecond, HighHold: 8 * sim.Microsecond,
		LowBatch: 4, HighBatch: 16,
		LowPlug: 4, HighPlug: 32,
	}
}

func TestGovernorValidation(t *testing.T) {
	cfg := DefaultConfig(ModeRio, optane1()...)
	expectError := func(name string, gc GovernorConfig) {
		t.Helper()
		cfg.Governor = gc
		if cfg.Validate() == nil {
			t.Fatalf("%s: expected an error", name)
		}
	}
	expectError("no Up", GovernorConfig{Enabled: true})
	expectError("Down >= Up", GovernorConfig{Enabled: true, UpOpsPerSec: 100, DownOpsPerSec: 100})
}

// TestGovernorHysteresis drives a synthetic event sequence through one
// governor: a high-rate burst must switch it to the throughput-biased
// point exactly once, a low-rate tail must take it back exactly once,
// and the knob getters must track the operating point.
func TestGovernorHysteresis(t *testing.T) {
	gc := govBase()
	g := newGovernor(Config{Governor: gc}, 0)

	if g.high {
		t.Fatal("governor must start latency-biased")
	}
	if g.hold() != gc.LowHold || g.batch() != gc.LowBatch || g.plug() != gc.LowPlug {
		t.Fatalf("latency-biased knobs wrong: hold %v batch %d plug %d", g.hold(), g.batch(), g.plug())
	}

	// 1M ops/s: one event per µs. The first full window seeds the EWMA
	// at the raw rate, which is above Up -> exactly one switch.
	switches := 0
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now += sim.Microsecond
		if g.observe(now) {
			switches++
		}
	}
	if switches != 1 || !g.high {
		t.Fatalf("high-rate burst: switches=%d biased=%v", switches, g.high)
	}
	if g.hold() != gc.HighHold || g.batch() != gc.HighBatch || g.plug() != gc.HighPlug {
		t.Fatalf("throughput-biased knobs wrong: hold %v batch %d plug %d", g.hold(), g.batch(), g.plug())
	}

	// 10K ops/s: one event per 100 µs. Each elapsed window folds the low
	// rate in at alpha=0.5, so the EWMA halves toward 10K and crosses
	// Down after a few windows — exactly one switch back, no flapping.
	switches = 0
	for i := 0; i < 100; i++ {
		now += 100 * sim.Microsecond
		if g.observe(now) {
			switches++
		}
	}
	if switches != 1 || g.high {
		t.Fatalf("low-rate tail: switches=%d biased=%v", switches, g.high)
	}
}

// TestGovernorIdleDecay verifies an idle gap is treated as the string of
// empty windows it is: a throughput-biased governor that sees no traffic
// for many windows falls back to the latency-biased point at the first
// post-idle observe — which runs before the caller consults the knobs —
// so the first request after the gap is not charged the stale high
// operating point's hold/plug tax.
func TestGovernorIdleDecay(t *testing.T) {
	gc := govBase()
	g := newGovernor(Config{Governor: gc}, 0)
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now += sim.Microsecond
		g.observe(now)
	}
	if !g.high {
		t.Fatal("setup: 1M ops/s burst did not reach the throughput-biased point")
	}
	// 10 ms of silence (500 empty windows), then one lone request.
	now += 10 * sim.Millisecond
	if !g.observe(now) {
		t.Fatal("first post-idle observe did not switch the operating point back")
	}
	if g.high {
		t.Fatal("governor still throughput-biased after a long idle gap")
	}
	if g.hold() != gc.LowHold || g.batch() != gc.LowBatch || g.plug() != gc.LowPlug {
		t.Fatalf("post-idle knobs still high: hold %v batch %d plug %d", g.hold(), g.batch(), g.plug())
	}
}

// TestGovernorStableBetweenFolds verifies the decision only moves at
// window boundaries: observations inside a window never switch the
// operating point, no matter how fast they arrive.
func TestGovernorStableBetweenFolds(t *testing.T) {
	gc := govBase()
	g := newGovernor(Config{Governor: gc}, 0)
	for i := 0; i < 1000; i++ {
		if g.observe(sim.Time(i)) { // 1000 events inside the first ns of the window
			t.Fatal("switched inside a sampling window")
		}
	}
}

// TestGovernorDisabledIsStaticPoint: a disabled governor is the static
// batching point, CQEHold/CQEBatch/MaxPlug, and stays there under the
// 1M ops/s burst that switches an enabled one.
func TestGovernorDisabledIsStaticPoint(t *testing.T) {
	cfg := Config{CQEHold: 3 * sim.Microsecond, CQEBatch: 5, MaxPlug: 7}
	g := newGovernor(cfg, 0)
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now += sim.Microsecond
		if g.observe(now) {
			t.Fatalf("a disabled governor switched at %v", now)
		}
		if g.hold() != cfg.CQEHold || g.batch() != cfg.CQEBatch || g.plug() != cfg.MaxPlug {
			t.Fatalf("at %v: hold %v batch %d plug %d, want the static %v %d %d",
				now, g.hold(), g.batch(), g.plug(), cfg.CQEHold, cfg.CQEBatch, cfg.MaxPlug)
		}
	}
}

// TestGovernorHighPlugPastMaxPlug: MaxPlug only sizes the ordering
// engine's parked tables at first, and they grow, so a governor whose
// HighPlug exceeds it batches deeper than MaxPlug (explicitly plugged
// rounds of 64 writes ship as a few capsules, not as batches of 4) and
// the gate, which parks with stream affinity off, still delivers every
// write in order.
func TestGovernorHighPlugPastMaxPlug(t *testing.T) {
	eng := sim.New(1)
	cfg := smallConfig(ModeRio, optane1()...)
	cfg.StreamAffinity = false
	cfg.MaxPlug = 4
	cfg.Governor = govBase()
	cfg.Governor.UpOpsPerSec, cfg.Governor.DownOpsPerSec = 2e3, 1e3 // high from the first window on
	cfg.Governor.HighPlug = 64
	c := New(eng, cfg)
	defer eng.Shutdown()
	const rounds, round = 30, 64
	reqs := make([][]*blockdev.Request, cfg.Streams)
	for s := range reqs {
		eng.Go("app", func(p *sim.Proc) {
			in := c.Init(0)
			for r := 0; r < rounds; r++ {
				in.StartPlug(s)
				for i := 0; i < round; i++ {
					reqs[s] = append(reqs[s], in.OrderedWrite(p, s, uint64(s<<20|8*len(reqs[s])), 1, 0, nil, true, false, false))
				}
				in.FinishPlug(p, s)
				in.Wait(p, reqs[s][len(reqs[s])-1])
			}
		})
	}
	eng.Run()
	deliveredInOrder(t, reqs)
	if v := c.OrderAudit(); v != 0 {
		t.Fatalf("order audit: %d violations", v)
	}
	st, ts := c.Init(0).Stats(), c.Target(0).Stats()
	if st.GovSwitches == 0 || ts.Holdbacks == 0 {
		t.Fatalf("%d governor switches, %d commands parked: want both > 0", st.GovSwitches, ts.Holdbacks)
	}
	if occ := st.Batch.Occupancy(); occ <= float64(cfg.MaxPlug) {
		t.Fatalf("%.2f commands per capsule: no batch went past MaxPlug %d", occ, cfg.MaxPlug)
	}
}
