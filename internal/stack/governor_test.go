package stack

import (
	"testing"

	"repro/internal/sim"
)

func govBase() GovernorConfig {
	return GovernorConfig{Enabled: true, UpOpsPerSec: 400e3}
}

func TestGovernorDefaults(t *testing.T) {
	cfg := DefaultConfig(ModeRio, optane1()...)
	gc := withGovernorDefaults(govBase(), cfg)
	if gc.DownOpsPerSec != 200e3 {
		t.Fatalf("Down default should be Up/2: %v", gc.DownOpsPerSec)
	}
	if gc.LowHold != cfg.CQEHold/2 || gc.HighHold != 4*cfg.CQEHold {
		t.Fatalf("hold defaults: %+v (CQEHold %v)", gc, cfg.CQEHold)
	}
	if gc.LowBatch != cfg.CQEBatch/4 || gc.HighBatch != cfg.CQEBatch {
		t.Fatalf("batch defaults: %+v", gc)
	}
	if gc.LowPlug != cfg.MaxPlug/8 || gc.HighPlug != cfg.MaxPlug {
		t.Fatalf("plug defaults: %+v", gc)
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
	gc := govBase()
	gc.HighPlug = cfg.MaxPlug + 1 // parked rings are pre-sized from MaxPlug
	expectError("HighPlug > MaxPlug", gc)
}

// TestGovernorHysteresis drives a synthetic event sequence through one
// governor: a high-rate burst must switch it to the throughput-biased
// point exactly once, a low-rate tail must take it back exactly once,
// and the knob getters must track the operating point.
func TestGovernorHysteresis(t *testing.T) {
	cfg := DefaultConfig(ModeRio, optane1()...)
	gc := withGovernorDefaults(govBase(), cfg)
	g := newGovernor(gc, 0)

	if g.throughputBiased() {
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
	if switches != 1 || !g.throughputBiased() {
		t.Fatalf("high-rate burst: switches=%d biased=%v", switches, g.throughputBiased())
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
	if switches != 1 || g.throughputBiased() {
		t.Fatalf("low-rate tail: switches=%d biased=%v", switches, g.throughputBiased())
	}
}

// TestGovernorIdleDecay verifies an idle gap is treated as the string of
// empty windows it is: a throughput-biased governor that sees no traffic
// for many windows falls back to the latency-biased point at the first
// post-idle observe — which runs before the caller consults the knobs —
// so the first request after the gap is not charged the stale high
// operating point's hold/plug tax.
func TestGovernorIdleDecay(t *testing.T) {
	cfg := DefaultConfig(ModeRio, optane1()...)
	gc := withGovernorDefaults(govBase(), cfg)
	g := newGovernor(gc, 0)
	now := sim.Time(0)
	for i := 0; i < 100; i++ {
		now += sim.Microsecond
		g.observe(now)
	}
	if !g.throughputBiased() {
		t.Fatal("setup: 1M ops/s burst did not reach the throughput-biased point")
	}
	// 10 ms of silence (500 empty windows), then one lone request.
	now += 10 * sim.Millisecond
	if !g.observe(now) {
		t.Fatal("first post-idle observe did not switch the operating point back")
	}
	if g.throughputBiased() {
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
	cfg := DefaultConfig(ModeRio, optane1()...)
	gc := withGovernorDefaults(govBase(), cfg)
	g := newGovernor(gc, 0)
	for i := 0; i < 1000; i++ {
		if g.observe(sim.Time(i)) { // 1000 events inside the first ns of the window
			t.Fatal("switched inside a sampling window")
		}
	}
}
