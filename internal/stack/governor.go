package stack

import (
	"math"

	"repro/internal/sim"
)

// GovernorConfig configures the load-adaptive batching governor. The
// hand-tuned batching knobs trade latency against CPU efficiency: short
// CQE holds and small batches keep the completion path off the
// application's critical path at low load, while long holds and deep
// batches amortize per-message CPU exactly when the fleet approaches
// saturation and CPU is the binding resource. The governor moves the hot
// path between two operating points — latency-biased (Low*) and
// throughput-biased (High*) — driven by an EWMA of the measured
// arrival rate with hysteresis so the knobs do not flap around a
// threshold. One governor instance runs per initiator (observing
// submissions, scaling the dispatch plug depth) and one per target
// (observing completions, scaling CQE hold and batch).
type GovernorConfig struct {
	Enabled bool

	// UpOpsPerSec and DownOpsPerSec are the hysteresis thresholds on the
	// per-entity EWMA rate: at or above Up the governor switches to the
	// throughput-biased point, at or below Down it returns to the
	// latency-biased point. Up must be > 0 and > Down when enabled.
	UpOpsPerSec   float64
	DownOpsPerSec float64

	// Operating points. Zero values inherit from the static knobs at
	// cluster construction: LowHold = CQEHold/2, HighHold = 4×CQEHold,
	// LowBatch = max(4, CQEBatch/4), HighBatch = CQEBatch,
	// LowPlug = max(4, MaxPlug/8), HighPlug = MaxPlug. HighPlug must not
	// exceed Config.MaxPlug: the ordering engine pre-sizes its parked
	// rings from MaxPlug at construction.
	LowHold   sim.Time
	HighHold  sim.Time
	LowBatch  int
	HighBatch int
	LowPlug   int
	HighPlug  int
}

// withGovernorDefaults resolves the zero-valued GovernorConfig fields
// against the static knobs (see the field docs); Config.Validate checks the
// result. Open applies it only when the governor is enabled, so a disabled
// config is never touched.
func withGovernorDefaults(gc GovernorConfig, cfg Config) GovernorConfig {
	if gc.DownOpsPerSec <= 0 {
		gc.DownOpsPerSec = gc.UpOpsPerSec / 2
	}
	if gc.LowHold <= 0 {
		gc.LowHold = cfg.CQEHold / 2
		if gc.LowHold <= 0 {
			gc.LowHold = sim.Microsecond
		}
	}
	if gc.HighHold <= 0 {
		gc.HighHold = 4 * cfg.CQEHold
	}
	if gc.LowBatch <= 0 {
		gc.LowBatch = cfg.CQEBatch / 4
		if gc.LowBatch < 4 {
			gc.LowBatch = 4
		}
	}
	if gc.HighBatch <= 0 {
		gc.HighBatch = cfg.CQEBatch
	}
	if gc.LowPlug <= 0 {
		gc.LowPlug = cfg.MaxPlug / 8
		if gc.LowPlug < 4 {
			gc.LowPlug = 4
		}
	}
	if gc.HighPlug <= 0 {
		gc.HighPlug = cfg.MaxPlug
	}
	return gc
}

const (
	// govWindow is the rate-sampling interval: each elapsed window folds
	// the observed event count into the EWMA.
	govWindow = 20 * sim.Microsecond
	// govAlpha is the EWMA weight of the newest window sample.
	govAlpha = 0.5
)

// governor is one entity's adaptive-knob state machine. It is driven
// inline from the hot path (observe per event) and never schedules
// events of its own, so a cluster with the governor disabled runs the
// exact same event sequence as before the governor existed.
type governor struct {
	gc       GovernorConfig
	winStart sim.Time
	count    int64
	ewma     float64 // ops/sec
	seeded   bool
	high     bool
}

func newGovernor(gc GovernorConfig, now sim.Time) *governor {
	return &governor{gc: gc, winStart: now}
}

// observe records one event at time now and reports whether the
// operating point switched. Rate folding happens once per elapsed
// window; between folds the decision is stable, which is half of the
// anti-flap story (the Up/Down hysteresis gap is the other half).
func (g *governor) observe(now sim.Time) bool {
	g.count++
	el := now - g.winStart
	if el < govWindow {
		return false
	}
	// An idle gap spanning several windows is several zero-count samples,
	// not one: decay the EWMA once per missed window before folding this
	// sample, so the first event after an idle period sees the downswitch
	// (the caller consults the knobs after observe) instead of paying the
	// stale throughput-biased hold/plug tax.
	if missed := int64(el/govWindow) - 1; missed > 0 && g.seeded {
		g.ewma *= math.Pow(1-govAlpha, float64(missed))
	}
	rate := float64(g.count) / el.Seconds()
	if g.seeded {
		g.ewma = govAlpha*rate + (1-govAlpha)*g.ewma
	} else {
		g.ewma = rate
		g.seeded = true
	}
	g.count = 0
	g.winStart = now
	switch {
	case !g.high && g.ewma >= g.gc.UpOpsPerSec:
		g.high = true
		return true
	case g.high && g.ewma <= g.gc.DownOpsPerSec:
		g.high = false
		return true
	}
	return false
}

// hold returns the operating point's CQE hold time.
func (g *governor) hold() sim.Time {
	if g.high {
		return g.gc.HighHold
	}
	return g.gc.LowHold
}

// batch returns the operating point's CQE flush threshold.
func (g *governor) batch() int {
	if g.high {
		return g.gc.HighBatch
	}
	return g.gc.LowBatch
}

// plug returns the operating point's dispatch batch ceiling.
func (g *governor) plug() int {
	if g.high {
		return g.gc.HighPlug
	}
	return g.gc.LowPlug
}

// throughputBiased reports the current operating point (observability).
func (g *governor) throughputBiased() bool { return g.high }
