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
	// latency-biased point. 0 < Down < Up when enabled.
	UpOpsPerSec   float64
	DownOpsPerSec float64

	// Operating points, each > 0 when enabled. HighPlug may exceed
	// Config.MaxPlug: MaxPlug only sizes the ordering engine's parked
	// tables initially, and they grow.
	LowHold   sim.Time
	HighHold  sim.Time
	LowBatch  int
	HighBatch int
	LowPlug   int
	HighPlug  int
}

const (
	// govWindow is the rate-sampling interval: each elapsed window folds
	// the observed event count into the EWMA.
	govWindow = 20 * sim.Microsecond
	// govAlpha is the EWMA weight of the newest window sample.
	govAlpha = 0.5
)

// governor is one entity's batching point: every initiator and every
// target has one, and the hot path reads its knobs from it alone. It is
// driven inline from the hot path (observe per event) and never schedules
// events of its own. Disabled, it holds one operating point, the static
// Config.CQEHold, CQEBatch and MaxPlug, and never switches.
type governor struct {
	gc       GovernorConfig
	winStart sim.Time
	count    int64
	ewma     float64 // ops/sec
	seeded   bool
	high     bool
}

func newGovernor(cfg Config, now sim.Time) *governor {
	gc := cfg.Governor
	if !gc.Enabled {
		gc.LowHold, gc.LowBatch, gc.LowPlug = cfg.CQEHold, cfg.CQEBatch, cfg.MaxPlug
	}
	return &governor{gc: gc, winStart: now}
}

// observe records one event at time now and reports whether the
// operating point switched. Rate folding happens once per elapsed
// window; between folds the decision is stable, which is half of the
// anti-flap story (the Up/Down hysteresis gap is the other half).
func (g *governor) observe(now sim.Time) bool {
	if !g.gc.Enabled {
		return false
	}
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

// hold returns the operating point's CQE hold time: how long a lone
// completion may wait for companions before the coalescing buffer is
// flushed anyway (the reverse-path analog of the submission plug's hold
// timer).
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
