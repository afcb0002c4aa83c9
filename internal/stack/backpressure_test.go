package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/ssd"
)

// satTarget1 builds one Optane target with the SSD saturation model
// enabled at an aggressively low knee, so a handful of open-loop writers
// push it past its service ceiling within a few hundred microseconds.
func satTarget1() []TargetConfig {
	c := ssd.OptaneConfig()
	c.SatKnee = 2
	c.SatFactorMax = 8
	return []TargetConfig{{SSDs: []ssd.Config{c}}}
}

// backpressureConfig is a cluster with the full pushback chain bounded
// tightly: device saturation -> fabric TX stalls -> submit gate.
func backpressureConfig() Config {
	cfg := smallConfig(ModeRio, satTarget1()...)
	cfg.MaxInflight = 32
	cfg.Fabric.TxDepth = 16
	return cfg
}

// drainAndAudit asserts the conservation invariants after an overload
// run has fully drained: every submitted request delivered exactly once
// (no losses, no duplicates), dense per-server ordering chains, and
// ordering-engine gates clean.
func drainAndAudit(t *testing.T, c *Cluster, reqs []*blockdev.Request) {
	t.Helper()
	for i, r := range reqs {
		if !r.Done.Fired() {
			t.Fatalf("request %d never completed under backpressure", i)
		}
	}
	st := c.StatsAll()
	if st.Completed != st.Submitted {
		t.Fatalf("completed %d != submitted %d (lost or duplicated completions)",
			st.Completed, st.Submitted)
	}
	if v := c.OrderAudit(); v != 0 {
		t.Fatalf("order audit: %d violations", v)
	}
	for ti := 0; ti < c.Targets(); ti++ {
		if v := c.Target(ti).GateAudit(); v != 0 {
			t.Fatalf("target %d gate audit: %d violations", ti, v)
		}
	}
}

// TestBackpressureSaturatedNoLossNoDup drives open-loop writers far past
// the device knee with every backpressure bound engaged and verifies
// that completions are conserved: the gate may stall submitters, but it
// must never lose or double-deliver a request.
func TestBackpressureSaturatedNoLossNoDup(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, backpressureConfig())
	var reqs []*blockdev.Request
	stopped := false
	for s := 0; s < 4; s++ {
		s := s
		eng.Go("sat", func(p *sim.Proc) {
			stamp := uint64(s+1) << 32
			for i := uint64(0); !stopped; i++ {
				stamp++
				// Fire-and-forget at a rate the device cannot sustain:
				// only the submit gate throttles this loop.
				reqs = append(reqs, c.Init(0).OrderedWrite(
					p, s, uint64(s)<<20|i, 1, stamp, nil, true, false, false))
				p.Sleep(200) // 5M ops/s offered per stream
			}
		})
	}
	eng.At(400*sim.Microsecond, func() { stopped = true })
	eng.Run()

	drainAndAudit(t, c, reqs)
	if c.StatsAll().SubmitStalls == 0 {
		t.Fatal("overload never tripped the submit gate (MaxInflight bound inert)")
	}
	if c.Target(0).SSD(0).Stats().SatStall == 0 {
		t.Fatal("overload never engaged the SSD saturation model")
	}
}

// TestBackpressureLoadStep walks the offered load across the knee and
// back (calm -> overload -> calm) and verifies the same conservation
// invariants: backpressure must engage and then fully release without
// stranding a request.
func TestBackpressureLoadStep(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, backpressureConfig())
	var reqs []*blockdev.Request
	stopped := false
	phase := func(now sim.Time) sim.Time {
		switch {
		case now < 200*sim.Microsecond:
			return 2 * sim.Microsecond // calm: well under the knee
		case now < 500*sim.Microsecond:
			return 200 // step: far past the knee
		default:
			return 2 * sim.Microsecond // recovery
		}
	}
	for s := 0; s < 4; s++ {
		s := s
		eng.Go("step", func(p *sim.Proc) {
			stamp := uint64(s+1) << 32
			for i := uint64(0); !stopped; i++ {
				stamp++
				reqs = append(reqs, c.Init(0).OrderedWrite(
					p, s, uint64(s)<<20|i, 1, stamp, nil, true, false, false))
				p.Sleep(phase(p.Now()))
			}
		})
	}
	eng.At(800*sim.Microsecond, func() { stopped = true })
	eng.Run()

	drainAndAudit(t, c, reqs)
	if c.StatsAll().SubmitStalls == 0 {
		t.Fatal("the overload step never tripped the submit gate")
	}
}

// TestSubmitGateSmallBound regression-tests the inflight-gate wakeup
// with MaxInflight smaller than the number of concurrent submitters.
// Waiters count their own request into inflight, so a wakeup fired only
// when inflight drops BELOW the bound never reaches them once blocked
// submitters >= MaxInflight — with the bound at 1 and four writers, the
// second write would park forever. Every request must still complete.
func TestSubmitGateSmallBound(t *testing.T) {
	for _, bound := range []int{1, 2} {
		eng := sim.New(1)
		cfg := backpressureConfig()
		cfg.MaxInflight = bound
		c := New(eng, cfg)
		var reqs []*blockdev.Request
		for s := 0; s < 4; s++ {
			s := s
			eng.Go("small", func(p *sim.Proc) {
				stamp := uint64(s+1) << 32
				for i := uint64(0); i < 50; i++ {
					stamp++
					reqs = append(reqs, c.Init(0).OrderedWrite(
						p, s, uint64(s)<<20|i, 1, stamp, nil, true, false, false))
				}
			})
		}
		eng.Run()
		drainAndAudit(t, c, reqs)
		if st := c.StatsAll(); st.SubmitStalls == 0 {
			t.Fatalf("MaxInflight=%d with 4 writers never stalled a submitter", bound)
		}
	}
}

// TestSubmitGateReleasesOnCrash parks writers on a full inflight bound,
// power-cuts the initiator, and verifies the stalled submitters wake and
// exit instead of deadlocking, and that a recovered initiator starts
// with a clean inflight count (no leak from the dead incarnation).
func TestSubmitGateReleasesOnCrash(t *testing.T) {
	eng := sim.New(1)
	cfg := backpressureConfig()
	cfg.MaxInflight = 4
	c := New(eng, cfg)
	submitted := 0
	eng.Go("app", func(p *sim.Proc) {
		for i := uint64(0); i < 500; i++ {
			c.Init(0).OrderedWrite(p, 0, i, 1, i+1, nil, true, false, false)
			submitted++
		}
	})
	submittedAtCut := -1
	eng.At(50*sim.Microsecond, func() {
		submittedAtCut = submitted
		c.PowerCutInitiator(0)
	})
	eng.RunUntil(600 * sim.Microsecond)
	if submittedAtCut < 0 || submittedAtCut == 500 {
		t.Fatalf("power cut was supposed to land while the gate was stalling submissions (submitted=%d at cut)",
			submittedAtCut)
	}
	var recovered bool
	eng.Go("rec", func(p *sim.Proc) {
		c.RecoverInitiator(p, 0)
		r := c.Init(0).OrderedWrite(p, 0, 9999, 1, 1<<40, nil, true, false, false)
		c.Init(0).Wait(p, r)
		recovered = true
	})
	eng.Run()
	if !recovered {
		t.Fatal("post-recovery write never completed (inflight state leaked across the crash)")
	}
}
