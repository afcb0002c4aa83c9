package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/ssd"
)

func TestVectorFusionAcrossStripes(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig(ModeRio,
		TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig(), ssd.OptaneConfig()}},
		TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig(), ssd.OptaneConfig()}})
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		var reqs []*blockdev.Request
		c.Init(0).StartPlug(0)
		for i := 0; i < 16; i++ {
			reqs = append(reqs, c.Init(0).OrderedWrite(p, 0, uint64(i), 1, 0, nil, true, false, false))
		}
		c.Init(0).FinishPlug(p, 0)
		c.Init(0).Wait(p, reqs[len(reqs)-1])
	})
	eng.Run()
	st := c.Init(0).Stats()
	if st.FusedCmds == 0 {
		t.Fatal("vector fusion did not trigger")
	}
	// 16 striped one-block requests should compact to one command per
	// device (4) carried in one capsule per target (2).
	if st.WireCmds != 4 || st.WireMessages != 2 {
		t.Fatalf("wirecmds=%d msgs=%d, want 4/2", st.WireCmds, st.WireMessages)
	}
	// Vector-fused commands keep one PMR entry per request, so recovery
	// semantics are unchanged.
	appends := c.Target(0).Stats().PMRAppends + c.Target(1).Stats().PMRAppends
	if appends != 16 {
		t.Fatalf("PMR appends = %d, want 16", appends)
	}
	eng.Shutdown()
}
