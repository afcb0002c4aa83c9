package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestCrashWithMergingDeliveredWithinPrefix checks the §4.8 invariant in
// the presence of merging and vector fusion, where media stamps cover
// fused extents: on PLP devices a completion implies durability, so every
// group whose completion was DELIVERED (in order) before the cut must lie
// inside the recovered durable prefix.
func TestCrashWithMergingDeliveredWithinPrefix(t *testing.T) {
	for _, seed := range []int64{81, 82, 83, 84} {
		eng := sim.New(seed)
		cfg := smallConfig(ModeRio, OptaneTarget(), OptaneTarget())
		cfg.MergeEnabled = true
		c := New(eng, cfg)
		const streams = 3
		stopped := false
		delivered := make([]uint64, streams) // highest delivered group per stream
		for s := 0; s < streams; s++ {
			s := s
			eng.Go("app", func(p *sim.Proc) {
				var pending []*blockdev.Request
				for g := 0; !stopped; g++ {
					lba := uint64(s<<20 | g)
					r := c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, true, false, false)
					pending = append(pending, r)
					// Harvest delivered completions without blocking.
					for len(pending) > 0 && pending[0].Done.Fired() {
						delivered[s] = pending[0].Ticket.Attr.SeqEnd
						pending = pending[1:]
					}
					if len(pending) > 32 {
						c.Init(0).Wait(p, pending[0])
						delivered[s] = pending[0].Ticket.Attr.SeqEnd
						pending = pending[1:]
					}
				}
			})
		}
		cut := sim.Time(120+seed*7) * sim.Microsecond
		eng.At(cut, func() { c.PowerCutAll(); stopped = true })
		eng.RunUntil(cut + sim.Millisecond)
		var rep *core.Report
		eng.Go("rec", func(p *sim.Proc) { rep, _ = c.RecoverFull(p) })
		eng.Run()
		for s := 0; s < streams; s++ {
			if prefix := rep.Prefix(uint16(s)); delivered[s] > prefix {
				t.Fatalf("seed %d stream %d: delivered through group %d but prefix is %d",
					seed, s, delivered[s], prefix)
			}
		}
		eng.Shutdown()
	}
}

// TestMergedCrashAtomicity: after a crash, a merged range is all-in or
// all-out — the prefix never lands strictly inside a merged entry's range.
func TestMergedCrashAtomicity(t *testing.T) {
	for _, seed := range []int64{91, 92, 93} {
		eng := sim.New(seed)
		cfg := smallConfig(ModeRio, optane1()...)
		cfg.MergeEnabled = true
		c := New(eng, cfg)
		stopped := false
		eng.Go("app", func(p *sim.Proc) {
			// Contiguous groups that merge aggressively.
			for g := 0; !stopped; g++ {
				c.Init(0).OrderedWrite(p, 0, uint64(g), 1, 0, nil, true, false, false)
				if g%16 == 15 {
					p.Sleep(5 * sim.Microsecond)
				}
			}
		})
		cut := sim.Time(60+seed*11) * sim.Microsecond
		eng.At(cut, func() { c.PowerCutAll(); stopped = true })
		eng.RunUntil(cut + sim.Millisecond)
		// Inspect the PMR before recovery wipes it: collect merged ranges.
		type rng struct{ a, b uint64 }
		var merged []rng
		for _, e := range core.ScanRegion(c.Target(0).SSD(0).PMRBytes()) {
			if e.Merged() {
				merged = append(merged, rng{e.SeqStart, e.SeqEnd})
			}
		}
		var rep *core.Report
		eng.Go("rec", func(p *sim.Proc) { rep, _ = c.RecoverFull(p) })
		eng.Run()
		prefix := rep.Prefix(0)
		for _, m := range merged {
			if prefix >= m.a && prefix < m.b {
				t.Fatalf("seed %d: prefix %d splits merged range [%d,%d] — atomicity violated",
					seed, prefix, m.a, m.b)
			}
		}
		if len(merged) == 0 {
			t.Logf("seed %d: no merged entries at cut (timing); invariant vacuous", seed)
		}
		eng.Shutdown()
	}
}
