package stack

import (
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestCrashWithMergingDeliveredWithinPrefix checks the §4.8 invariant in
// the presence of merging and vector fusion: on PLP devices a completion
// implies durability, so every group whose completion was DELIVERED (in
// order) before the cut must lie inside the recovered durable prefix, and
// on media every block inside the prefix carries its own request's identity
// and none beyond it survives.
func TestCrashWithMergingDeliveredWithinPrefix(t *testing.T) {
	for _, seed := range []int64{81, 82, 83, 84} {
		eng := sim.New(seed)
		cfg := smallConfig(ModeRio, OptaneTarget(), OptaneTarget())
		cfg.MergeEnabled = true
		c := New(eng, cfg)
		const streams = 3
		stopped := false
		delivered := make([]uint64, streams) // highest delivered group per stream
		subs := make([][]*blockdev.Request, streams)
		for s := 0; s < streams; s++ {
			s := s
			eng.Go("app", func(p *sim.Proc) {
				var pending []*blockdev.Request
				for g := 0; !stopped; g++ {
					lba := uint64(s<<20 | g)
					r := c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, true, false, false)
					pending = append(pending, r)
					if !stopped && r.Ticket != nil {
						subs[s] = append(subs[s], r)
					}
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
			checkPrefix(t, c, rep, 0, s, subs[s])
		}
		if c.Init(0).Stats().FusedCmds == 0 {
			t.Fatalf("seed %d: no command fused", seed)
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
		var subs []*blockdev.Request
		eng.Go("app", func(p *sim.Proc) {
			// Contiguous groups that merge aggressively.
			for g := 0; !stopped; g++ {
				r := c.Init(0).OrderedWrite(p, 0, uint64(g), 1, 0, nil, true, false, false)
				if !stopped && r.Ticket != nil {
					subs = append(subs, r)
				}
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
		// Each block of a merged command is its own request's: all of a merged
		// range inside the prefix is on media, all of one beyond it is gone.
		checkPrefix(t, c, rep, 0, 0, subs)
		eng.Shutdown()
	}
}

// TestHoraeFusedRollbackErasesEveryConstituent: Horae fuses the data
// commands of a dispatch batch on device contiguity while every request
// keeps the control-path entry of its own. Roll-back of such an entry must
// find that request's blocks inside the fused command's extent: when the
// target stamped every block of the command with its FIRST constituent's
// identity, roll-back of the others erased nothing, and blocks of groups
// beyond the recovered prefix stayed on media (about half of them on flash).
// Three streams of 4-write groups (three plain writes and the boundary, one
// contiguous extent) on one target, whole-cluster cut, full recovery: no
// block of a group beyond its stream's prefix is on media, and every block
// inside it carries its own request's identity.
func TestHoraeFusedRollbackErasesEveryConstituent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		targets []TargetConfig
	}{{"flash", flash1()}, {"optane", optane1()}} {
		for seed := int64(91); seed <= 96; seed++ {
			eng := sim.New(seed)
			c := New(eng, smallConfig(ModeHorae, tc.targets...)) // merging on: the default
			const streams = 3
			var reqs []*blockdev.Request
			stopped := false
			for s := 0; s < streams; s++ {
				eng.Go("app", func(p *sim.Proc) {
					for lba := uint64(s) << 20; !stopped; lba++ {
						r := c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, lba%4 == 3, false, false)
						if r.Ticket != nil {
							reqs = append(reqs, r)
						}
					}
				})
			}
			cut := sim.Time(60+11*seed) * sim.Microsecond
			eng.At(cut, func() { c.PowerCutAll(); stopped = true })
			eng.RunUntil(cut + sim.Millisecond)
			var rep *core.Report
			eng.Go("rec", func(p *sim.Proc) { rep, _ = c.RecoverFull(p) })
			eng.Run()
			left, lost, beyond := 0, 0, 0
			for _, r := range reqs {
				if a := r.Ticket.Attr; a.SeqStart <= rep.Prefix(a.Stream) {
					if !c.Holds(r) {
						lost++
					}
					continue
				}
				beyond++
				if _, ok := c.Target(0).SSD(0).Durable(r.LBA); ok { // one device, chunk 1: device LBA = LBA
					left++
				}
			}
			if left != 0 || lost != 0 {
				t.Errorf("%s seed %d: beyond-prefix block left on media %d times (of %d beyond-prefix blocks), in-prefix block without its request's identity %d times",
					tc.name, seed, left, beyond, lost)
			}
			if fused := c.Init(0).Stats().FusedCmds; fused == 0 || beyond == 0 {
				t.Errorf("%s seed %d: %d commands fused, %d blocks beyond the prefix: the schedule checks nothing", tc.name, seed, fused, beyond)
			}
			eng.Shutdown()
		}
	}
}
