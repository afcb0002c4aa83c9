package stack

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
)

// Randomized crash-schedule property tests: seed-derived schedules cut
// initiators, targets, replica members and whole clusters at random
// points under live traffic in every stack mode, and after recovery the
// engine invariants must hold — the ordering engine's dense-chain audit
// is clean, and (for the attribute-carrying stacks) every ordering
// domain satisfies the §4.8 prefix-durability invariant against the
// media: groups at or below the durable prefix survive, groups beyond
// it are rolled back.

// newPoisoned builds a cluster with the recycle hook on: the schedules in
// this file cut power with SSD commands and completion events in every
// state, and a completion event (or the command embedded in it) that is
// recycled while the device or a queue still holds it, or recycled twice,
// then panics instead of corrupting a later command.
func newPoisoned(eng *sim.Engine, cfg Config) *Cluster {
	c := New(eng, cfg)
	c.poisonRecycled = true
	return c
}

// fuzzSub records one submitted group of the current incarnation for
// the prefix check.
type fuzzSub struct {
	attr core.Attr
	lba  uint64
	req  *blockdev.Request
}

// fuzzTraffic is how the writers of one fuzz schedule submit. Every driver
// runs its committed seeds on the traffic their regressions were pinned
// under — one single-write group at a time over a chunk-1 stripe, which
// never leaves two commands of one device in a dispatch batch — and as many
// seeds again on what the default configuration's scheduler acts on: a
// stripe chunk of 4 or 8 blocks and plugged bursts of 1–6 consecutive
// blocks, each burst either a group per write (attribute-level merging,
// Fig. 8a) or one group of all its writes (vector fusion; Horae's
// contiguity fusion). The media checks hold under both because a block's
// identity is its own request's, merged or not.
type fuzzTraffic struct {
	rng *rand.Rand // nil: the committed traffic
}

// newFuzzTraffic draws a schedule's traffic (its own generator, so the
// driver's cut draws do not move) and sets the stripe chunk it runs over.
func newFuzzTraffic(cfg *Config, seed int64, bursty bool) fuzzTraffic {
	if !bursty {
		return fuzzTraffic{}
	}
	rng := rand.New(rand.NewSource(seed ^ 0xb0257))
	cfg.ChunkBlocks = 4 << rng.Intn(2)
	return fuzzTraffic{rng: rng}
}

// burst submits a writer's next burst on stream through write, which
// issues one ordered write at the writer's next block and closes its group
// when told to. A power cut may land anywhere in it: writes into a dead
// initiator come back without a ticket, and a dead initiator's plug is not
// flushed.
func (ft fuzzTraffic) burst(p *sim.Proc, in *Initiator, stream int, write func(boundary bool)) {
	if ft.rng == nil {
		write(true)
		return
	}
	n, oneGroup := 1+ft.rng.Intn(6), ft.rng.Intn(2) == 0
	in.StartPlug(stream)
	for k := 1; k <= n; k++ {
		write(!oneGroup || k == n)
	}
	if in.Alive() {
		in.FinishPlug(p, stream)
	}
}

// fuzzSeeds runs a driver over its committed seeds 1..n and over seeds
// n+1..2n with bursty traffic, and requires that the bursty schedules really
// fused commands: the coverage of the default configuration's merging must
// not silently vanish again.
func fuzzSeeds(t *testing.T, name string, n int64, run func(t *testing.T, seed int64, bursty bool) (fused int64)) {
	var fused int64
	for seed := int64(1); seed <= 2*n; seed++ {
		bursty := seed > n
		t.Run(fmt.Sprintf("%sseed%d", name, seed), func(t *testing.T) {
			if f := run(t, seed, bursty); bursty {
				fused += f
			} else if f != 0 {
				t.Fatalf("%d commands fused: the committed traffic is no longer the traffic this seed was pinned under", f)
			}
		})
	}
	if fused == 0 && !t.Failed() {
		t.Fatalf("%sseeds %d-%d: bursty traffic fused no command", name, n+1, 2*n)
	}
}

// TestCrashScheduleFuzzAllModes drives all four stacks through a
// randomized whole-cluster power cut and full recovery. The stacks that
// fuse ordered writes (and whose media is checked) get the bursty seeds.
func TestCrashScheduleFuzzAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeOrderless, ModeLinux, ModeHorae, ModeRio} {
		if mode == ModeRio || mode == ModeHorae {
			fuzzSeeds(t, fmt.Sprintf("%v/", mode), 3, func(t *testing.T, seed int64, bursty bool) int64 {
				return fuzzFullCut(t, mode, seed, bursty)
			})
			continue
		}
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", mode, seed), func(t *testing.T) { fuzzFullCut(t, mode, seed, false) })
		}
	}
}

func fuzzFullCut(t *testing.T, mode Mode, seed int64, bursty bool) (fused int64) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.New(seed)
	cfg := smallConfig(mode, OptaneTarget(), FlashTarget())
	traffic := newFuzzTraffic(&cfg, seed, bursty)
	c := newPoisoned(eng, cfg)
	streams := cfg.Streams

	subs := make([][]fuzzSub, streams)
	stopped := false
	for s := 0; s < streams; s++ {
		s := s
		eng.Go(fmt.Sprintf("fuzz/app%d", s), func(p *sim.Proc) {
			for i := 0; !stopped; {
				traffic.burst(p, c.Init(0), s, func(boundary bool) {
					lba := uint64(s)<<20 + uint64(i)
					flush := i%8 == 7
					i++
					r := c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, boundary, flush, false)
					if !stopped && r.Ticket != nil {
						subs[s] = append(subs[s], fuzzSub{attr: r.Ticket.Attr, lba: lba})
					}
				})
				p.Sleep(2 * sim.Microsecond)
			}
		})
	}
	cut := sim.Time(50+rng.Int63n(400)) * sim.Microsecond
	eng.At(cut, func() { c.PowerCutAll(); stopped = true })
	eng.RunUntil(cut + sim.Millisecond)

	var report *core.Report
	eng.Go("fuzz/recover", func(p *sim.Proc) { report, _ = c.RecoverFull(p) })
	eng.Run()

	if v := c.OrderAudit(); v != 0 {
		t.Fatalf("engine audit after recovery: %d violations", v)
	}
	// Prefix durability is an attribute-stack property: orderless and
	// linux persist no ordering attributes, so their report is empty and
	// the media check does not apply.
	if mode == ModeRio || mode == ModeHorae {
		checkPrefixDurability(t, c, report, subs, 0)
	}
	// Whatever the mode, the recovered cluster must be usable — except
	// Linux, where the simulation does not model thread death: the dead
	// incarnation's synchronous submitters still hold the one-in-flight
	// device mutex they acquired before the cut, so new ordered writes
	// would queue behind threads that no longer exist.
	if mode != ModeLinux {
		done := false
		eng.Go("fuzz/post", func(p *sim.Proc) {
			r := c.Init(0).OrderedWrite(p, 0, uint64(streams)<<20+1, 1, 0, nil, true, true, false)
			c.Init(0).Wait(p, r)
			done = true
		})
		eng.Run()
		if !done {
			t.Fatal("cluster wedged after recovery")
		}
	}
	fused = c.StatsAll().FusedCmds
	eng.Shutdown()
	return fused
}

// checkPrefixDurability verifies the §4.8 invariant for initiator
// `init`: for every recorded write of group g of stream s, g <= prefix
// implies its block is durable on media under the write's own identity and
// g > prefix implies it is not.
func checkPrefixDurability(t *testing.T, c *Cluster, report *core.Report, subs [][]fuzzSub, init int) {
	t.Helper()
	for s := range subs {
		prefix := report.PrefixFor(uint16(init), uint16(s))
		for _, sb := range subs[s] {
			g := sb.attr.SeqStart
			dev, devLBA := c.Volume().Map(sb.lba)
			ref := c.Volume().Dev(dev)
			rec, ok := c.Target(ref.Server).SSD(ref.SSD).Durable(devLBA)
			isOurs := ok && rec.Stamp == core.AttrStamp(sb.attr)
			if g <= prefix && !isOurs {
				t.Fatalf("init %d stream %d: group %d inside prefix %d but not durable", init, s, g, prefix)
			}
			if g > prefix && isOurs {
				t.Fatalf("init %d stream %d: group %d beyond prefix %d but survived", init, s, g, prefix)
			}
		}
	}
}

// TestCrashScheduleFuzzEntityCuts is the Rio schedule matrix: a random
// mid-run cut of a random TARGET, a random INITIATOR, or one of each in the
// same instant, under multi-initiator traffic; one recover run over exactly
// what was cut while the survivors keep running; then a randomized
// whole-cluster cut and full recovery — the engine audit and the prefix
// invariant (for the final incarnation of every initiator) must hold at the
// end.
func TestCrashScheduleFuzzEntityCuts(t *testing.T) {
	fuzzSeeds(t, "", 6, fuzzEntityCut)
}

func fuzzEntityCut(t *testing.T, seed int64, bursty bool) (fused int64) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.New(seed)
	cfg := smallConfig(ModeRio, OptaneTarget(), OptaneTarget())
	cfg.Initiators = 2
	traffic := newFuzzTraffic(&cfg, seed, bursty)
	c := newPoisoned(eng, cfg)
	streams := cfg.Streams
	inits := cfg.Initiators

	// subs[ii][s] records the CURRENT incarnation's submissions; gen[ii]
	// bumps (and the records clear) when initiator ii is cut, because its
	// next incarnation restarts group numbering from 1.
	subs := make([][][]fuzzSub, inits)
	gen := make([]int, inits)
	var count [8][8]uint64
	for ii := range subs {
		subs[ii] = make([][]fuzzSub, streams)
	}
	stopped := false
	for ii := 0; ii < inits; ii++ {
		for s := 0; s < streams; s++ {
			ii, s := ii, s
			eng.Go(fmt.Sprintf("fuzz/app%d.%d", ii, s), func(p *sim.Proc) {
				var pending []*blockdev.Request
				myGen := 0
				for !stopped {
					in := c.Init(ii)
					if !in.Alive() {
						p.Sleep(5 * sim.Microsecond)
						continue
					}
					if gen[ii] != myGen {
						// The initiator crashed and recovered: requests of
						// the dead incarnation will never fire.
						pending = pending[:0]
						myGen = gen[ii]
					}
					for len(pending) > 0 && pending[0].Done.Fired() {
						pending = pending[1:]
					}
					// Bounded in-flight window; poll instead of blocking so
					// a cut (which drops completions) never strands this
					// writer on a dead signal.
					if len(pending) >= 32 {
						p.Sleep(2 * sim.Microsecond)
						continue
					}
					g := gen[ii]
					traffic.burst(p, in, s, func(boundary bool) {
						// LBAs never repeat across incarnations (count only
						// grows), so stamps cannot collide on media.
						lba := uint64(ii*streams+s)<<19 + count[ii][s]
						count[ii][s]++
						r := in.OrderedWrite(p, s, lba, 1, 0, nil, boundary, count[ii][s]%8 == 0, false)
						pending = append(pending, r)
						if gen[ii] == g && !stopped && r.Ticket != nil {
							subs[ii][s] = append(subs[ii][s], fuzzSub{attr: r.Ticket.Attr, lba: lba, req: r})
						}
					})
					p.Sleep(2 * sim.Microsecond)
				}
			})
		}
	}

	// Random mid-run cut, the shape by seed so six seeds cover each twice
	// on either traffic: a target, an initiator, or both at once.
	var cutTargets, cutInits []int
	if seed%3 != 0 {
		cutTargets = []int{rng.Intn(2)}
	}
	if seed%3 != 1 {
		cutInits = []int{rng.Intn(2)}
	}
	cutA := sim.Time(40+rng.Int63n(200)) * sim.Microsecond
	t.Logf("schedule: cut targets %v and initiators %v at %v", cutTargets, cutInits, cutA)
	eng.At(cutA, func() {
		for _, v := range cutTargets {
			c.PowerCutTarget(v)
		}
		for _, w := range cutInits {
			c.PowerCutInitiator(w)
			gen[w]++
			for s := range subs[w] {
				subs[w][s] = nil
			}
		}
	})
	eng.RunUntil(cutA + 100*sim.Microsecond)
	recovered := false
	eng.Go("fuzz/recoverA", func(p *sim.Proc) {
		c.recover(p, cutTargets, cutInits)
		recovered = true
	})
	// Let recovery finish (the PMR scan alone costs tens of simulated
	// milliseconds) with survivor traffic flowing throughout, then give
	// the repaired cluster a little live time.
	for i := 0; i < 300 && !recovered; i++ {
		eng.RunUntil(eng.Now() + sim.Millisecond)
	}
	if !recovered {
		t.Fatal("mid-run recovery did not complete")
	}
	eng.RunUntil(eng.Now() + sim.Millisecond)
	if v := c.OrderAudit(); v != 0 {
		t.Fatalf("engine audit after mid-run recovery: %d violations", v)
	}
	// Final whole-cluster cut + full recovery (Eng.At delays are relative
	// to now).
	delayB := sim.Time(30+rng.Int63n(200)) * sim.Microsecond
	eng.At(delayB, func() { c.PowerCutAll(); stopped = true })
	eng.RunUntil(eng.Now() + delayB + sim.Millisecond)
	var report *core.Report
	eng.Go("fuzz/recoverB", func(p *sim.Proc) { report, _ = c.RecoverFull(p) })
	eng.Run()

	if v := c.OrderAudit(); v != 0 {
		t.Fatalf("engine audit after full recovery: %d violations", v)
	}
	// Long schedules wrap the PMR rings and the mid-run recovery formats
	// the victim's partitions, so the final prefix is CONSERVATIVE:
	// evidence of retired (delivered) groups is legitimately gone, and
	// their acknowledged media rightly survives beyond it. The wrap- and
	// recovery-proof form of the §4.8 invariant is therefore one-sided
	// plus an ack check: every group inside the prefix must be durable,
	// and a group surviving beyond the prefix must be one the
	// application saw delivered before the cut — an UNDELIVERED survivor
	// means roll-back missed it. (TestCrashScheduleFuzzAllModes runs the
	// strict two-sided check on wrap-free single-crash schedules.)
	for ii := 0; ii < inits; ii++ {
		for s := 0; s < streams; s++ {
			prefix := report.PrefixFor(uint16(ii), uint16(s))
			for _, sb := range subs[ii][s] {
				g := sb.attr.SeqStart
				dev, devLBA := c.Volume().Map(sb.lba)
				ref := c.Volume().Dev(dev)
				rec, ok := c.Target(ref.Server).SSD(ref.SSD).Durable(devLBA)
				isOurs := ok && rec.Stamp == core.AttrStamp(sb.attr)
				if g <= prefix && !isOurs {
					t.Fatalf("init %d stream %d: group %d inside prefix %d but not durable", ii, s, g, prefix)
				}
				if g > prefix && isOurs && !sb.req.Done.Fired() {
					t.Fatalf("init %d stream %d: undelivered group %d beyond prefix %d but survived", ii, s, g, prefix)
				}
			}
		}
	}
	fused = c.StatsAll().FusedCmds
	eng.Shutdown()
	return fused
}

// TestCrashScheduleFuzzTargetCutsMergeOn is the vector-fused target-cut
// schedule: replayMergedBurst over seeds and random cut times (it pins the
// replay hang of in-flight vector-fused commands). Its check is delivery,
// the gate audit and every block on media under its own request's identity.
func TestCrashScheduleFuzzTargetCutsMergeOn(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			cutAt := sim.Time(4+rng.Int63n(60)) * sim.Microsecond
			t.Run(fmt.Sprintf("seed%d.%d/cut%v", seed, i, cutAt), func(t *testing.T) {
				replayMergedBurst(t, seed, cutAt)
			})
		}
	}
}

// TestCrashScheduleFuzzMemberCuts is the replica-set schedule: a random
// member of a 3-way set is power-cut mid-stream at a random point; the
// survivors must complete every write at quorum (no stall), the
// background resync must rejoin the member, and afterwards the engine
// audit is clean on every member and the replica media is
// byte-identical.
func TestCrashScheduleFuzzMemberCuts(t *testing.T) {
	fuzzSeeds(t, "", 3, func(t *testing.T, seed int64, bursty bool) int64 {
		return fuzzMemberCut(t, seed, false, bursty)
	})
}

// TestCrashScheduleFuzzRelayMemberCuts re-runs the member-cut schedules
// with the target-to-target relay fast path on: the random victim may
// be the relay head (exact-prefix re-post + survivor ack flush) or a
// follower (degrade to direct fan-out) — both must uphold the same
// no-stall, byte-identical contract.
func TestCrashScheduleFuzzRelayMemberCuts(t *testing.T) {
	fuzzSeeds(t, "", 3, func(t *testing.T, seed int64, bursty bool) int64 {
		return fuzzMemberCut(t, seed, true, bursty)
	})
}

func fuzzMemberCut(t *testing.T, seed int64, relay, bursty bool) (fused int64) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.New(seed)
	cfg := smallConfig(ModeRio, OptaneTarget(), OptaneTarget(), OptaneTarget())
	cfg.Replicas = 3
	cfg.ReplRelay = relay
	traffic := newFuzzTraffic(&cfg, seed, bursty)
	c := newPoisoned(eng, cfg)
	streams := cfg.Streams
	const writes = 60

	var reqs []*reqRec
	for s := 0; s < streams; s++ {
		s := s
		eng.Go(fmt.Sprintf("fuzz/app%d", s), func(p *sim.Proc) {
			for n := 0; n < writes; {
				var burst []*blockdev.Request
				traffic.burst(p, c.Init(0), s, func(boundary bool) {
					lba := uint64(s)<<22 + uint64(n)
					n++
					r := c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, boundary, false, false)
					reqs = append(reqs, &reqRec{r: r, lba: lba})
					burst = append(burst, r)
				})
				for _, r := range burst {
					c.Init(0).Wait(p, r)
				}
			}
		})
	}
	victim := rng.Intn(3)
	cut := sim.Time(30+rng.Int63n(150)) * sim.Microsecond
	eng.At(cut, func() { c.PowerCutTarget(victim) })
	eng.Run()

	// Majority quorum tolerates one member: nothing may have stalled.
	for i, rr := range reqs {
		if !rr.r.Done.Fired() {
			t.Fatalf("request %d stalled after a single member cut", i)
		}
	}
	eng.Go("fuzz/resync", func(p *sim.Proc) { c.RecoverTarget(p, victim) })
	eng.Run()
	if !c.InSync(victim) {
		t.Fatal("member did not rejoin after resync")
	}
	if v := c.OrderAudit(); v != 0 {
		t.Fatalf("engine audit after resync: %d violations", v)
	}
	// Byte-identical members on every written LBA.
	for _, rr := range reqs {
		dev, devLBA := c.Volume().Map(rr.lba)
		ref := c.Volume().Dev(dev)
		base, baseOK := c.Target(c.SetMembers(0)[0]).SSD(ref.SSD).Durable(devLBA)
		for _, m := range c.SetMembers(0)[1:] {
			rec, ok := c.Target(m).SSD(ref.SSD).Durable(devLBA)
			if ok != baseOK || rec.Stamp != base.Stamp {
				t.Fatalf("lba %d diverges on member %d after resync", rr.lba, m)
			}
		}
	}
	fused = c.StatsAll().FusedCmds
	eng.Shutdown()
	return fused
}

type reqRec struct {
	r   *blockdev.Request
	lba uint64
}

// TestCrashScheduleFuzzCachedReads is the cached-read schedule: with the
// block cache, read-ahead and replication on, a random member of a
// 3-way set is cut at a random point under concurrent writers AND
// readers. Every LBA is written exactly once and waited on, so a read
// of an acked LBA has exactly one correct answer — its stamp — through
// the degraded window, the background resync and the rejoin. Any other
// observation is a stale hit. The cache audit must also be clean at the
// cut, after resync, and at the end.
func TestCrashScheduleFuzzCachedReads(t *testing.T) {
	fuzzSeeds(t, "", 3, fuzzCachedMemberCut)
}

func fuzzCachedMemberCut(t *testing.T, seed int64, bursty bool) (fused int64) {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.New(seed)
	cfg := smallConfig(ModeRio, OptaneTarget(), OptaneTarget(), OptaneTarget())
	cfg.Replicas = 3
	cfg.CacheBlocks = 128 // smaller than the written range: evictions + refills
	cfg.ReadAhead = 4
	traffic := newFuzzTraffic(&cfg, seed, bursty)
	c := newPoisoned(eng, cfg)
	streams := cfg.Streams

	type ackRec struct{ lba, stamp uint64 }
	acked := make([][]ackRec, streams)
	stale := 0
	reads := 0
	stopped := false
	// paused gates the WRITERS only: CacheAudit is a quiescent-point
	// check (an in-flight write is populated before it lands), and the
	// background resync can only drain while writers stop dirtying.
	// Readers never pause — reads during the degraded window and the
	// resync are exactly the stale-hit hazard under test.
	paused := false
	for s := 0; s < streams; s++ {
		s := s
		eng.Go(fmt.Sprintf("cfuzz/wr%d", s), func(p *sim.Proc) {
			for i := uint64(0); !stopped; {
				if paused {
					p.Sleep(5 * sim.Microsecond)
					continue
				}
				var burst []*blockdev.Request
				traffic.burst(p, c.Init(0), s, func(boundary bool) {
					i++
					burst = append(burst, c.Init(0).OrderedWrite(p, s, uint64(s)<<22+i-1, 1, 0, nil, boundary, i%8 == 0, false))
				})
				for _, r := range burst {
					c.Init(0).Wait(p, r)
					if !stopped && r.Ticket != nil {
						acked[s] = append(acked[s], ackRec{lba: r.LBA, stamp: core.AttrStamp(r.Ticket.Attr)})
					}
				}
				if stopped {
					continue
				}
				p.Sleep(sim.Microsecond)
			}
		})
		eng.Go(fmt.Sprintf("cfuzz/rd%d", s), func(p *sim.Proc) {
			rrng := rand.New(rand.NewSource(seed*100 + int64(s)))
			for !stopped {
				if n := len(acked[s]); n > 0 {
					a := acked[s][rrng.Intn(n)]
					recs := c.Init(0).ReadStreamAhead(p, s, a.lba, 1, 0)
					if stopped {
						break
					}
					reads++
					if len(recs) != 1 || recs[0].Stamp != a.stamp {
						stale++
					}
				}
				p.Sleep(2 * sim.Microsecond)
			}
		})
	}

	victim := rng.Intn(3)
	cut := sim.Time(40+rng.Int63n(200)) * sim.Microsecond
	t.Logf("schedule: victim=%d cut=%v", victim, cut)
	eng.At(cut, func() { c.PowerCutTarget(victim) })
	eng.RunUntil(cut + 100*sim.Microsecond)
	// Quiesce the writers (in-flight writes land) and audit degraded.
	paused = true
	eng.RunUntil(eng.Now() + 300*sim.Microsecond)
	if bad := c.CacheAudit(); bad != 0 {
		t.Fatalf("cache audit while member down: %d stale entries", bad)
	}

	// Background resync with the readers hammering the whole acked set.
	resynced := false
	eng.Go("cfuzz/resync", func(p *sim.Proc) { c.RecoverTarget(p, victim); resynced = true })
	for i := 0; i < 300 && !resynced; i++ {
		eng.RunUntil(eng.Now() + sim.Millisecond)
	}
	if !resynced {
		t.Fatal("background resync did not complete")
	}
	if bad := c.CacheAudit(); bad != 0 {
		t.Fatalf("cache audit after resync: %d stale entries", bad)
	}
	// Fresh writes against the rejoined member, then drain and audit.
	paused = false
	eng.RunUntil(eng.Now() + 200*sim.Microsecond)
	stopped = true
	eng.Run()

	if reads == 0 {
		t.Fatal("schedule exercised no reads")
	}
	if stale != 0 {
		t.Fatalf("%d of %d reads returned a stale or lost block", stale, reads)
	}
	if !c.InSync(victim) {
		t.Fatal("member did not rejoin after resync")
	}
	if v := c.OrderAudit(); v != 0 {
		t.Fatalf("engine audit: %d violations", v)
	}
	if bad := c.CacheAudit(); bad != 0 {
		t.Fatalf("cache audit at end: %d stale entries", bad)
	}
	fused = c.StatsAll().FusedCmds
	eng.Shutdown()
	return fused
}

// TestCrashScheduleFuzzFlushBarriers is the durability-barrier schedule, on
// the DEFAULT configuration (merging and vector fusion on): two initiators,
// four streams each, every stream pinned to one device so that the flash
// device carries two streams per initiator, a commit (FLUSH-carrying group)
// every 2–8 groups, and one cut drawn over {cluster, flash target, initiator}
// × {a random instant, the first instant at which a FLUSH is running with
// barriers queued behind it in the target's combiner}. The check needs no
// media oracle, so merging stays on: every commit DELIVERED before the cut
// must lie inside its stream's recovered durable prefix — a barrier
// acknowledged by a FLUSH that did not cover it is exactly what breaks this —
// the engine audits must be clean, and the survivors must drain.
func TestCrashScheduleFuzzFlushBarriers(t *testing.T) {
	queued := 0
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			if fuzzBarrierCut(t, seed) {
				queued++
			}
		})
	}
	if queued < 8 {
		t.Fatalf("only %d schedules cut with barriers queued behind a running FLUSH", queued)
	}
}

// fuzzBarrierCut runs one schedule and reports whether the cut landed with
// barriers queued behind a running FLUSH.
func fuzzBarrierCut(t *testing.T, seed int64) bool {
	rng := rand.New(rand.NewSource(seed))
	eng := sim.New(seed)
	cfg := smallConfig(ModeRio, FlashTarget(), OptaneTarget())
	cfg.Initiators = 2
	// One stripe chunk per stream region pins a stream to one device: a
	// commit FLUSHes only the device it lands on (ROADMAP item 1(d)).
	const region = 1 << 20
	cfg.ChunkBlocks = region
	// An eighth of the default PMR: the recovery scan sweeps the whole
	// region, and the survivors' traffic through it is most of the test's
	// cost. The rings wrap sooner, which the prefix analysis allows for.
	for ti := range cfg.Targets {
		cfg.Targets[ti].SSDs[0].PMRSize = 256 << 10
	}
	c := newPoisoned(eng, cfg)
	inits, streams := cfg.Initiators, cfg.Streams

	const (
		cutCluster = iota
		cutTarget
		cutInitiator
	)
	kind := int(seed % 3)
	victim := rng.Intn(inits)
	commitEvery := 2 + rng.Intn(7)
	base := sim.Time(150+rng.Int63n(2400)) * sim.Microsecond
	onQueue := rng.Intn(3) > 0
	fail := func(format string, args ...interface{}) {
		t.Helper()
		repro := fmt.Sprintf("riocrash -streams %d -cut %d -commit %d -seed %d", inits*streams, base/sim.Microsecond, commitEvery, seed)
		if kind == cutTarget {
			repro += " -target"
		}
		t.Fatalf(format+"\nschedule: kind=%d victim=%d base=%v onQueue=%v; closest CLI schedule: %s",
			append(args, kind, victim, base, onQueue, repro)...)
	}

	// subs[ii][s]: the requests of initiator ii's FIRST incarnation (the one
	// the cut is checked against), in submission order.
	subs := make([][][]*blockdev.Request, inits)
	recording := true
	stopped := false
	for ii := range subs {
		subs[ii] = make([][]*blockdev.Request, streams)
		for s := 0; s < streams; s++ {
			ii, s := ii, s
			appRng := rand.New(rand.NewSource(seed<<8 + int64(ii*streams+s)))
			eng.Go(fmt.Sprintf("fuzz/app%d.%d", ii, s), func(p *sim.Proc) {
				var pending []*blockdev.Request
				wasAlive := true
				for n := uint64(0); !stopped; {
					in := c.Init(ii)
					if !in.Alive() {
						wasAlive = false
						p.Sleep(5 * sim.Microsecond)
						continue
					}
					if !wasAlive {
						pending, wasAlive = pending[:0], true // the dead incarnation's never fire
					}
					for len(pending) > 0 && pending[0].Done.Fired() {
						pending = pending[1:]
					}
					if len(pending) >= 24 {
						p.Sleep(2 * sim.Microsecond)
						continue
					}
					// A burst of consecutive blocks, back to back, so the
					// scheduler merges and vector-fuses them.
					for k := 1 + appRng.Intn(4); k > 0 && !stopped && in.Alive(); k-- {
						lba := uint64(ii*streams+s)*region + n
						n++
						r := in.OrderedWrite(p, s, lba, 1, 0, nil, true, n%uint64(commitEvery) == 0, false)
						pending = append(pending, r)
						if recording && r.Ticket != nil {
							subs[ii][s] = append(subs[ii][s], r)
						}
					}
					p.Sleep(2 * sim.Microsecond)
				}
			})
		}
	}

	// Run to the cut instant.
	eng.RunUntil(base)
	fc := &c.Target(0).flushers[0]
	hit := fc.busy && fc.wait != nil
	for step := 0; onQueue && !hit && step < 4000; step++ {
		eng.RunUntil(eng.Now() + 250)
		hit = fc.busy && fc.wait != nil
	}
	cut := eng.Now()
	recording = false
	st := c.Target(0).Stats()
	t.Logf("schedule: kind=%d victim=%d commitEvery=%d cut=%v barriersQueued=%v (%d barriers over %d FLUSHes so far)",
		kind, victim, commitEvery, cut, hit, st.Barriers, st.Flushes)
	var report *core.Report
	recovered := false
	switch kind {
	case cutCluster:
		c.PowerCutAll()
		stopped = true
		eng.RunUntil(cut + sim.Millisecond)
		eng.Go("fuzz/recover", func(p *sim.Proc) { report, _ = c.RecoverFull(p); recovered = true })
	case cutTarget:
		c.PowerCutTarget(0)
		eng.RunUntil(cut + 100*sim.Microsecond)
		eng.Go("fuzz/recover", func(p *sim.Proc) { report, _ = c.RecoverTarget(p, 0); recovered = true })
	case cutInitiator:
		c.PowerCutInitiator(victim)
		eng.RunUntil(cut + 100*sim.Microsecond)
		eng.Go("fuzz/recover", func(p *sim.Proc) { report, _ = c.RecoverInitiator(p, victim); recovered = true })
	}
	// Survivor traffic flows throughout the recovery (the PMR scan alone
	// costs several simulated milliseconds), then a little live time.
	for i := 0; i < 100 && !recovered; i++ {
		eng.RunUntil(eng.Now() + sim.Millisecond)
	}
	if !recovered {
		fail("recovery did not complete")
	}
	eng.RunUntil(eng.Now() + 300*sim.Microsecond)
	stopped = true
	eng.Run()

	if v := c.OrderAudit(); v != 0 {
		fail("engine audit after recovery: %d violations", v)
	}
	for ti := 0; ti < c.Targets(); ti++ {
		if v := c.Target(ti).GateAudit(); v != 0 {
			fail("target %d gate audit after recovery: %d violations", ti, v)
		}
	}
	for ii := 0; ii < inits; ii++ {
		// The report of an initiator recovery covers the victim only.
		checked := kind != cutInitiator || ii == victim
		// An initiator that survived the cut must have drained.
		survived := kind == cutTarget || (kind == cutInitiator && ii != victim)
		for s := 0; s < streams; s++ {
			prefix := report.PrefixFor(uint16(ii), uint16(s))
			for _, r := range subs[ii][s] {
				if checked && r.Flush && r.Done.Fired() && r.DeliverAt <= cut && r.Ticket.Attr.SeqEnd > prefix {
					fail("init %d stream %d: commit group %d was delivered at %v, before the cut at %v, but the durable prefix is %d",
						ii, s, r.Ticket.Attr.SeqEnd, r.DeliverAt, cut, prefix)
				}
				if survived && !r.Done.Fired() {
					fail("init %d stream %d: group %d never delivered although its initiator survived", ii, s, r.Ticket.Attr.SeqEnd)
				}
			}
		}
	}
	// The recovered cluster takes commits on the flash device again.
	done := 0
	for ii := 0; ii < inits; ii++ {
		ii := ii
		eng.Go("fuzz/post", func(p *sim.Proc) {
			r := c.Init(ii).OrderedWrite(p, 0, uint64(ii*streams)*region+region-1, 1, 0, nil, true, true, false)
			c.Init(ii).Wait(p, r)
			done++
		})
	}
	eng.Run()
	if done != inits {
		fail("cluster wedged after recovery: %d of %d post-recovery commits delivered", done, inits)
	}
	eng.Shutdown()
	return hit
}
