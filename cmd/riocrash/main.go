// Command riocrash demonstrates Rio's crash consistency end to end: it
// drives ordered writes on several streams, cuts power at a random moment,
// runs the §4.4 recovery algorithm, and verifies the §4.8 prefix invariant
// against the durable media state, printing what survived.
//
// With -replicas R the cluster replicates every stream across an R-way
// replica set, the cut hits ONE member mid-stream, and the audit checks
// the replication contract instead: no stream stalls (every write
// completes from the survivors at quorum), ordering invariants hold on
// every member (dense gate chains, advancing group order), and after the
// background resync the rejoined member's media is byte-identical to its
// peers. With -cut-all the other members follow the first, 50 µs apart, so
// the set is left with no survivor: the last member down is repaired by
// the initiator's replay, the others from it, and the same audit must hold
// (every write delivered exactly once, byte-identical media, dense chains).
//
// Without -seed each run draws a fresh seed (randomized
// crash-consistency probing); the chosen seed is always printed, and a
// failing run ends with the exact command line that reproduces it.
//
// With -relay (requires -replicas) the replica sets route writes over
// the target-to-target relay fast path and the cut hits the set HEAD
// mid-batch — the most adversarial schedule: relayed capsules and
// buffered follower acks are in flight when the relay hub dies, and the
// audit additionally requires that the degraded set kept completing via
// direct fan-out with zero lost or duplicated completions.
//
// With -commit N every N-th group of a stream carries the FLUSH, each stream
// is pinned to one device, and the run fails when a commit delivered before
// the cut, or any group before it, is not durable after recovery.
//
// With -burst N every stream submits its groups N at a time under a plug, at
// consecutive blocks of one stripe chunk, so the scheduler merges them: the
// cut then lands on merged and vector-fused commands, and the same per-request
// media checks must hold (a block carries its own request's identity, merged
// or not). The default, 1, is one write every 2 µs: nothing ever fuses.
//
// Usage:
//
//	riocrash [-streams 4] [-groups 200] [-cut 300] [-seed N] [-burst 4] [-target] [-commit 8] [-replicas 3] [-relay] [-cut-all]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
	"repro/internal/trace"
)

// auditTrace checks the tracing ledger after a crash/recovery cycle:
// every sampled span must have resolved to a terminal state — finished,
// or dropped with a dropped@stage attribution — and none may dangle
// open. Tracing runs at sample rate 1 here, so the fuzz exercises the
// span lifecycle on every request the schedule produces.
func auditTrace(c *stack.Cluster, fail func(string, ...interface{})) {
	st := c.TraceStats()
	fmt.Printf("trace: %d sampled, %d finished, %d dropped", st.Sampled, st.Finished, st.Dropped)
	for m, n := range st.DroppedAt {
		if n > 0 {
			fmt.Printf(", dropped@%s: %d", trace.Milestone(m), n)
		}
	}
	fmt.Println()
	if st.Open != 0 {
		fail("%d trace spans left open after recovery (every span must end finished or dropped@stage)\n", st.Open)
	}
	if st.Finished+st.Dropped != st.Sampled {
		fail("trace ledger does not balance: %d finished + %d dropped != %d sampled\n",
			st.Finished, st.Dropped, st.Sampled)
	}
}

func main() {
	var (
		streams  = flag.Int("streams", 4, "independent ordered streams")
		groups   = flag.Int("groups", 200, "groups submitted per stream")
		cutUS    = flag.Int64("cut", 300, "power cut time (simulated µs)")
		seed     = flag.Int64("seed", 0, "RNG seed (0 = randomize and print)")
		target   = flag.Bool("target", false, "crash one target instead of the whole cluster")
		commit   = flag.Int("commit", 0, "every N-th group of a stream carries the FLUSH, one device per stream (0 = none; ignored with -replicas)")
		replicas = flag.Int("replicas", 0, "replicate across an R-way set and cut one member mid-stream")
		relay    = flag.Bool("relay", false, "enable the target-to-target relay fast path and cut the set head")
		cutAll   = flag.Bool("cut-all", false, "with -replicas: cut every member of the set, one after another, and recover them last-cut first")
		burst    = flag.Int("burst", 1, "submit each stream's groups in plugged bursts of N device-contiguous writes (1 = one write every 2 µs, never fused)")
	)
	flag.Parse()

	if *seed == 0 {
		*seed = time.Now().UnixNano()%1_000_000_000 + 1
	}
	fmt.Printf("seed %d\n", *seed)
	fail := func(format string, args ...interface{}) {
		fmt.Printf(format, args...)
		fmt.Printf("reproduce with: riocrash -streams %d -groups %d -cut %d -seed %d",
			*streams, *groups, *cutUS, *seed)
		if *burst > 1 {
			fmt.Printf(" -burst %d", *burst)
		}
		if *target {
			fmt.Print(" -target")
		}
		if *commit > 0 {
			fmt.Printf(" -commit %d", *commit)
		}
		if *replicas > 1 {
			fmt.Printf(" -replicas %d", *replicas)
		}
		if *relay {
			fmt.Print(" -relay")
		}
		if *cutAll {
			fmt.Print(" -cut-all")
		}
		fmt.Println()
		os.Exit(1)
	}

	if (*relay || *cutAll) && *replicas <= 1 {
		fmt.Println("-relay and -cut-all require -replicas >= 2")
		os.Exit(2)
	}
	if *replicas > 1 {
		replicaCrash(*streams, *groups, *burst, *cutUS, *seed, *replicas, *relay, *cutAll, fail)
		return
	}

	eng := sim.New(*seed)
	cfg := stack.DefaultConfig(stack.ModeRio,
		stack.TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig()}},
		stack.TargetConfig{SSDs: []ssd.Config{ssd.FlashConfig()}})
	cfg.Streams = *streams
	cfg.QPs = *streams
	cfg.KeepHistory = true
	if *commit > 0 {
		cfg.ChunkBlocks = 1_000_000 // the streams' LBA stride: a commit FLUSHes only the device it lands on (ROADMAP 1(d))
	} else if *burst > 1 {
		cfg.ChunkBlocks = *burst // a burst is one device-contiguous extent
	}
	// Trace every request: the crash fuzz doubles as the span-lifecycle
	// audit (no dangling open span across any power-cut schedule).
	cfg.Trace = trace.Config{SampleEvery: 1}
	c := stack.New(eng, cfg)

	subs := make([][]*blockdev.Request, *streams)
	var reqs []*blockdev.Request
	startWriters(eng, c.Init(0), *streams, *groups, *burst, *commit, func(s int, r *blockdev.Request) {
		subs[s] = append(subs[s], r)
		reqs = append(reqs, r)
	})
	cut := sim.Time(*cutUS) * sim.Microsecond
	if *target {
		eng.At(cut, func() { c.PowerCutTarget(1) })
	} else {
		eng.At(cut, func() { c.PowerCutAll() })
	}
	eng.RunUntil(cut + sim.Millisecond)

	fmt.Printf("power cut at %v with %d requests submitted%s\n", cut, c.Init(0).Stats().Submitted, fusedNote(c, *burst))

	var report *core.Report
	var tm stack.RecoveryTiming
	eng.Go("recover", func(p *sim.Proc) {
		if *target {
			report, tm = c.RecoverTarget(p, 1)
		} else {
			report, tm = c.RecoverFull(p)
		}
	})
	eng.Run()

	fmt.Printf("order rebuild: %v   data recovery: %v   discarded: %d   replayed: %d",
		tm.OrderRebuild, tm.DataRecovery, tm.Discarded, tm.Replayed)
	for ti := 0; *commit > 0 && ti < c.Targets(); ti++ {
		st := c.Target(ti).Stats()
		fmt.Printf("   target %d: %d barriers over %d device FLUSHes", ti, st.Barriers, st.Flushes)
	}
	fmt.Println()
	durable := func(r *blockdev.Request) bool { // the media holds the group's own block
		dev, devLBA := c.Volume().Map(r.LBA)
		ref := c.Volume().Dev(dev)
		rec, ok := c.Target(ref.Server).SSD(ref.SSD).Durable(devLBA)
		return ok && rec.Stamp == core.AttrStamp(r.Ticket.Attr)
	}
	// A commit delivered before the cut made its stream durable up to itself; recovery must leave it so.
	for s, list := range subs {
		committed := false // such a commit at or after this group
		for gi := len(list) - 1; gi >= 0; gi-- {
			r := list[gi]
			committed = committed || r.Flush && r.Done.Fired() && r.DeliverAt <= cut
			if committed && !durable(r) {
				fail("stream %d: group %d precedes a delivered commit but is not durable after recovery\n", s, gi+1)
			}
		}
	}

	if *target {
		undelivered := 0
		for _, r := range reqs {
			if !r.Done.Fired() {
				undelivered++
			}
		}
		fmt.Printf("target recovery: %d/%d requests delivered after replay\n",
			len(reqs)-undelivered, len(reqs))
		if undelivered > 0 {
			fail("%d requests lost by target recovery\n", undelivered)
		}
		auditTrace(c, fail)
		return
	}

	violations := 0
	for s := 0; s < *streams; s++ {
		prefix := report.Prefix(uint16(s))
		fmt.Printf("stream %d: durable prefix = %d of %d submitted groups\n",
			s, prefix, len(subs[s]))
		for gi, sb := range subs[s] {
			g := uint64(gi + 1)
			isOurs := durable(sb)
			if g <= prefix && !isOurs {
				fmt.Printf("  VIOLATION: group %d inside prefix but not durable\n", g)
				violations++
			}
			if g > prefix && isOurs {
				fmt.Printf("  VIOLATION: group %d beyond prefix but survived\n", g)
				violations++
			}
		}
	}
	if violations == 0 {
		fmt.Println("prefix invariant holds: every stream recovered to an ordered state")
	} else {
		fail("%d violations\n", violations)
	}
	auditTrace(c, fail)
}

// startWriters starts one application per stream: groups single-write groups
// at consecutive blocks of the stream's region, every commit-th carrying the
// FLUSH (0 = none), burst of them at a time under a plug and then a 2 µs
// pause. A stream stops at the first write that died un-staged (the power cut
// landed mid-submission); every other request goes to record.
func startWriters(eng *sim.Engine, in *stack.Initiator, streams, groups, burst, commit int, record func(s int, r *blockdev.Request)) {
	for s := 0; s < streams; s++ {
		eng.Go(fmt.Sprintf("app%d", s), func(p *sim.Proc) {
			for g := 0; g < groups; {
				if burst > 1 {
					in.StartPlug(s)
				}
				for k := 0; k < burst && g < groups; k, g = k+1, g+1 {
					r := in.OrderedWrite(p, s, uint64(s*1_000_000+g), 1, 0, nil, true, commit > 0 && (g+1)%commit == 0, false)
					if r.Ticket == nil {
						return
					}
					record(s, r)
				}
				if burst > 1 && in.Alive() {
					in.FinishPlug(p, s)
				}
				p.Sleep(2 * sim.Microsecond)
			}
		})
	}
}

// fusedNote says, on a bursty run, how many commands the scheduler has fused
// away.
func fusedNote(c *stack.Cluster, burst int) string {
	if burst <= 1 {
		return ""
	}
	return fmt.Sprintf(", %d commands fused", c.Init(0).Stats().FusedCmds)
}

// replicaCrash drives the replication contract: R-way set, one member
// power-cut mid-stream, survivors must complete every write in order,
// and after the background resync the rejoined member's media must be
// byte-identical to its peers. With cutAll no member survives, so the
// no-stall clause gives way to "every write completes once the set is back".
func replicaCrash(streams, groups, burst int, cutUS, seed int64, replicas int, relay, cutAll bool, fail func(string, ...interface{})) {
	eng := sim.New(seed)
	targets := make([]stack.TargetConfig, replicas)
	for i := range targets {
		targets[i] = stack.TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig()}}
	}
	cfg := stack.DefaultConfig(stack.ModeRio, targets...)
	cfg.Replicas = replicas
	cfg.ReplRelay = relay
	cfg.Streams = streams
	cfg.QPs = streams
	cfg.Trace = trace.Config{SampleEvery: 1} // span-lifecycle audit rides along
	c := stack.New(eng, cfg)

	// Relay schedule: cut the set HEAD so the repair path (exact-prefix
	// re-post + survivor ack flush) is what keeps completions flowing.
	victim := eng.Rand().Intn(replicas)
	if relay {
		victim = c.SetMembers(0)[0]
	}
	var reqs []*blockdev.Request
	startWriters(eng, c.Init(0), streams, groups, burst, 0, func(_ int, r *blockdev.Request) { reqs = append(reqs, r) })
	cut := sim.Time(cutUS) * sim.Microsecond
	cuts := []int{victim}
	for k := 1; cutAll && k < replicas; k++ {
		cuts = append(cuts, (victim+k)%replicas)
	}
	for k, m := range cuts {
		eng.At(cut+sim.Time(k)*50*sim.Microsecond, func() { c.PowerCutTarget(m) })
	}
	eng.Run()

	fmt.Printf("replica member %d of %d power-cut at %v with %d requests submitted (write quorum %d)%s\n",
		victim, replicas, cut, c.Init(0).Stats().Submitted, c.WriteQuorum(), fusedNote(c, burst))
	if cutAll {
		fmt.Printf("then members %v, 50us apart: no member left to complete anything\n", cuts[1:])
	}

	// The no-stall contract only holds when the quorum tolerates losing a
	// member (majority on R>=3). With WriteQuorum == R (and majority on
	// R=2, where floor(2/2)+1 == 2 is the full set) writes legitimately
	// stall during the degraded window and the resync's late acks release
	// them — asserted after the resync below instead.
	tolerant := c.WriteQuorum() <= replicas-1 && !cutAll
	if tolerant {
		stalled := 0
		for _, r := range reqs {
			if !r.Done.Fired() {
				stalled++
			}
		}
		if stalled > 0 {
			fail("%d of %d writes stalled after a single replica cut\n", stalled, len(reqs))
		}
		fmt.Printf("no stream stalled: survivors completed all %d writes in order (resync backlog %d extents)\n",
			len(reqs), c.ResyncBacklog(victim))
	} else if !cutAll {
		fmt.Printf("full-set quorum: writes stall while degraded (resync backlog %d extents); completion asserted after resync\n",
			c.ResyncBacklog(victim))
	}

	// Last cut first: that member is the one still in sync, and the others
	// are repaired from it. Its replay completes only once a peer's resync
	// lands the quorum's second copy, so no recovery is awaited before the
	// next one starts.
	tms := make([]stack.RecoveryTiming, replicas)
	for k := len(cuts) - 1; k >= 0; k-- {
		eng.Go("resync", func(p *sim.Proc) { _, tms[cuts[k]] = c.RecoverTarget(p, cuts[k]) })
		eng.Run()
	}
	for k := len(cuts) - 1; k >= 0; k-- {
		m, tm := cuts[k], tms[cuts[k]]
		if cutAll {
			fmt.Printf("member %d recovered: order rebuild %v, data recovery %v, %d discarded, %d replayed\n",
				m, tm.OrderRebuild, tm.DataRecovery, tm.Discarded, tm.Replayed)
		} else {
			fmt.Printf("background resync: peer scan %v, delta copy %v, %d blocks replayed\n",
				tm.OrderRebuild, tm.DataRecovery, tm.Replayed)
		}
		if !c.InSync(m) {
			fail("member %d did not rejoin its set after resync\n", m)
		}
	}
	stalled := 0
	for _, r := range reqs {
		if !r.Done.Fired() {
			stalled++
		}
	}
	if stalled > 0 {
		fail("%d of %d writes still undelivered after resync\n", stalled, len(reqs))
	}
	for s := 0; s < streams; s++ {
		if got := c.Init(0).Sequencer().Stream(s).FullyDone(); got != uint64(groups) {
			fail("stream %d group order stopped at %d of %d\n", s, got, groups)
		}
	}
	for ti := 0; ti < c.Targets(); ti++ {
		if v := c.Target(ti).GateAudit(); v != 0 {
			fail("target %d gate audit: %d dense-chain violations\n", ti, v)
		}
	}
	if !tolerant {
		fmt.Printf("all %d writes completed once resync landed their content on the full set\n", len(reqs))
	}

	// Byte-identical replica contents: every written LBA must carry the
	// same durable stamp on every member of the set.
	diverged := 0
	for _, r := range reqs {
		dev, devLBA := c.Volume().Map(r.LBA)
		ref := c.Volume().Dev(dev)
		base, baseOK := c.Target(c.SetMembers(0)[0]).SSD(ref.SSD).Durable(devLBA)
		for _, m := range c.SetMembers(0)[1:] {
			rec, ok := c.Target(m).SSD(ref.SSD).Durable(devLBA)
			if ok != baseOK || rec.Stamp != base.Stamp {
				diverged++
			}
		}
	}
	if diverged > 0 {
		fail("%d blocks diverge across replica members after resync\n", diverged)
	}
	fmt.Printf("replica contents byte-identical across all %d members after resync\n", replicas)
	if relay {
		head := c.Target(c.SetMembers(0)[0])
		fmt.Printf("relay path: %d capsules relayed, %d quorum acks aggregated\n",
			head.Stats().Relays, head.Stats().AggFires)
		if head.Stats().Relays == 0 {
			fail("relay schedule relayed no capsules before the head cut\n")
		}
	}
	auditTrace(c, fail)
}
