package stack

import (
	"slices"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/nvmeof"
	"repro/internal/sim"
)

// relayConfig is replConfig with the target-to-target relay fast path
// enabled.
func relayConfig(r int) Config {
	cfg := replConfig(r)
	cfg.ReplRelay = true
	return cfg
}

// TestRelaySteadyState: with the fast path on, writes still land on
// every member and complete, but the initiator posts one capsule per
// batch (not R) and the head aggregates follower acks.
func TestRelaySteadyState(t *testing.T) {
	eng := sim.New(21)
	c := New(eng, relayConfig(3))
	const streams, groups = 4, 40
	for s := 0; s < streams; s++ {
		s := s
		eng.Go("app", func(p *sim.Proc) {
			for g := 0; g < groups; g++ {
				lba := uint64(s*100000 + g)
				r := c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, true, false, false)
				c.Init(0).Wait(p, r)
			}
		})
	}
	eng.Run()
	mediaIdentical(t, c)
	for s := 0; s < streams; s++ {
		if c.Init(0).Sequencer().Stream(s).FullyDone() != uint64(groups) {
			t.Fatalf("stream %d fully-done = %d, want %d", s, c.Init(0).Sequencer().Stream(s).FullyDone(), groups)
		}
	}
	for _, m := range c.SetMembers(0) {
		if v := c.Target(m).GateAudit(); v != 0 {
			t.Fatalf("member %d gate audit: %d violations", m, v)
		}
	}
	head := c.Target(c.SetMembers(0)[0])
	if head.Stats().Relays == 0 {
		t.Fatal("head relayed no capsules with ReplRelay on")
	}
	if head.Stats().AggFires == 0 {
		t.Fatal("head aggregated no quorum acks")
	}
	var followerAcks int64
	for _, m := range c.SetMembers(0)[1:] {
		followerAcks += c.Target(m).Stats().RelayAcks
	}
	if followerAcks == 0 {
		t.Fatal("followers sent no relay acks")
	}
	eng.Shutdown()
}

// TestRelayCutsInitiatorEgress: the same workload posts strictly fewer
// initiator wire messages with the relay on than with direct fan-out.
func TestRelayCutsInitiatorEgress(t *testing.T) {
	run := func(seed int64, relay bool) (msgs, bytes int64) {
		eng := sim.New(seed)
		cfg := replConfig(3)
		cfg.ReplRelay = relay
		c := New(eng, cfg)
		eng.Go("app", func(p *sim.Proc) {
			for g := 0; g < 60; g++ {
				r := c.Init(0).OrderedWrite(p, g%4, uint64(g*5), 1, 0, nil, true, false, false)
				c.Init(0).Wait(p, r)
			}
		})
		eng.Run()
		s := c.StatsAll()
		eng.Shutdown()
		return s.TxMsgs, s.TxBytes
	}
	dMsgs, _ := run(22, false)
	rMsgs, _ := run(22, true)
	if rMsgs == 0 || dMsgs == 0 {
		t.Fatalf("egress counters not wired: direct=%d relay=%d", dMsgs, rMsgs)
	}
	if rMsgs >= dMsgs {
		t.Fatalf("relay egress %d msgs not below direct %d", rMsgs, dMsgs)
	}
}

// TestRelayFollowerCut: power-cutting a follower mid-stream stalls
// nothing — the head keeps relaying to the survivor, acks keep
// aggregating, and resync converges the rejoined member byte-identically.
func TestRelayFollowerCut(t *testing.T) {
	eng := sim.New(23)
	c := New(eng, relayConfig(3))
	const streams, groups = 4, 60
	var reqs []*blockdev.Request
	for s := 0; s < streams; s++ {
		s := s
		eng.Go("app", func(p *sim.Proc) {
			for g := 0; g < groups; g++ {
				lba := uint64(s*100000 + g)
				r := c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, true, false, false)
				reqs = append(reqs, r)
				p.Sleep(2 * sim.Microsecond)
			}
		})
	}
	eng.At(60*sim.Microsecond, func() { c.PowerCutTarget(2) })
	eng.Run()

	for i, r := range reqs {
		if !r.Done.Fired() {
			t.Fatalf("request %d stalled after follower cut", i)
		}
	}
	for s := 0; s < streams; s++ {
		if c.Init(0).Sequencer().Stream(s).FullyDone() != uint64(groups) {
			t.Fatalf("stream %d fully-done = %d, want %d", s, c.Init(0).Sequencer().Stream(s).FullyDone(), groups)
		}
	}
	for _, m := range []int{0, 1} {
		if v := c.Target(m).GateAudit(); v != 0 {
			t.Fatalf("survivor %d gate audit: %d violations", m, v)
		}
	}
	eng.Go("resync", func(p *sim.Proc) { c.RecoverTarget(p, 2) })
	eng.Run()
	if !c.InSync(2) {
		t.Fatal("follower did not rejoin after resync")
	}
	mediaIdentical(t, c)
	eng.Shutdown()
}

// headCutTraffic starts four streams of ordered one-block writes (or, with
// ordered false, orderless ones) to distinct LBAs on a 3-way relay cluster
// and returns the requests as they are submitted.
func headCutTraffic(eng *sim.Engine, c *Cluster, groups int, ordered bool) *[]*blockdev.Request {
	reqs := new([]*blockdev.Request)
	for s := 0; s < 4; s++ {
		eng.Go("app", func(p *sim.Proc) {
			for g := 0; g < groups; g++ {
				lba := uint64(s*100000 + g)
				var r *blockdev.Request
				if ordered {
					r = c.Init(0).OrderedWrite(p, s, lba, 1, 0, nil, true, false, false)
				} else {
					r = c.Init(0).OrderlessWrite(p, s, lba, 1, uint64(lba+1), nil)
				}
				*reqs = append(*reqs, r)
				p.Sleep(2 * sim.Microsecond)
			}
		})
	}
	return reqs
}

// TestRelayHeadCutMidBatch is the relay route's crash core, black box:
// power-cutting the HEAD while forwarded capsules and follower acks are in
// flight loses no completion and duplicates no write. Every request is
// delivered; each survivor's media holds every block exactly once, under
// its request's stamp; no gate saw a duplicate or a gap; and after the head
// rejoins the replicas are byte-identical and the relay resumes.
func TestRelayHeadCutMidBatch(t *testing.T) {
	eng := sim.New(24)
	c := New(eng, relayConfig(3))
	const streams, groups = 4, 60
	reqs := headCutTraffic(eng, c, groups, true)
	var relayedAtCut int64
	eng.At(60*sim.Microsecond, func() {
		relayedAtCut = c.Target(0).Stats().Relays
		c.PowerCutTarget(0) // the head
	})
	// Count what the survivors are asked, and what of it had never arrived.
	asks, copies := 0, 0
	for _, m := range []int{1, 2} {
		tgt := c.targets[m]
		tgt.conns[0].SetHandler(fabric.Target, func(msg fabric.Message) {
			cp := msg.Payload.(*capsule)
			reask := len(cp.reask) > 0 // the first answer may empty it
			tgt.recvCapsule(0, msg.QP, cp)
			if reask {
				asks++
				copies += len(cp.cmds) // what the first answer left: not held at NIC receive
			}
		})
	}
	eng.Run()

	if relayedAtCut == 0 || asks == 0 {
		t.Fatalf("%d capsules relayed before the cut, %d re-asks after it: the schedule exercises no repair", relayedAtCut, asks)
	}
	t.Logf("%d capsules relayed before the cut; %d re-asks, %d commands not held at NIC receive", relayedAtCut, asks, copies)
	if c.InSync(0) {
		t.Fatal("cut head still marked in sync")
	}
	for i, r := range *reqs {
		if !r.Done.Fired() {
			t.Fatalf("request %d of %d stalled after the head cut", i, len(*reqs))
		}
	}
	for s := 0; s < streams; s++ {
		if c.Init(0).Sequencer().Stream(s).FullyDone() != uint64(groups) {
			t.Fatalf("stream %d fully-done = %d, want %d", s, c.Init(0).Sequencer().Stream(s).FullyDone(), groups)
		}
	}
	for _, m := range []int{1, 2} {
		if v := c.Target(m).GateAudit(); v != 0 {
			t.Fatalf("survivor %d gate audit: %d violations", m, v)
		}
		for _, r := range *reqs {
			ext := c.Volume().Extents(r.LBA, 1)[0]
			h := c.Target(m).SSD(c.Volume().Dev(ext.Dev).SSD).History(ext.DevLBA)
			if len(h) != 1 || h[0].Stamp != core.AttrStamp(r.Ticket.Attr) {
				t.Fatalf("survivor %d lba %d: history %+v, want exactly one write under stamp %#x", m, r.LBA, h, core.AttrStamp(r.Ticket.Attr))
			}
		}
	}

	// Resync converges the head byte-identically and the relay path
	// resumes once full membership is back.
	eng.Go("resync", func(p *sim.Proc) { c.RecoverTarget(p, 0) })
	eng.Run()
	if !c.InSync(0) {
		t.Fatal("head did not rejoin after resync")
	}
	mediaIdentical(t, c)
	relaysBefore := c.Target(0).Stats().Relays
	eng.Go("app2", func(p *sim.Proc) {
		for g := 0; g < 10; g++ {
			r := c.Init(0).OrderedWrite(p, 0, uint64(900000+g), 1, 0, nil, true, false, false)
			c.Init(0).Wait(p, r)
		}
	})
	eng.Run()
	mediaIdentical(t, c)
	if c.Target(0).Stats().Relays <= relaysBefore {
		t.Fatal("relay path did not resume after the head rejoined")
	}
	eng.Shutdown()
}

// TestReaskAnswers is the follower's three-way answer, one row per case,
// plus the record that was rebound to a new command while the re-ask was on
// its way: it is skipped by id before anything of it is indexed.
func TestReaskAnswers(t *testing.T) {
	eng := sim.New(27)
	c := New(eng, relayConfig(3))
	defer eng.Shutdown()
	tg := c.targets[1]
	l := tg.lane(0, 0)
	cmd := func(id, idx uint64, members ...int) *wireState {
		ws := &wireState{id: id}
		for _, m := range members {
			ws.chain[ws.addMember(m)].attrs = []core.Attr{{Stream: 2, ServerIdx: idx}}
		}
		return ws
	}
	inFlight := cmd(11, 1, 0, 1, 2)  // below the frontier, still in pend
	completed := cmd(12, 2, 0, 1, 2) // below the frontier, not in pend
	parked := cmd(13, 5, 0, 1, 2)    // beyond the frontier, in pend (parked at the gate)
	neverCame := cmd(14, 4, 0, 1, 2) // beyond the frontier, not in pend
	rebound := cmd(99, 1, 2)         // asked about as id 15; the record now carries a command that never fanned here
	tg.ord.Domain(0, 2).Advance(3)   // frontier = 4
	tg.relay.pend[0].Put(11, relayRoute{})
	tg.relay.pend[0].Put(13, relayRoute{})

	cp := &capsule{
		cmds:  []*wireState{inFlight, completed, parked, neverCame, rebound},
		reask: []uint64{11, 12, 13, 14, 15}, epoch: 0, member: 1,
	}
	for pass := 1; pass <= 2; pass++ { // NIC receive, then the receive loop: the second finds nothing new
		acked := tg.answerReask(l, cp)
		if acked != (pass == 1) {
			t.Fatalf("pass %d: acked = %v", pass, acked)
		}
		if len(cp.cmds) != 1 || cp.cmds[0] != neverCame || !slices.Equal(cp.reask, []uint64{14}) {
			t.Fatalf("pass %d: not-held remainder = %d commands, ids %v; want exactly id 14", pass, len(cp.cmds), cp.reask)
		}
		if len(l.cqes) != 1 || l.cqes[0].ID() != 12 {
			t.Fatalf("pass %d: acked again = %v, want exactly id 12", pass, l.cqes)
		}
		completed.id = 77 // the first ack resolved it and the record was rebound: no second ack
	}
}

// TestReaskKeepsVectorMarks: a re-ask names commands whose forwarded
// original may still be queued at the follower, so it must leave every
// member SQE's vector position as the original capsule marked it — and the
// receive loop must take a re-ask's copies without the vectored-batch check.
func TestReaskKeepsVectorMarks(t *testing.T) {
	eng := sim.New(24)
	c := New(eng, relayConfig(3))
	headCutTraffic(eng, c, 60, true)
	type key struct {
		id uint64
		k  int
	}
	marks := map[key]nvmeof.SQE{}
	eng.At(60*sim.Microsecond, func() {
		for _, ws := range c.Init(0).outstandingOfSet(0) {
			for k := range ws.chain {
				marks[key{ws.id, k}] = ws.chain[k].sqe
			}
		}
		c.PowerCutTarget(0)
	})
	checked, multi := 0, false
	for _, m := range []int{1, 2} {
		tgt := c.targets[m]
		tgt.conns[0].SetHandler(fabric.Target, func(msg fabric.Message) {
			cp := msg.Payload.(*capsule)
			for i, ws := range cp.cmds {
				if len(cp.reask) == 0 || ws.id != cp.reask[i] {
					continue
				}
				checked++
				multi = multi || len(cp.cmds) > 1
				if ws.chain[ws.q.Pos(m)].sqe != marks[key{ws.id, ws.q.Pos(m)}] {
					t.Errorf("cmd %d member %d: the re-ask re-marked the member's SQE", ws.id, m)
				}
			}
			tgt.recvCapsule(0, msg.QP, cp)
		})
	}
	eng.Run()
	if checked == 0 || !multi {
		t.Fatalf("%d re-asked commands checked, several in one capsule: %v — the schedule does not exercise the check", checked, multi)
	}
	eng.Shutdown()
}

// TestRelayOrderlessWriteGoesDirect: an orderless write has no chain index
// for a re-ask to be answered from, so on a relay cluster it fans out
// direct — nothing is relayed, a head cut stalls nothing, and the replicas
// are byte-identical once the head rejoins.
func TestRelayOrderlessWriteGoesDirect(t *testing.T) {
	eng := sim.New(28)
	c := New(eng, relayConfig(3))
	reqs := headCutTraffic(eng, c, 60, false)
	eng.At(60*sim.Microsecond, func() { c.PowerCutTarget(0) })
	eng.Run()
	for i, r := range *reqs {
		if !r.Done.Fired() {
			t.Fatalf("orderless request %d stalled after the head cut", i)
		}
	}
	if n := c.Target(0).Stats().Relays; n != 0 {
		t.Fatalf("head relayed %d capsules of orderless writes", n)
	}
	eng.Go("resync", func(p *sim.Proc) { c.RecoverTarget(p, 0) })
	eng.Run()
	if !c.InSync(0) {
		t.Fatal("head did not rejoin after resync")
	}
	mediaIdentical(t, c)
	for _, r := range *reqs {
		if !c.Holds(r) {
			t.Fatalf("lba %d not durable under its stamp on every member", r.LBA)
		}
	}
	eng.Shutdown()
}

// TestRelayFullCrashRecovery: whole-cluster power cut with the relay on
// — the recovered prefix invariant must hold on every member, exactly
// as with direct fan-out.
func TestRelayFullCrashRecovery(t *testing.T) {
	eng := sim.New(25)
	c := New(eng, relayConfig(3))
	eng.Go("app", func(p *sim.Proc) {
		for g := 0; g < 40; g++ {
			if !c.Target(0).Alive() {
				break
			}
			lba := uint64(g)
			c.Init(0).OrderedWrite(p, 0, lba, 1, 0, nil, true, false, false)
			p.Sleep(2 * sim.Microsecond)
		}
	})
	eng.At(40*sim.Microsecond, func() { c.PowerCutAll() })
	eng.RunUntil(sim.Millisecond)
	eng.Go("rec", func(p *sim.Proc) { c.RecoverFull(p) })
	eng.Run()

	okDone := false
	eng.Go("app2", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 0, 7000, 1, 0, nil, true, true, false)
		c.Init(0).Wait(p, r)
		okDone = true
	})
	eng.Run()
	if !okDone {
		t.Fatal("cluster unusable after full recovery with relay enabled")
	}
	mediaIdentical(t, c)
	eng.Shutdown()
}

// TestRelayRequiresReplication: ReplRelay without replication is a
// configuration error.
func TestRelayRequiresReplication(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ReplRelay with Replicas=1 did not panic")
		}
	}()
	cfg := smallConfig(ModeRio, optane1()...)
	cfg.ReplRelay = true
	New(sim.New(26), cfg)
}
