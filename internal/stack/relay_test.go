package stack

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/ssd"
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

// TestRelayAcksCoalesce: followers reach the head in coalesced ack
// capsules — across the followers, fewer capsules than relayed completions
// — while every write is delivered in order, no gate is violated and the
// members' media are identical.
func TestRelayAcksCoalesce(t *testing.T) {
	eng := sim.New(21)
	c := New(eng, relayConfig(3))
	defer eng.Shutdown()
	const streams, groups = 4, 60
	reqs := headCutTraffic(eng, c, groups, true)
	eng.Run()
	for i, r := range *reqs {
		if !r.Done.Fired() {
			t.Fatalf("request %d of %d never delivered", i, len(*reqs))
		}
	}
	for s := 0; s < streams; s++ {
		if got := c.Init(0).Sequencer().Stream(s).FullyDone(); got != groups {
			t.Fatalf("stream %d fully-done = %d, want %d", s, got, groups)
		}
	}
	if v := c.OrderAudit(); v != 0 {
		t.Fatalf("order audit: %d violations", v)
	}
	for _, m := range c.SetMembers(0) {
		if v := c.Target(m).GateAudit(); v != 0 {
			t.Fatalf("member %d gate audit: %d violations", m, v)
		}
	}
	mediaIdentical(t, c)
	var acks, msgs int64
	for _, m := range c.SetMembers(0)[1:] {
		acks += c.Target(m).Stats().RelayAcks
		msgs += c.Target(m).Stats().RelayAckMsgs
	}
	if msgs == 0 || acks <= msgs {
		t.Fatalf("followers posted %d ack capsules for %d relayed completions: not coalesced", msgs, acks)
	}
	t.Logf("%d relayed completions in %d ack capsules", acks, msgs)
}

// TestRelayChargeLedger holds every member of a relay set to the cost
// model exactly, in TestTargetChargeLedger's style: a plugged batch of n
// writes is one head capsule, forwarded once per follower (a PostMsg at
// the head); each member runs one burst and n completions; a follower pays
// one PostMsg per ack capsule and posts no response of its own, and the
// head pays one RecvMsg per ack capsule it receives.
func TestRelayChargeLedger(t *testing.T) {
	for _, n := range []int{1, 4} {
		eng := sim.New(1)
		cfg := relayConfig(3)
		cfg.Streams, cfg.QPs = 1, 1
		c := New(eng, cfg)
		in := c.Init(0)
		eng.Go("app", func(p *sim.Proc) {
			reqs := make([]*blockdev.Request, n)
			in.StartPlug(0)
			for i := range reqs {
				reqs[i] = in.OrderedWrite(p, 0, uint64(8*i), 1, 0, nil, true, false, false)
			}
			in.FinishPlug(p, 0)
			for _, r := range reqs {
				in.Wait(p, r)
			}
		})
		eng.Run()
		members := c.SetMembers(0)
		var ackMsgs int64
		for _, m := range members[1:] {
			ackMsgs += c.Target(m).Stats().RelayAckMsgs
		}
		k := cfg.Costs
		for i, m := range members {
			tgt := c.Target(m)
			st := tgt.Stats()
			if st.Capsules != 1 || st.Commands != int64(n) || st.PMRAppends != int64(n) || st.PMRToggles != int64(n) || st.Holdbacks != 0 {
				t.Fatalf("n=%d member %d: %+v, want one capsule of %d commands, each appended and toggled once", n, m, st, n)
			}
			want := k.RecvMsg + sim.Time(n)*(k.CmdProcess+k.PMRAppendCPU) + tgt.SSD(0).PMRWriteLat() +
				sim.Time(n)*(k.CplHandle+k.PMRToggleCPU) + sim.Time(st.Responses)*k.PostMsg
			if i == 0 {
				if st.Relays != int64(len(members)-1) {
					t.Fatalf("n=%d: head forwarded %d capsules, want %d", n, st.Relays, len(members)-1)
				}
				want += sim.Time(st.Relays)*k.PostMsg + sim.Time(ackMsgs)*k.RecvMsg
			} else {
				if st.Responses != 0 || st.RelayAcks != int64(n) || st.RelayAckMsgs == 0 || st.RelayAckMsgs > st.RelayAcks {
					t.Fatalf("n=%d follower %d: %d responses, %d acks in %d capsules; want every completion acked to the head", n, m, st.Responses, st.RelayAcks, st.RelayAckMsgs)
				}
				want += sim.Time(st.RelayAckMsgs) * k.PostMsg
			}
			if got := tgt.cores.BusyTime(); got != want {
				t.Errorf("n=%d member %d: busy %v, want %v (%d responses, %d relays, %d ack capsules)", n, m, got, want, st.Responses, st.Relays, st.RelayAckMsgs)
			}
		}
		eng.Shutdown()
	}
}

// TestRelayHeadCutDropsPendingAcks cuts the head while a follower's ack
// capsule is still coalescing. The cut clears the capsule and the lane's
// held count: no buffered ack may reach a later head incarnation. The
// commands it held, past the gate and out of the follower's in-flight
// table, are acked directly by the re-ask: every write is delivered
// exactly once and lands once on each survivor. On a 2-way set every
// command needs both acks, so an ack whose command completes ahead of an
// older one of its stream is held (commit): that row busies a media
// channel of the follower so completions overtake, and cuts once the
// follower holds an ack.
func TestRelayHeadCutDropsPendingAcks(t *testing.T) {
	for _, row := range []struct {
		replicas int
		held     bool // busy a follower's channel 0 and cut once it holds an ack
	}{{3, false}, {2, true}} {
		t.Run(fmt.Sprintf("r%d", row.replicas), func(t *testing.T) {
			eng := sim.New(24)
			c := New(eng, relayConfig(row.replicas))
			defer eng.Shutdown()
			followers := c.SetMembers(0)[1:]
			if row.held {
				// Four media writes of no stream (LBA mod 7 = 0).
				for i := range 4 {
					c.Target(followers[0]).SSD(0).Submit(&ssd.Command{Op: ssd.OpWrite, LBA: uint64(7000 + 7*i), Blocks: 1, Stamps: []uint64{1}, Done: func(*ssd.Command) {}})
				}
			}
			const groups = 60
			reqs := headCutTraffic(eng, c, groups, true)
			pending := func() (acks, held int) {
				for _, m := range followers {
					out := &c.targets[m].relay.out
					acks, held = acks+len(out.acks), held+out.held
				}
				return acks, held
			}
			ready := func() bool {
				acks, held := pending()
				return acks > 0 && (held > 0 || !row.held)
			}
			at := sim.Time(0)
			for !ready() {
				if at += 100; at > 100*sim.Microsecond {
					t.Fatalf("no follower ever held a pending ack capsule (held=%v)", row.held)
				}
				eng.RunUntil(at)
			}
			buffered, held := pending()
			head := c.SetMembers(0)[0]
			c.PowerCutTarget(head)
			if acks, held := pending(); acks != 0 || held != 0 {
				t.Fatalf("%d buffered acks (%d held) survived the head cut", acks, held)
			}
			eng.Run()
			if c.writeQuorum > len(followers) {
				// The survivors alone are no write quorum: the writes wait
				// for the head to rejoin.
				eng.Go("recover", func(p *sim.Proc) { c.RecoverTarget(p, head) })
				eng.Run()
			}
			t.Logf("head cut at %v with %d acks buffered, %d held", at, buffered, held)
			for i, r := range *reqs {
				if !r.Done.Fired() {
					t.Fatalf("request %d of %d stalled after the head cut", i, len(*reqs))
				}
			}
			if got := c.Init(0).Stats().Completed; got != int64(len(*reqs)) {
				t.Fatalf("%d deliveries for %d requests", got, len(*reqs))
			}
			for _, m := range followers {
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
		})
	}
}
