package stack

import (
	"reflect"
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

// TestRelayHeadCutMidBatch is the relay route's crash core: power-cutting
// the HEAD while forwarded capsules and buffered acks are in flight loses
// no completion and duplicates none. The initiator posts exactly the
// un-received (command, follower) capsules direct to survivors (relaySeq
// vs the received prefix), each byte-equal to what the direct route sends
// for that (command, member); survivors flush their unconfirmed acks
// direct, and the degraded set keeps completing at quorum.
func TestRelayHeadCutMidBatch(t *testing.T) {
	eng := sim.New(24)
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

	// At the cut instant, before the cut, work out from the commands'
	// replication state — not from the builder — what the direct route
	// sends each follower that has not received a command's forwarded
	// capsule: the member's SQE as a one-command batch, its attribute
	// chain, and a retire watermark no older than the one held now.
	type pair struct {
		id     uint64
		member int
	}
	type memberSlice struct {
		sqe   nvmeof.SQE
		attrs []core.Attr
		mark  uint64
	}
	in := c.Init(0)
	want := map[pair]memberSlice{}
	relayedAtCut := map[uint64]bool{}
	eng.At(60*sim.Microsecond, func() {
		for _, ws := range in.outstandingOfSet(0) {
			if ws.relaySeq == 0 {
				continue
			}
			relayedAtCut[ws.id] = true
			for k, m := range ws.q.Members {
				if k == 0 || ws.q.Resolved[k] || ws.relaySeq <= c.targets[m].lane(0, ws.qp).seen {
					continue
				}
				sqe := ws.chain[k].sqe
				sqe.MarkVector(0, 1)
				want[pair{ws.id, m}] = memberSlice{
					sqe:   sqe,
					attrs: append([]core.Attr(nil), ws.chain[k].attrs...),
					mark:  in.retireMarkAt(ws.stream, m),
				}
			}
		}
		c.PowerCutTarget(0) // the head
	})
	// Every capsule a survivor receives straight from the initiator for a
	// command that was on the relay route at the cut is a re-post.
	got := map[pair]bool{}
	for _, m := range []int{1, 2} {
		m, tgt := m, c.targets[m]
		tgt.conns[0].SetHandler(fabric.Target, func(msg fabric.Message) {
			cp := msg.Payload.(*capsule)
			if relayedAtCut[cp.cmds[0].id] {
				ws := cp.cmds[0]
				exp, ok := want[pair{ws.id, m}]
				switch {
				case !ok:
					t.Errorf("cmd %d re-posted to member %d, which had received it", ws.id, m)
				case got[pair{ws.id, m}]:
					t.Errorf("cmd %d re-posted to member %d twice", ws.id, m)
				case len(cp.cmds) != 1 || cp.member != m || cp.relayed || cp.forward != nil:
					t.Errorf("cmd %d member %d: re-post is not a one-command direct capsule: %+v", ws.id, m, cp)
				case ws.chain[ws.q.Pos(m)].sqe != exp.sqe:
					t.Errorf("cmd %d member %d: re-posted SQE differs from the direct route's", ws.id, m)
				case !reflect.DeepEqual(ws.chain[ws.q.Pos(m)].attrs, exp.attrs):
					t.Errorf("cmd %d member %d: re-posted attrs %+v, direct route sends %+v", ws.id, m, ws.chain[ws.q.Pos(m)].attrs, exp.attrs)
				}
				now := in.retireMarkAt(ws.stream, m)
				if now == 0 && cp.retires != nil {
					t.Errorf("cmd %d member %d: retire mark %+v with no watermark held", ws.id, m, cp.retires)
				}
				if now > 0 && (len(cp.retires) != 1 || int(cp.retires[0].stream) != ws.stream ||
					cp.retires[0].upTo < exp.mark || cp.retires[0].upTo > now) {
					t.Errorf("cmd %d member %d: retire marks %+v, direct route sends stream %d upTo in [%d, %d]",
						ws.id, m, cp.retires, ws.stream, exp.mark, now)
				}
				got[pair{ws.id, m}] = true
			}
			tgt.recvCapsule(0, msg.QP, cp)
		})
	}
	eng.Run()

	if len(want) == 0 {
		t.Fatal("no forwarded capsule was in flight at the head cut: the schedule exercises no re-post")
	}
	t.Logf("re-posts checked: %d of %d commands on the relay route at the cut", len(want), len(relayedAtCut))
	for k := range want {
		if !got[k] {
			t.Errorf("cmd %d never re-posted to member %d, which had not received it", k.id, k.member)
		}
	}
	if c.InSync(0) {
		t.Fatal("cut head still marked in sync")
	}
	undelivered := 0
	for _, r := range reqs {
		if !r.Done.Fired() {
			undelivered++
		}
	}
	if undelivered != 0 {
		t.Fatalf("%d of %d requests stalled after the head cut", undelivered, len(reqs))
	}
	// Zero duplicates / zero losses: every stream's fully-done watermark
	// is exactly the submitted group count.
	for s := 0; s < streams; s++ {
		if c.Init(0).Sequencer().Stream(s).FullyDone() != uint64(groups) {
			t.Fatalf("stream %d fully-done = %d, want %d", s, c.Init(0).Sequencer().Stream(s).FullyDone(), groups)
		}
	}
	for _, m := range []int{1, 2} {
		if v := c.Target(m).GateAudit(); v != 0 {
			t.Fatalf("survivor %d gate audit: %d violations", m, v)
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
			lba := uint64(900000 + g)
			r := c.Init(0).OrderedWrite(p, 0, lba, 1, 0, nil, true, false, false)
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
