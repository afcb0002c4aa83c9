package stack

import (
	"reflect"
	"testing"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/trace"
)

// volatileLaneFields calls fn for every field of l that a reset must zero
// — all but the lane's identity — by reflection, so the test below covers
// fields added later.
func volatileLaneFields(l *qpLane, fn func(name string, v reflect.Value)) {
	v := reflect.ValueOf(l).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch name := v.Type().Field(i).Name; name {
		case "t", "init", "qp", "rxQ": // identity: survives a reset
		default:
			fn(name, v.Field(i))
		}
	}
}

// TestPowerCutInitiatorResetsItsLanesOnly: an initiator power cut must
// leave nothing of the dead incarnation in its lanes at any target — no
// queued capsule, pending entry, resolution record, armed flag, in-flight
// count or watermark ask — while a
// peer initiator's lanes on the same targets are not touched.
func TestPowerCutInitiatorResetsItsLanesOnly(t *testing.T) {
	eng := sim.New(5)
	cfg := relayConfig(3)
	cfg.Initiators = 2
	cfg.Trace = trace.Config{SampleEvery: 1}
	c := New(eng, cfg)
	defer eng.Shutdown()
	eng.RunUntil(sim.Microsecond) // a batch's age stamp must be non-zero to show it was cleared

	// Dirty every field of every lane of both initiators, white-box: the
	// hot path fills them in combinations that depend on timing, and the
	// claim is about reset, not about how the state got there.
	peer := map[*qpLane]qpLane{}
	for _, tg := range c.targets {
		for k := range tg.lanes {
			l := &tg.lanes[k]
			l.rxQ.Push(&capsule{})
			l.push(cplEntry{init: l.init, qp: l.qp, id: uint64(100 + l.qp), epoch: 3, members: 3, wait: 9})
			l.resolved = append(l.resolved, aggResolved{id: 7, member: 1})
			l.armed, l.inflight, l.askRetires, l.held = true, 4, true, 1
			volatileLaneFields(l, func(name string, v reflect.Value) {
				if v.IsZero() {
					t.Fatalf("lane field %s left clean by the test: dirty it above", name)
				}
			})
			if l.init == 1 {
				peer[l] = *l
			}
		}
	}

	c.PowerCutInitiator(0)

	for _, tg := range c.targets {
		for k := range tg.lanes {
			l := &tg.lanes[k]
			if l.init == 1 {
				if !reflect.DeepEqual(*l, peer[l]) || l.rxQ.Len() != 1 {
					t.Errorf("target %d: peer lane (1,%d) changed: %+v -> %+v", tg.id, l.qp, peer[l], *l)
				}
				continue
			}
			volatileLaneFields(l, func(name string, v reflect.Value) {
				if !v.IsZero() {
					t.Errorf("target %d lane (0,%d): %s = %v after the cut, want zero", tg.id, l.qp, name, v)
				}
			})
			if l.rxQ.Len() != 0 {
				t.Errorf("target %d lane (0,%d): %d capsules still queued after the cut", tg.id, l.qp, l.rxQ.Len())
			}
			if l.t != tg || l.init != 0 || l.qp != k%cfg.QPs || l.rxQ == nil {
				t.Errorf("target %d lane %d lost its identity: %+v", tg.id, k, l)
			}
		}
	}
}

// TestHeldCQEShipsWithItsCommit: one stream on one QP, two ordered writes
// in one capsule. The older lands behind a busy media channel on every
// member, so the younger completes first: its CQE cannot commit before the
// older one's, so it is held — it arms no hold timer — and ships in one
// response capsule with the older one's. That holds for R = 1 and for a
// direct-route 3-way set, whose majority quorum is held like any other.
// With stream affinity off the same traffic keeps the hold timer: the
// younger ships alone once it is CQEHold old, at the instants the rule was
// introduced under.
func TestHeldCQEShipsWithItsCommit(t *testing.T) {
	run := func(replicas int, affinity bool) (st []TargetStats, armed bool, at [4]sim.Time) {
		eng := sim.New(1)
		defer eng.Shutdown()
		targets := make([]TargetConfig, replicas)
		for i := range targets {
			targets[i] = OptaneTarget()
		}
		cfg := DefaultConfig(ModeRio, targets...)
		cfg.Replicas = replicas
		cfg.Streams, cfg.QPs = 1, 1
		cfg.StreamAffinity = affinity
		c := New(eng, cfg)
		in := c.Init(0)
		for i := range targets {
			tgt := c.Target(i)
			// Channel 0 (LBA mod 7) is busy for two media writes of no stream.
			for _, lba := range []uint64{7000, 7007} {
				tgt.SSD(0).Submit(&ssd.Command{Op: ssd.OpWrite, LBA: lba, Blocks: 1, Stamps: []uint64{1}, Done: func(*ssd.Command) {}})
			}
			// Watch the lane's hold timer every 100 ns (read-only probes).
			for ts := sim.Time(0); ts < 60*sim.Microsecond; ts += 100 {
				eng.At(ts, func() { armed = armed || tgt.lane(0, 0).armed })
			}
		}
		var reqs [2]*blockdev.Request
		eng.Go("app", func(p *sim.Proc) {
			in.StartPlug(0)
			reqs[0] = in.OrderedWrite(p, 0, 0, 1, 0, nil, true, false, false) // channel 0
			reqs[1] = in.OrderedWrite(p, 0, 8, 1, 0, nil, true, false, false) // channel 1
			in.FinishPlug(p, 0)
			for _, r := range reqs {
				in.Wait(p, r)
			}
		})
		eng.Run()
		for i, r := range reqs {
			at[2*i], at[2*i+1] = r.CompleteAt, r.DeliverAt
		}
		for i := range targets {
			st = append(st, c.Target(i).Stats())
		}
		return st, armed, at
	}

	for _, replicas := range []int{1, 3} {
		sts, armed, at := run(replicas, true)
		if armed {
			t.Errorf("R=%d, affinity on: a hold timer armed, want none", replicas)
		}
		for i, st := range sts {
			if st.Commands != 2 || st.HeldCQEs != 1 || st.Responses != 1 || st.CQEs != 2 {
				t.Errorf("R=%d, affinity on, member %d: %d commands, %d held, %d CQEs in %d capsules; want 2, 1, 2 in 1",
					replicas, i, st.Commands, st.HeldCQEs, st.CQEs, st.Responses)
			}
		}
		if at[0] != at[2] {
			t.Errorf("R=%d, affinity on: completions at %v and %v, want one capsule's instant", replicas, at[0], at[2])
		}
	}

	sts, armed, at := run(1, false)
	if st := sts[0]; st.HeldCQEs != 0 || st.Responses != 2 || !armed {
		t.Fatalf("affinity off: %d held, %d capsules, hold timer armed %v; want 0, 2, true", st.HeldCQEs, st.Responses, armed)
	}
	// Completion and delivery of the older, then of the younger (which
	// completes on its own capsule and delivers behind the older).
	if want := [4]sim.Time{40605, 40605, 27091, 40605}; at != want {
		t.Errorf("affinity off: completed, delivered at %v, want %v", at, want)
	}
}
