package stack

import (
	"reflect"
	"testing"

	"repro/internal/sim"
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
// queued capsule, pending CQE, trace stamp, aggregation annotation,
// resolution record, armed flag or in-flight count — while a
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
			l.push(uint64(100+l.qp), 3, aggCQE{members: []int{0, 1}, wait: 9})
			l.resolved = append(l.resolved, aggResolved{init: l.init, id: 7, member: 1})
			l.armed, l.inflight = true, 4
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
