package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testCfg(qps int) Config {
	return Config{BytesPerNs: 25, PropDelay: 1500, QPJitterMax: 2000, NumQPs: qps}
}

func TestSendDelivers(t *testing.T) {
	e := sim.New(1)
	c := NewConn(e, testCfg(1))
	var got []int
	var at sim.Time
	c.SetHandler(Target, func(m Message) {
		got = append(got, m.Payload.(int))
		at = e.Now()
	})
	e.At(0, func() { c.Send(Initiator, Message{QP: 0, Size: 64, Payload: 42}) })
	e.Run()
	if len(got) != 1 || got[0] != 42 {
		t.Fatalf("got = %v, want [42]", got)
	}
	// 64B at 25B/ns ≈ 2ns serialization + 1500ns prop (+ jitter ≤ 2000).
	if at < 1502 || at > 3502 {
		t.Fatalf("delivery at %v, want in [1502, 3502]", at)
	}
	if c.Stats(Target).Sends != 1 || c.Stats(Target).SendBytes != 64 {
		t.Fatalf("stats = %+v", c.Stats(Target))
	}
	e.Shutdown()
}

func TestPerQPInOrderDelivery(t *testing.T) {
	e := sim.New(7)
	c := NewConn(e, testCfg(4))
	delivered := map[int][]int{}
	c.SetHandler(Target, func(m Message) {
		pair := m.Payload.([2]int)
		delivered[pair[0]] = append(delivered[pair[0]], pair[1])
	})
	e.At(0, func() {
		for i := 0; i < 100; i++ {
			qp := i % 4
			c.Send(Initiator, Message{QP: qp, Size: 4096, Payload: [2]int{qp, i}})
		}
	})
	e.Run()
	total := 0
	for qp, seq := range delivered {
		total += len(seq)
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				t.Fatalf("QP %d delivered out of order: %v", qp, seq)
			}
		}
	}
	if total != 100 {
		t.Fatalf("delivered %d of 100", total)
	}
	e.Shutdown()
}

func TestCrossQPReorderingHappens(t *testing.T) {
	e := sim.New(3)
	c := NewConn(e, testCfg(8))
	var order []int
	c.SetHandler(Target, func(m Message) { order = append(order, m.Payload.(int)) })
	e.At(0, func() {
		for i := 0; i < 200; i++ {
			c.Send(Initiator, Message{QP: i % 8, Size: 256, Payload: i})
		}
	})
	e.Run()
	if len(order) != 200 {
		t.Fatalf("delivered %d of 200", len(order))
	}
	inversions := 0
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			inversions++
		}
	}
	if inversions == 0 {
		t.Fatal("expected cross-QP reordering with jitter, saw perfectly ordered delivery")
	}
	e.Shutdown()
}

func TestNoJitterNoReordering(t *testing.T) {
	e := sim.New(3)
	cfg := testCfg(8)
	cfg.QPJitterMax = 0
	c := NewConn(e, cfg)
	var order []int
	c.SetHandler(Target, func(m Message) { order = append(order, m.Payload.(int)) })
	e.At(0, func() {
		for i := 0; i < 100; i++ {
			c.Send(Initiator, Message{QP: i % 8, Size: 256, Payload: i})
		}
	})
	e.Run()
	for i := 1; i < len(order); i++ {
		if order[i] < order[i-1] {
			t.Fatalf("unexpected reordering without jitter at %d: %v", i, order[i-5:i+1])
		}
	}
	e.Shutdown()
}

func TestBandwidthSerialization(t *testing.T) {
	e := sim.New(1)
	cfg := testCfg(1)
	cfg.QPJitterMax = 0
	c := NewConn(e, cfg)
	n := 0
	var lastAt sim.Time
	c.SetHandler(Target, func(m Message) { n++; lastAt = e.Now() })
	const msgs, size = 100, 1 << 20 // 100 MB total
	e.At(0, func() {
		for i := 0; i < msgs; i++ {
			c.Send(Initiator, Message{QP: 0, Size: size})
		}
	})
	e.Run()
	if n != msgs {
		t.Fatalf("delivered %d of %d", n, msgs)
	}
	wireTime := sim.Time(float64(msgs*size) / cfg.BytesPerNs)
	if lastAt < wireTime {
		t.Fatalf("last delivery %v is faster than link bandwidth allows (%v)", lastAt, wireTime)
	}
	if lastAt > wireTime+cfg.PropDelay+sim.Time(msgs) {
		t.Fatalf("last delivery %v too slow vs %v", lastAt, wireTime+cfg.PropDelay)
	}
	e.Shutdown()
}

func TestBulkReadBlocksForTransfer(t *testing.T) {
	e := sim.New(1)
	c := NewConn(e, testCfg(1))
	var took sim.Time
	e.Go("target", func(p *sim.Proc) {
		start := p.Now()
		var tr Transfer
		if c.BulkRead(p, &tr, Target, 1<<20); !tr.OK() {
			t.Error("bulk read failed on healthy conn")
		}
		took = p.Now() - start
	})
	e.Run()
	minT := c.cfg.PropDelay + c.serialization(1<<20)
	if took < minT {
		t.Fatalf("bulk read took %v, want >= %v", took, minT)
	}
	if c.Stats(Target).BulkOps != 1 || c.Stats(Target).BulkBytes != 1<<20 {
		t.Fatalf("bulk stats = %+v", c.Stats(Target))
	}
	e.Shutdown()
}

func TestBulkWriteTowardRemote(t *testing.T) {
	e := sim.New(1)
	c := NewConn(e, testCfg(1))
	ok := false
	e.Go("init", func(p *sim.Proc) { ok = c.BulkWrite(p, Initiator, 4096) })
	e.Run()
	if !ok {
		t.Fatal("bulk write failed")
	}
	if c.Stats(Target).BulkBytes != 4096 {
		t.Fatalf("bulk bytes at target = %d, want 4096", c.Stats(Target).BulkBytes)
	}
	e.Shutdown()
}

func TestDisconnectDropsInflight(t *testing.T) {
	e := sim.New(1)
	c := NewConn(e, testCfg(2))
	delivered := 0
	c.SetHandler(Target, func(m Message) { delivered++ })
	e.At(0, func() {
		for i := 0; i < 50; i++ {
			c.Send(Initiator, Message{QP: i % 2, Size: 1 << 19}) // big: slow wire
		}
	})
	e.At(100, func() { c.Disconnect() })
	e.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d messages despite disconnect at t=100", delivered)
	}
	if c.Stats(Target).Dropped == 0 {
		t.Fatal("expected dropped messages")
	}
	// After reconnect, traffic flows again.
	c.Reconnect()
	e.At(0, func() { c.Send(Initiator, Message{QP: 0, Size: 64}) })
	e.Run()
	if delivered != 1 {
		t.Fatalf("delivered %d after reconnect, want 1", delivered)
	}
	e.Shutdown()
}

func TestSendWhileDownIsDropped(t *testing.T) {
	e := sim.New(1)
	c := NewConn(e, testCfg(1))
	c.Disconnect()
	delivered := 0
	c.SetHandler(Target, func(m Message) { delivered++ })
	e.At(0, func() { c.Send(Initiator, Message{QP: 0, Size: 64}) })
	e.Run()
	if delivered != 0 {
		t.Fatal("message delivered on downed connection")
	}
	e.Shutdown()
}

func TestBothDirectionsIndependent(t *testing.T) {
	e := sim.New(1)
	c := NewConn(e, testCfg(1))
	gotI, gotT := 0, 0
	c.SetHandler(Initiator, func(m Message) { gotI++ })
	c.SetHandler(Target, func(m Message) { gotT++ })
	e.At(0, func() {
		c.Send(Initiator, Message{QP: 0, Size: 64})
		c.Send(Target, Message{QP: 0, Size: 64})
	})
	e.Run()
	if gotI != 1 || gotT != 1 {
		t.Fatalf("gotI=%d gotT=%d, want 1/1", gotI, gotT)
	}
	e.Shutdown()
}

// Property: per-QP FIFO holds for any message mix, sizes and seeds.
func TestPerQPFIFOProperty(t *testing.T) {
	f := func(qpsRaw uint8, msgs []uint16, seed int64) bool {
		qps := int(qpsRaw%6) + 1
		if len(msgs) > 80 {
			msgs = msgs[:80]
		}
		e := sim.New(seed)
		c := NewConn(e, testCfg(qps))
		delivered := map[int][]int{}
		c.SetHandler(Target, func(m Message) {
			pair := m.Payload.([2]int)
			delivered[pair[0]] = append(delivered[pair[0]], pair[1])
		})
		e.At(0, func() {
			for i, raw := range msgs {
				qp := int(raw) % qps
				size := int(raw%4096) + 1
				c.Send(Initiator, Message{QP: qp, Size: size, Payload: [2]int{qp, i}})
			}
		})
		e.Run()
		e.Shutdown()
		n := 0
		for _, seq := range delivered {
			n += len(seq)
			for i := 1; i < len(seq); i++ {
				if seq[i] < seq[i-1] {
					return false
				}
			}
		}
		return n == len(msgs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
