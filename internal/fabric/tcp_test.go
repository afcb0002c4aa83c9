package fabric

import (
	"testing"

	"repro/internal/sim"
)

func TestTCPConfigShape(t *testing.T) {
	rdma := DefaultConfig(8)
	tcp := TCPConfig(8)
	if tcp.BytesPerNs >= rdma.BytesPerNs {
		t.Error("TCP bandwidth should be below the 200G RDMA port")
	}
	if tcp.PropDelay <= rdma.PropDelay {
		t.Error("TCP latency should exceed RDMA")
	}
	if tcp.NumQPs != 8 {
		t.Errorf("NumQPs = %d", tcp.NumQPs)
	}
}

// The in-order property per connection must hold on the TCP profile too —
// it is what lets Rio's Principle 2 carry over (§4.5).
func TestTCPPerConnectionFIFO(t *testing.T) {
	e := sim.New(9)
	c := NewConn(e, TCPConfig(4))
	delivered := map[int][]int{}
	c.SetHandler(Target, func(m Message) {
		pair := m.Payload.([2]int)
		delivered[pair[0]] = append(delivered[pair[0]], pair[1])
	})
	e.At(0, func() {
		for i := 0; i < 120; i++ {
			conn := i % 4
			c.Send(Initiator, Message{QP: conn, Size: 4096, Payload: [2]int{conn, i}})
		}
	})
	e.Run()
	total := 0
	for conn, seq := range delivered {
		total += len(seq)
		for i := 1; i < len(seq); i++ {
			if seq[i] < seq[i-1] {
				t.Fatalf("connection %d delivered out of order: %v", conn, seq)
			}
		}
	}
	if total != 120 {
		t.Fatalf("delivered %d of 120", total)
	}
	e.Shutdown()
}

func TestHandlerlessDeliveryIsSafe(t *testing.T) {
	e := sim.New(1)
	c := NewConn(e, testCfg(1))
	// No handler registered: delivery must not panic.
	e.At(0, func() { c.Send(Initiator, Message{QP: 0, Size: 64}) })
	e.Run()
	e.Shutdown()
}

func TestStatsAccounting(t *testing.T) {
	e := sim.New(1)
	c := NewConn(e, testCfg(2))
	c.SetHandler(Target, func(Message) {})
	e.At(0, func() {
		c.Send(Initiator, Message{QP: 0, Size: 100})
		c.Send(Initiator, Message{QP: 1, Size: 200})
	})
	e.Go("t", func(p *sim.Proc) { c.BulkRead(p, new(Transfer), Target, 5000) })
	e.Run()
	st := c.Stats(Target)
	if st.Sends != 2 || st.SendBytes != 300 {
		t.Fatalf("send stats = %+v", st)
	}
	if st.BulkOps != 1 || st.BulkBytes != 5000 {
		t.Fatalf("bulk stats = %+v", st)
	}
	e.Shutdown()
}
