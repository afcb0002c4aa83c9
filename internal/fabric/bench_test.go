package fabric

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkSendDeliver is one SEND from post to handler (`make
// bench-layers`): a sender paced at the link's message rate, so a bounded
// number of messages is in flight and delivery events are reused.
func BenchmarkSendDeliver(b *testing.B) {
	e := sim.New(1)
	defer e.Shutdown()
	c := NewConn(e, DefaultConfig(8))
	got := 0
	c.SetHandler(Target, func(Message) { got++ })
	e.Go("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			c.Send(Initiator, Message{QP: i % 8, Size: 64})
			p.Sleep(10)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
}

// BenchmarkSendDeliverTxDepth is the same SEND under backpressure: 4 KB
// messages against TxDepth 4 from a sender that calls WaitTxSpace and never
// paces itself, so it parks on a full TX queue and every message the link
// takes signals it — the openloop_knee shape.
func BenchmarkSendDeliverTxDepth(b *testing.B) {
	e := sim.New(1)
	defer e.Shutdown()
	cfg := DefaultConfig(8)
	cfg.TxDepth = 4
	c := NewConn(e, cfg)
	got := 0
	c.SetHandler(Target, func(Message) { got++ })
	e.Go("sender", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			var tw TxWait
			c.WaitTxSpace(p, &tw, Initiator)
			c.Send(Initiator, Message{QP: i % 8, Size: 4096})
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	if got != b.N {
		b.Fatalf("delivered %d of %d", got, b.N)
	}
	if b.N > 100 && c.Stats(Target).TxStalls == 0 {
		b.Fatal("the sender never stalled on the TX queue")
	}
}
