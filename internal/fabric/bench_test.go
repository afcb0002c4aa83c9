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
