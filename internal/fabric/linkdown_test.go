package fabric

import (
	"runtime"
	"testing"

	"repro/internal/sim"
)

// Link-down edge cases: what a replica power cut leans on. A message
// sent in the Disconnect..Reconnect window must be dropped WHOLE — no
// late delivery after Reconnect, no handler invocation, counted exactly
// once — and a queue pair's FIFO property must hold across a reconnect
// for the messages that were actually delivered.

// poisonedConn is NewConn with the recycle hook on: every test in this
// file disconnects with items queued, serializing or scheduled for
// delivery, and a delivery event the engine runs after it was recycled then
// panics.
func poisonedConn(e *sim.Engine, cfg Config) *Conn {
	c := NewConn(e, cfg)
	c.poison = true
	return c
}

// The hook must catch what it is there for: a delivery event that reaches
// the engine a second time after it fired and went back to the free list.
func TestPoisonCatchesRecycledDelivery(t *testing.T) {
	e := sim.New(1)
	c := poisonedConn(e, testCfg(1))
	got := 0
	c.SetHandler(Target, func(Message) { got++ })
	d := &delivery{c: c, it: wireItem{msg: Message{Size: 64}, to: Target}}
	d.Run()
	defer func() {
		if recover() == nil || got != 1 {
			t.Errorf("second run of a fired delivery: no panic (delivered %d times)", got)
		}
		e.Shutdown()
	}()
	d.Run()
}

func TestSendsBetweenDisconnectAndReconnectDroppedWhole(t *testing.T) {
	e := sim.New(7)
	c := poisonedConn(e, testCfg(2))
	var delivered []int
	c.SetHandler(Target, func(m Message) { delivered = append(delivered, m.Payload.(int)) })

	// Phase 1: live traffic, fully delivered.
	e.At(0, func() {
		c.Send(Initiator, Message{QP: 0, Size: 64, Payload: 1})
		c.Send(Initiator, Message{QP: 1, Size: 64, Payload: 2})
	})
	e.Run()
	if len(delivered) != 2 {
		t.Fatalf("live phase delivered %d, want 2", len(delivered))
	}

	// Phase 2: the window. Every send between Disconnect and Reconnect
	// dies, whatever its QP, size or spacing — and dies whole: nothing
	// may surface after the reconnect either.
	c.Disconnect()
	droppedBefore := c.Stats(Target).Dropped
	e.At(0, func() {
		c.Send(Initiator, Message{QP: 0, Size: 64, Payload: 100})
		c.Send(Initiator, Message{QP: 1, Size: 1 << 18, Payload: 101})
	})
	e.At(50, func() { c.Send(Initiator, Message{QP: 0, Size: 64, Payload: 102}) })
	e.Run()
	c.Reconnect()
	e.At(0, func() { c.Send(Initiator, Message{QP: 0, Size: 64, Payload: 3}) })
	e.Run()

	for _, p := range delivered {
		if p >= 100 {
			t.Fatalf("message %d sent while down surfaced after reconnect", p)
		}
	}
	if got := c.Stats(Target).Dropped - droppedBefore; got != 3 {
		t.Fatalf("window sends counted dropped = %d, want 3 (each exactly once)", got)
	}
	if delivered[len(delivered)-1] != 3 {
		t.Fatalf("post-reconnect message lost: %v", delivered)
	}
	e.Shutdown()
}

func TestPerQPFIFOPreservedAcrossReconnect(t *testing.T) {
	e := sim.New(9)
	cfg := testCfg(2)
	cfg.QPJitterMax = 3000 // stress the per-QP ordering clamp
	c := poisonedConn(e, cfg)
	got := map[int][]int{}
	c.SetHandler(Target, func(m Message) {
		pair := m.Payload.([2]int)
		got[pair[0]] = append(got[pair[0]], pair[1])
	})

	// Epoch A: interleaved traffic on both QPs.
	e.At(0, func() {
		for i := 0; i < 20; i++ {
			c.Send(Initiator, Message{QP: i % 2, Size: 256, Payload: [2]int{i % 2, i}})
		}
	})
	e.Run()

	// Cut and reconnect: QP delivery clocks reset, a fresh epoch begins.
	c.Disconnect()
	c.Reconnect()

	// Epoch B: more traffic on the same QPs, tagged beyond epoch A.
	e.At(0, func() {
		for i := 100; i < 120; i++ {
			c.Send(Initiator, Message{QP: i % 2, Size: 256, Payload: [2]int{i % 2, i}})
		}
	})
	e.Run()

	// Within each QP, every delivered message must be in send order —
	// including across the reconnect boundary (epoch A strictly before
	// epoch B, monotone within each).
	for qp, seq := range got {
		for i := 1; i < len(seq); i++ {
			if seq[i] <= seq[i-1] {
				t.Fatalf("QP %d delivery out of FIFO order across reconnect: %v", qp, seq)
			}
		}
	}
	if len(got[0]) != 20 || len(got[1]) != 20 {
		t.Fatalf("delivered %d/%d per QP, want 20/20 (nothing sent while up may vanish)",
			len(got[0]), len(got[1]))
	}
	e.Shutdown()
}

// TestRelayLinkPrefixProperty is the contract the replication relay
// path's head-cut re-ask leans on: on a target-to-target link carrying
// relayed capsules (numbered per QP by this test), drop-whole semantics
// plus per-QP FIFO mean that after a Disconnect..Reconnect window what a
// receiver saw on each QP is an EXACT PREFIX of what was sent before the
// cut — no holes and no stragglers: what the cut did not deliver never
// arrives later, so a follower's "I do not hold it" is final.
func TestRelayLinkPrefixProperty(t *testing.T) {
	e := sim.New(13)
	cfg := testCfg(3)
	cfg.QPJitterMax = 3000
	c := poisonedConn(e, cfg)
	seen := map[int][]uint64{} // QP -> relaySeq delivery order
	c.SetHandler(Target, func(m Message) {
		pair := m.Payload.([2]uint64)
		qp := int(pair[0])
		seen[qp] = append(seen[qp], pair[1])
	})

	// Head relays sequence-numbered capsules on three QPs; the link dies
	// mid-stream with traffic still queued.
	next := make([]uint64, 3)
	for i := 0; i < 30; i++ {
		qp := i % 3
		next[qp]++
		seq := next[qp]
		e.At(sim.Time(i)*100, func() {
			c.Send(Initiator, Message{QP: qp, Size: 512, Payload: [2]uint64{uint64(qp), seq}})
		})
	}
	e.At(1500, func() { c.Disconnect() })
	e.Run()
	c.Reconnect()

	// Per QP: whatever arrived must be exactly 1..max(seen), in order.
	for qp := 0; qp < 3; qp++ {
		seqs := seen[qp]
		for i, s := range seqs {
			if s != uint64(i+1) {
				t.Fatalf("QP %d received %v: not an exact prefix (hole or reorder at %d)", qp, seqs, i)
			}
		}
		if len(seqs) == int(next[qp]) {
			t.Fatalf("QP %d: disconnect at 1500 dropped nothing, schedule does not exercise the window", qp)
		}
	}

	// Post-reconnect traffic resumes with fresh FIFO state and no replay
	// of the dropped suffix.
	e.At(0, func() {
		c.Send(Initiator, Message{QP: 0, Size: 512, Payload: [2]uint64{0, 1000}})
	})
	e.Run()
	last := seen[0][len(seen[0])-1]
	if last != 1000 {
		t.Fatalf("post-reconnect send did not arrive last on QP 0: tail %d", last)
	}
	e.Shutdown()
}

func TestDisconnectDuringBulkTransferFails(t *testing.T) {
	e := sim.New(11)
	c := poisonedConn(e, testCfg(1))
	var ok bool
	var returned bool
	e.Go("reader", func(p *sim.Proc) {
		// Huge transfer: the disconnect lands mid-flight and the one-sided
		// READ must report failure rather than hang or succeed.
		ok = c.BulkRead(p, Target, 1<<22)
		returned = true
	})
	e.At(10, func() { c.Disconnect() })
	e.Run()
	if !returned {
		t.Fatal("BulkRead hung across a disconnect")
	}
	if ok {
		t.Fatal("BulkRead reported success despite mid-transfer disconnect")
	}
	e.Shutdown()
}

// TestDisconnectReleasesBulkTransfers: a process blocked in a one-sided
// transfer when the link drops must get its call back, reporting failure —
// whether the transfer was queued behind other traffic, on the wire, or in
// propagation. A reader left waiting never runs again (at a target, that is
// a receive worker, and with it a queue pair, lost for good).
func TestDisconnectReleasesBulkTransfers(t *testing.T) {
	type result struct {
		ok bool
		at sim.Time
	}
	for _, cutAt := range []sim.Time{100, 15_000, 30_000, 44_000} {
		e := sim.New(1)
		c := poisonedConn(e, testCfg(2))
		// ~21 µs of wire ahead of the READ's data; the WRITE has the other
		// direction to itself.
		e.At(0, func() { c.Send(Initiator, Message{QP: 0, Size: 1 << 19}) })
		results := map[string]result{}
		e.Go("reader", func(p *sim.Proc) { results["read"] = result{c.BulkRead(p, Target, 1<<19), p.Now()} })
		e.Go("writer", func(p *sim.Proc) { results["write"] = result{c.BulkWrite(p, Target, 1<<19), p.Now()} })
		e.At(cutAt, func() { c.Disconnect() })
		e.Run()
		for _, op := range []string{"read", "write"} {
			r, returned := results[op]
			switch {
			case !returned:
				t.Errorf("cut at %v: bulk %s never returned", cutAt, op)
			case r.ok && r.at > cutAt:
				t.Errorf("cut at %v: bulk %s reported success at %v, across the disconnect", cutAt, op, r.at)
			case !r.ok && r.at < cutAt:
				t.Errorf("cut at %v: bulk %s failed at %v on a healthy link", cutAt, op, r.at)
			}
		}
		e.Shutdown()
	}
}

// A message half serialized when the link drops is not in the TX queue any
// more: Disconnect drops what still waits, and the one on the wire is
// dropped when its last byte would have left — by the link's own epoch
// check, whether or not the connection is back up by then — and holds the
// link until that moment.
func TestDisconnectDropsMessageOnTheWireWhenItFinishes(t *testing.T) {
	e := sim.New(1)
	c := poisonedConn(e, testCfg(1))
	var delivered []int
	var deliveredAt sim.Time
	c.SetHandler(Target, func(m Message) {
		delivered = append(delivered, m.Payload.(int))
		deliveredAt = e.Now()
	})
	const wire = (1 << 19) / 25 // ns per message
	e.At(0, func() {
		c.Send(Initiator, Message{Size: 1 << 19, Payload: 1}) // on the wire at the cut
		c.Send(Initiator, Message{Size: 1 << 19, Payload: 2}) // queued behind it
	})
	var atCut, atReconnect int64
	e.At(wire/2, func() {
		c.Disconnect()
		atCut = c.Stats(Target).Dropped
	})
	e.At(wire/2+100, func() {
		c.Reconnect()
		atReconnect = c.Stats(Target).Dropped
		c.Send(Initiator, Message{Size: 64, Payload: 3})
	})
	e.Run()
	if atCut != 1 || atReconnect != 1 || c.Stats(Target).Dropped != 2 {
		t.Errorf("dropped %d at the cut, %d at reconnect, %d in the end; want 1 (queued), 1, 2 (+ the one on the wire)",
			atCut, atReconnect, c.Stats(Target).Dropped)
	}
	if len(delivered) != 1 || delivered[0] != 3 {
		t.Fatalf("delivered %v, want only the post-reconnect message", delivered)
	}
	if deliveredAt < wire+1500 {
		t.Errorf("post-reconnect message delivered at %v: it overtook the stale one still on the wire until %v", deliveredAt, sim.Time(wire))
	}
	e.Shutdown()
}

// A link direction is a sim.Server, not a process: a connection creates no
// coroutine and its traffic resumes none.
func TestConnOwnsNoProc(t *testing.T) {
	base := runtime.NumGoroutine()
	e := sim.New(1)
	c := NewConn(e, testCfg(2))
	got := 0
	c.SetHandler(Target, func(Message) { got++ })
	c.SetHandler(Initiator, func(Message) { got++ })
	for i := 0; i < 10; i++ {
		e.At(sim.Time(i)*100, func() {
			c.Send(Initiator, Message{QP: i % 2, Size: 4096})
			c.Send(Target, Message{QP: i % 2, Size: 16})
		})
	}
	e.Run()
	if _, resumes := e.Counts(); got != 20 || resumes != 0 {
		t.Errorf("delivered %d of 20 messages with %d proc resumes, want 0", got, resumes)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("NewConn + traffic left %d goroutines, started with %d", n, base)
	}
	e.Shutdown()
}
