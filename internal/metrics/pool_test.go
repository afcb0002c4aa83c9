package metrics

import "testing"

func TestPoolStats(t *testing.T) {
	var p PoolStats
	if p.HitRate() != 0 {
		t.Fatal("empty pool stats should report 0 hit rate")
	}
	for i := 0; i < 3; i++ {
		p.Hit()
	}
	p.Miss()
	if p.Gets() != 4 {
		t.Fatalf("gets = %d, want 4", p.Gets())
	}
	if got := p.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %g, want 0.75", got)
	}
	d := Delta(p, PoolStats{Hits: 1, Misses: 1})
	if d.Hits != 2 || d.Misses != 0 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestBatchStats(t *testing.T) {
	var b BatchStats
	if b.Occupancy() != 0 {
		t.Fatal("empty batch stats should report 0 occupancy")
	}
	b.Ring(4)
	b.Ring(2)
	if got := b.Occupancy(); got != 3 {
		t.Fatalf("occupancy = %g, want 3", got)
	}
	d := Delta(b, BatchStats{Rings: 1, Items: 4})
	if d.Rings != 1 || d.Items != 2 {
		t.Fatalf("delta = %+v", d)
	}
}

func TestMsgsPerOp(t *testing.T) {
	if got := MsgsPerOp(50, 100); got != 0.5 {
		t.Fatalf("msgs/op = %g, want 0.5 (coalesced direction)", got)
	}
	if got := MsgsPerOp(5, 0); got != 0 {
		t.Fatalf("msgs/op with 0 ops = %g, want 0", got)
	}
}
