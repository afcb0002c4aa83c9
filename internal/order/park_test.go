package order

import "testing"

// ParkAt/TakeNextAt/TakeAt carry the park instant through the gate so the stack
// can attribute gate-park time to traced requests; they must otherwise
// behave exactly like Park/TakeNext, including across Reset.
func TestParkAtTakeNextAt(t *testing.T) {
	var d Domain[string]
	d.initDomain(8)

	if !d.Admit(1) {
		t.Fatal("frontier must admit 1")
	}
	d.ParkAt(3, "c", 300)
	d.ParkAt(2, "b", 200)
	if _, _, ok := d.TakeNextAt(); ok {
		t.Fatal("nothing parked at frontier 1")
	}
	d.Advance(1)
	v, at, ok := d.TakeNextAt()
	if !ok || v != "b" || at != 200 {
		t.Fatalf("got %q@%d ok=%v, want b@200", v, at, ok)
	}
	d.Advance(2)
	v, at, ok = d.TakeNextAt()
	if !ok || v != "c" || at != 300 {
		t.Fatalf("got %q@%d ok=%v, want c@300", v, at, ok)
	}

	// Plain Park interleaves: instant reads back as 0.
	d.Advance(3)
	d.Park(5, "e")
	d.ParkAt(6, "f", 600)
	d.Advance(4)
	v, at, ok = d.TakeNextAt()
	if !ok || v != "e" || at != 0 {
		t.Fatalf("plain Park: got %q@%d ok=%v, want e@0", v, at, ok)
	}
	d.Advance(5)
	v, at, ok = d.TakeNextAt()
	if !ok || v != "f" || at != 600 {
		t.Fatalf("got %q@%d, want f@600", v, at)
	}

	d.ParkAt(8, "h", 800)
	d.Reset()
	if d.ParkedLen() != 0 || d.Frontier() != 1 {
		t.Fatal("reset did not clear parked state")
	}
	d.ParkAt(2, "z", 20)
	d.Advance(1)
	v, at, ok = d.TakeNextAt()
	if !ok || v != "z" || at != 20 {
		t.Fatalf("post-reset: got %q@%d, want z@20", v, at)
	}

	// TakeAt takes at an index ahead of the frontier, leaving the
	// frontier and every other parked command where they were.
	d.ParkAt(4, "d", 40)
	d.ParkAt(5, "e", 50)
	if v, at, ok = d.TakeAt(5); !ok || v != "e" || at != 50 || d.Frontier() != 2 || d.ParkedLen() != 1 {
		t.Fatalf("TakeAt(5): got %q@%d ok=%v, frontier %d, %d parked; want e@50, 2, 1", v, at, ok, d.Frontier(), d.ParkedLen())
	}
	if _, _, ok = d.TakeAt(5); ok {
		t.Fatal("TakeAt(5) took twice")
	}
}
