package order

import "testing"

// TestParkTake drives the gate's take API: TakeNext takes at the frontier
// only, TakeAt takes ahead of it without moving the frontier or any other
// parked command, and an index is taken once, however it is asked for —
// including across Reset.
func TestParkTake(t *testing.T) {
	var d Domain[string]
	d.initDomain(8)

	d.Park(3, "c")
	d.Park(2, "b")
	if _, ok := d.TakeNext(); ok {
		t.Fatal("TakeNext took with nothing parked at frontier 1")
	}
	d.Advance(1)
	if v, ok := d.TakeNext(); !ok || v != "b" {
		t.Fatalf("TakeNext at frontier 2: got %q ok=%v, want b", v, ok)
	}
	if _, ok := d.TakeAt(2); ok {
		t.Fatal("TakeAt(2) took an index TakeNext already took")
	}

	// Ahead of the frontier: 3 is the next one, 5 is two past it.
	d.Park(5, "e")
	if v, ok := d.TakeAt(5); !ok || v != "e" || d.Frontier() != 2 || d.ParkedLen() != 1 {
		t.Fatalf("TakeAt(5): got %q ok=%v, frontier %d, %d parked; want e, 2, 1", v, ok, d.Frontier(), d.ParkedLen())
	}
	if _, ok := d.TakeAt(5); ok {
		t.Fatal("TakeAt(5) took twice")
	}
	if _, ok := d.TakeAt(4); ok {
		t.Fatal("TakeAt(4) took an index never parked")
	}
	d.Advance(2)
	if v, ok := d.TakeNext(); !ok || v != "c" {
		t.Fatalf("TakeNext at frontier 3: got %q ok=%v, want c", v, ok)
	}
	if _, ok := d.TakeNext(); ok {
		t.Fatal("TakeNext took twice at one frontier")
	}

	// Parking an index twice overwrites: one take, the second payload.
	d.Park(7, "g")
	d.Park(7, "G")
	if v, ok := d.TakeAt(7); !ok || v != "G" {
		t.Fatalf("TakeAt(7) after two parks: got %q ok=%v, want G", v, ok)
	}

	d.Park(8, "h")
	d.Reset()
	if d.ParkedLen() != 0 || d.Frontier() != 1 {
		t.Fatal("reset did not clear parked state")
	}
	if _, ok := d.TakeAt(8); ok {
		t.Fatal("TakeAt(8) took a command parked before Reset")
	}
}
