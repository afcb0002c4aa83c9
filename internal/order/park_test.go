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

// TestCompletionFrontier drives the completion frontier: a response
// behind an older unresponded index waits ahead of it with its mark, the
// response that fills the gap moves the frontier past every contiguous one
// and returns their marks (its own excluded), a command spanning several
// indices moves it past all of them, a duplicate changes nothing, and
// Reset starts over at 1.
func TestCompletionFrontier(t *testing.T) {
	var d Domain[string]
	d.initDomain(2)
	at := func(idx uint64) bool { return !d.Behind(idx) && d.Behind(idx+1) } // the frontier is idx
	// Commands: [1], [2,3] (a vector command), [4], [5], [6].
	if d.Behind(1) || !d.Behind(2) {
		t.Fatal("Behind at frontier 1: want 1 not behind, 2 behind")
	}
	if got := d.Respond(4, 4, 1); got != 0 || !at(1) {
		t.Fatalf("Respond(4) ahead: passed %d; want 0, frontier 1", got)
	}
	if got := d.Respond(6, 6, 2); got != 0 {
		t.Fatalf("Respond(6) ahead: passed %d", got)
	}
	if got := d.Respond(2, 3, 0); got != 0 || !at(1) {
		t.Fatalf("Respond(2..3) ahead: passed %d; want 0, frontier 1", got)
	}
	// 1 fills the gap: the frontier passes 2..3 and 4 (marks 0 and 1) and
	// stops at 5.
	if got := d.Respond(1, 1, 2); got != 1 || !at(5) {
		t.Fatalf("Respond(1): passed %d; want 1, frontier 5", got)
	}
	if got := d.Respond(5, 5, 0); got != 2 || !at(7) {
		t.Fatalf("Respond(5): passed %d; want 2, frontier 7", got)
	}
	if got := d.Respond(3, 3, 1); got != 0 || !at(7) {
		t.Fatalf("duplicate Respond(3): passed %d; want 0, frontier 7", got)
	}
	d.Respond(9, 9, 1)
	d.Reset()
	if !at(1) {
		t.Fatal("Reset: frontier not back at 1")
	}
	if got := d.Respond(1, 1, 0); got != 0 || !at(2) {
		t.Fatalf("after Reset: passed %d; want 0, frontier 2 (nothing held before Reset survives)", got)
	}
}
