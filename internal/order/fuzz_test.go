package order

import (
	"math/rand"
	"testing"
)

// FuzzGateSchedule feeds the in-order gate an arbitrary arrival schedule
// — a seed-derived permutation of a dense chain with duplicate arrivals
// (replays) mixed in — the way the stack's target drives it: an arrival at
// the frontier opens a burst, which takes its parked successors ahead of
// the frontier (TakeAt) before any of them is submitted; the burst is
// submitted at a seed-drawn point, each command advancing the frontier, and
// a successor parked behind it is taken at the frontier (TakeNext) to open
// the next burst. A map model of the parked set checks every take, and the
// engine invariants are checked throughout: every index is processed
// exactly once, in dense order, the audit stays clean, and nothing remains
// parked after the chain completes.
func FuzzGateSchedule(f *testing.F) {
	f.Add(int64(1), uint16(16))
	f.Add(int64(42), uint16(1))
	f.Add(int64(99), uint16(200))
	f.Fuzz(func(t *testing.T, seed int64, n16 uint16) {
		n := int(n16%512) + 1
		rng := rand.New(rand.NewSource(seed))
		arrivals := make([]uint64, 0, n+n/4)
		for i := 0; i < n; i++ {
			arrivals = append(arrivals, uint64(i+1))
		}
		// Duplicate arrivals model replay after a target restart: parking
		// is an overwrite, so a replayed index must not double-process.
		for i := 0; i < n/4; i++ {
			arrivals = append(arrivals, uint64(rng.Intn(n)+1))
		}
		rng.Shuffle(len(arrivals), func(i, j int) {
			arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
		})

		var d Domain[uint64]
		d.initDomain(4)
		model := map[uint64]bool{} // parked, not taken
		var held, processed []uint64
		// take checks one take against the model and returns what it took.
		take := func(idx, v uint64, ok bool) bool {
			if ok != model[idx] || (ok && v != idx) {
				t.Fatalf("take at %d: got %d ok=%v, model parked=%v", idx, v, ok, model[idx])
			}
			delete(model, idx)
			return ok
		}
		// extend takes the burst's parked successors ahead of the frontier.
		extend := func() {
			for {
				next := held[len(held)-1] + 1
				v, ok := d.TakeAt(next)
				if !take(next, v, ok) {
					return
				}
				held = append(held, v)
			}
		}
		// submit advances the frontier through the burst, then opens the
		// next one from a successor parked at the new frontier.
		submit := func() {
			for len(held) > 0 {
				for _, idx := range held {
					if !d.Admit(idx) {
						t.Fatalf("burst submits %d at frontier %d", idx, d.Frontier())
					}
					processed = append(processed, idx)
					d.Advance(idx)
				}
				held = held[:0]
				v, ok := d.TakeNext()
				if take(d.Frontier(), v, ok) {
					held = append(held, v)
					extend()
				}
			}
			if bad := d.AuditParked(); bad != 0 {
				t.Fatalf("audit: %d violations mid-schedule", bad)
			}
		}
		for _, idx := range arrivals {
			front := d.Frontier()
			if len(held) > 0 {
				front = held[len(held)-1] + 1
			}
			switch {
			case idx < front:
				// already submitted or held: a replayed dup is dropped
			case idx == front:
				held = append(held, idx)
				extend()
			default:
				d.Park(idx, idx)
				model[idx] = true
			}
			if d.ParkedLen() != len(model) {
				t.Fatalf("%d parked, model holds %d", d.ParkedLen(), len(model))
			}
			if rng.Intn(2) == 0 {
				submit()
			}
		}
		submit()
		if len(processed) != n {
			t.Fatalf("processed %d of %d indices", len(processed), n)
		}
		for i, idx := range processed {
			if idx != uint64(i+1) {
				t.Fatalf("dense order broken at %d: idx %d", i, idx)
			}
		}
		if d.ParkedLen() != 0 {
			t.Fatalf("%d stranded parked entries", d.ParkedLen())
		}
	})
}
