package core

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// TestIDTableMatchesMapModel drives IDTable and a map (ranged through a
// key sort) with the same random puts, gets, deletes, ranges and resets —
// puts below the window, sparse spans, fresh tables whose first key is
// large — and checks they agree after every operation, that a range visits
// keys in ascending order, and that the slot array stays within twice the
// largest live span the table ever held.
func TestIDTableMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var below, grown, sparse, largeFirst, rangeDeletes, resets, edgeDeletes int
	for run := 0; run < 500; run++ {
		var tb IDTable[int]
		initCap := 0
		if rng.Intn(2) == 0 {
			initCap = 1 + rng.Intn(16)
			tb.Init(initCap)
		}
		base := uint64(rng.Intn(1000))
		if rng.Intn(3) == 0 {
			base = 1<<40 + rng.Uint64()>>8
			largeFirst++
		}
		width := 8 + rng.Intn(24)
		if rng.Intn(3) == 0 {
			width = 4096 // sparse: few live keys over a wide span
			sparse++
		}
		m := map[uint64]int{}
		maxSpan := uint64(0)
		for op := 0; op < 300; op++ {
			k := base + uint64(rng.Intn(width))
			switch r := rng.Intn(20); {
			case r < 8:
				if len(m) > 0 && k < slices.Min(slices.Collect(maps.Keys(m))) {
					below++
				}
				before := len(tb.slots)
				tb.Put(k, op)
				m[k] = op
				if before > 0 && len(tb.slots) > before {
					grown++
				}
			case r < 11:
				got, ok := tb.Get(k)
				want, wantOK := m[k]
				if got != want || ok != wantOK {
					t.Fatalf("run %d op %d: Get(%d) = (%d, %v), model (%d, %v)", run, op, k, got, ok, want, wantOK)
				}
			case r < 16:
				if len(m) > 0 && rng.Intn(2) == 0 {
					// Mostly the window's edges: the sequencer and the
					// gate delete at the low end, fusion at the high end.
					keys := slices.Sorted(maps.Keys(m))
					k = keys[0]
					if rng.Intn(2) == 0 {
						k = keys[len(keys)-1]
					}
					edgeDeletes++
				}
				got, ok := tb.Delete(k)
				want, wantOK := m[k]
				delete(m, k)
				if got != want || ok != wantOK {
					t.Fatalf("run %d op %d: Delete(%d) = (%d, %v), model (%d, %v)", run, op, k, got, ok, want, wantOK)
				}
			case r < 19:
				// Range, deleting some visited keys as it goes.
				want := slices.Sorted(maps.Keys(m))
				var got []uint64
				for k, v := range tb.All() {
					got = append(got, k)
					if v != m[k] {
						t.Fatalf("run %d op %d: range value at %d = %d, model %d", run, op, k, v, m[k])
					}
					if rng.Intn(4) == 0 {
						tb.Delete(k)
						delete(m, k)
						rangeDeletes++
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("run %d op %d: range visited %v, model %v", run, op, got, want)
				}
			default:
				tb.Reset()
				clear(m)
				resets++
				if rng.Intn(2) == 0 {
					base += 1 << 20 // a reset table reopens far from its old keys
				}
			}
			if tb.Len() != len(m) {
				t.Fatalf("run %d op %d: Len = %d, model %d", run, op, tb.Len(), len(m))
			}
			if len(m) > 0 {
				keys := slices.Sorted(maps.Keys(m))
				maxSpan = max(maxSpan, keys[len(keys)-1]-keys[0]+1)
			}
			if c := uint64(len(tb.slots)); c > max(pow2(uint64(max(initCap, 1))), 2*maxSpan) {
				t.Fatalf("run %d op %d: %d slots for a largest live span of %d", run, op, c, maxSpan)
			}
		}
	}
	for name, n := range map[string]int{
		"puts below the window": below, "growths": grown, "sparse tables": sparse,
		"large first keys": largeFirst, "deletes inside a range": rangeDeletes,
		"resets": resets, "edge deletes": edgeDeletes,
	} {
		if n < 100 {
			t.Errorf("only %d %s: the sequences no longer cover that case", n, name)
		}
	}
}
