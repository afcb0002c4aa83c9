package crash

import (
	"slices"
	"testing"
)

// TestMaskedDraws pins how many candidate draws each recorded finding keeps
// out of plans 1–400, and how many were redrawn in all: a change that adds,
// narrows or deletes a finding row states here what it hides or wins back.
// Drawing alone (no plan runs) is enough.
func TestMaskedDraws(t *testing.T) {
	var drawn []Plan
	for seed := int64(1); seed <= 400; seed++ {
		pl, err := Draw(seed)
		if err != nil {
			t.Fatal(err)
		}
		// A redrawn candidate hit at least one row and at most all of them.
		sum := 0
		for _, n := range pl.Masked {
			sum += n
		}
		if pl.Redrawn < slices.Max(pl.Masked) || pl.Redrawn > sum {
			t.Fatalf("plan %d: %d candidates redrawn, per finding %v", seed, pl.Redrawn, pl.Masked)
		}
		drawn = append(drawn, pl)
	}
	const want = "masked    1d:330 1f:185 1i:99 all:494\n"
	if got := MaskTable(drawn); got != want {
		t.Fatalf("masked draws at seeds 1–400:\n%swant\n%s", got, want)
	}
	// A finding let through masks nothing.
	pl, err := Draw(2, "allow=1d,1f,1i")
	if err != nil {
		t.Fatal(err)
	}
	if pl.Redrawn != 0 || slices.Max(pl.Masked) != 0 {
		t.Fatalf("every finding allowed, yet %d candidates redrawn (%v)", pl.Redrawn, pl.Masked)
	}
}
