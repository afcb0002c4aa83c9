package stack

import (
	"reflect"
	"testing"

	"repro/internal/metrics"
)

// fillDistinct sets every int64-kind field of the struct v points to
// (nested structs included) to a distinct non-zero value.
func fillDistinct(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), next)
		}
	case reflect.Int64:
		*next += 7
		v.SetInt(*next)
	}
}

// checkArithmetic fills x with distinct values and checks the identities
// the measurement windows rely on for its sub and add. A sub or add that
// drops a field — the failure mode of the hand-written bodies these
// replaced — leaves that field zero and breaks the first identity.
func checkArithmetic[T comparable](t *testing.T, sub, add func(T, T) T) {
	t.Helper()
	var x, zero T
	var next int64
	fillDistinct(reflect.ValueOf(&x).Elem(), &next)
	if next == 0 {
		t.Fatalf("%T has no counter fields", x)
	}
	if got := sub(x, zero); got != x {
		t.Errorf("%T: x - 0 = %+v, want %+v", x, got, x)
	}
	if got := sub(add(x, x), x); got != x {
		t.Errorf("%T: x + x - x = %+v, want %+v", x, got, x)
	}
	if got := sub(x, x); got != zero {
		t.Errorf("%T: x - x = %+v, want zero", x, got)
	}
}

func TestStatsArithmeticCoversEveryField(t *testing.T) {
	checkArithmetic(t, TargetStats.Sub, TargetStats.Add)
	checkArithmetic(t, ClusterStats.Sub, ClusterStats.Add)
	checkArithmetic(t, RCacheStats.Sub, RCacheStats.Add)
	checkArithmetic(t, metrics.Delta[metrics.PoolStats], metrics.Sum[metrics.PoolStats])
	checkArithmetic(t, metrics.Delta[metrics.BatchStats], metrics.Sum[metrics.BatchStats])
}
