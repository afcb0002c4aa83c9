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
// the measurement windows rely on. A Sub or Add that drops a field — the
// failure mode of the hand-written bodies these replaced — leaves that
// field zero and breaks the first identity.
func checkArithmetic[T interface {
	comparable
	Sub(T) T
	Add(T) T
}](t *testing.T) {
	t.Helper()
	var x, zero T
	var next int64
	fillDistinct(reflect.ValueOf(&x).Elem(), &next)
	if next == 0 {
		t.Fatalf("%T has no counter fields", x)
	}
	if got := x.Sub(zero); got != x {
		t.Errorf("%T: x.Sub(zero) = %+v, want %+v", x, got, x)
	}
	if got := x.Add(x).Sub(x); got != x {
		t.Errorf("%T: x.Add(x).Sub(x) = %+v, want %+v", x, got, x)
	}
	if got := x.Sub(x); got != zero {
		t.Errorf("%T: x.Sub(x) = %+v, want zero", x, got)
	}
}

func TestStatsArithmeticCoversEveryField(t *testing.T) {
	checkArithmetic[TargetStats](t)
	checkArithmetic[ClusterStats](t)
	checkArithmetic[RCacheStats](t)
	checkArithmetic[metrics.PoolStats](t)
	checkArithmetic[metrics.BatchStats](t)
}
