package metrics

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("zero-value histogram should report zeros")
	}
	for i := 1; i <= 100; i++ {
		h.Record(sim.Time(i))
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %v/%v, want 1/100", h.Min(), h.Max())
	}
	if h.Mean() != 50 { // sum 5050/100 = 50 (integer division)
		t.Fatalf("Mean = %v, want 50", h.Mean())
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(3))
	var exact []float64
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 50000) // exponential, mean 50us
		h.Record(sim.Time(v))
		exact = append(exact, float64(v))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := exact[int(q*float64(len(exact)-1))]
		got := float64(h.Quantile(q))
		if want == 0 {
			continue
		}
		relErr := math.Abs(got-want) / want
		if relErr > 0.10 {
			t.Errorf("q=%v: got %v want %v (rel err %.3f)", q, got, want, relErr)
		}
	}
}

func TestHistogramQuantileMonotonic(t *testing.T) {
	f := func(raw []uint32) bool {
		var h Histogram
		for _, v := range raw {
			h.Record(sim.Time(v % 10_000_000))
		}
		prev := sim.Time(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		// Quantiles always lie within [min, max].
		if h.Count() > 0 {
			return h.Quantile(0) >= h.Min() && h.Quantile(1) <= h.Max()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	var a, b Histogram
	for i := 0; i < 100; i++ {
		a.Record(sim.Time(10))
		b.Record(sim.Time(1000))
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d, want 200", a.Count())
	}
	if a.Min() != 10 || a.Max() != 1000 {
		t.Fatalf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	if got := a.Mean(); got != 505 {
		t.Fatalf("merged mean = %v, want 505", got)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
}

func TestWindowRates(t *testing.T) {
	w := Window{Elapsed: sim.Second, Ops: 90, Bytes: 4096 * 90}
	if w.IOPS() != 90 {
		t.Fatalf("IOPS = %f, want 90", w.IOPS())
	}
	if math.Abs(w.GBps()-4096*90/1e9) > 1e-12 {
		t.Fatalf("GBps = %f", w.GBps())
	}
	if w.KIOPS() != 0.09 {
		t.Fatalf("KIOPS = %f", w.KIOPS())
	}
}

func TestWindowZeroElapsed(t *testing.T) {
	w := Window{}
	if w.IOPS() != 0 || w.GBps() != 0 {
		t.Fatal("zero window must report zero rates")
	}
}

func TestUtilizationFromResource(t *testing.T) {
	e := sim.New(1)
	r := sim.NewResource(e, 2)
	snap := func() UtilSnapshot {
		return UtilSnapshot{Busy: r.BusyTime(), At: e.Now(), Capacity: r.Capacity()}
	}
	a := snap()
	e.Go("w", func(p *sim.Proc) { r.Use(p, 100) })
	e.Go("w", func(p *sim.Proc) { r.Use(p, 100) })
	e.RunUntil(200)
	b := snap()
	// 200 unit-ns busy over 2 cores * 200ns elapsed = 0.5.
	if u := Utilization(a, b); math.Abs(u-0.5) > 1e-9 {
		t.Fatalf("utilization = %f, want 0.5", u)
	}
	e.Shutdown()
}

func TestEfficiency(t *testing.T) {
	if Efficiency(100, 0) != 0 {
		t.Fatal("efficiency with idle CPU should be 0")
	}
	if got := Efficiency(100, 0.5); got != 200 {
		t.Fatalf("Efficiency = %f, want 200", got)
	}
}

func TestSeriesTable(t *testing.T) {
	var s1, s2, s3 Series
	s1.Label, s2.Label, s3.Label = "rio", "initiator w/o merging", "linux"
	s1.Add(1, 10.5)
	s1.Add(2, 20.25)
	s2.Add(1, 1)
	s2.Add(2, 2)
	s3.Add(1, 3)
	s2.Y[0] = math.NaN() // a window that measured nothing
	out := Table("fig", "threads", nil, s1, s2, s3)
	if !strings.Contains(out, "20.25") {
		t.Fatalf("missing value in table:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // title + header + 2 rows
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	// A label longer than the default column widens its column — header and
	// cells alike — instead of running into its neighbour; a short series
	// prints "-" under its own header.
	if got := strings.Fields(lines[1]); !slices.Equal(got, []string{"threads", "rio", "initiator", "w/o", "merging", "linux"}) {
		t.Fatalf("header fields %q", got)
	}
	for _, l := range lines[1:] {
		if len(l) != len(lines[1]) {
			t.Fatalf("row %q is not as wide as the header %q", l, lines[1])
		}
	}
	if !strings.HasSuffix(lines[3], "2.00               -") {
		t.Fatalf("short series not marked under its column: %q", lines[3])
	}
	if !strings.Contains(lines[2], " n/a ") {
		t.Fatalf("NaN cell not printed as n/a: %q", lines[2])
	}
	// Row labels print in place of the x values, in the x column's width.
	rows := strings.Split(strings.TrimSpace(Table("fig", "system", []string{"horae", "rio"}, s1)), "\n")
	if len(rows) != 4 || !strings.HasPrefix(rows[2], "horae       ") || !strings.HasPrefix(rows[3], "rio         ") ||
		!strings.HasSuffix(rows[3], "20.25") {
		t.Fatalf("row-labelled table:\n%s", strings.Join(rows, "\n"))
	}
}

// The first column fits its header and its longest row label, so the header
// and every row put the series columns at the same offsets.
func TestTableFirstColumnFits(t *testing.T) {
	var s1, s2 Series
	s1.Label, s2.Label = "p99 (us)", "delivered kiops"
	for _, x := range []float64{400, 1200} {
		s1.Add(x, 12.5)
		s2.Add(x, x/2)
	}
	for _, tc := range []struct {
		xName string
		rows  []string
	}{
		{"offered kiops", nil},
		{"system", []string{"rio", "horae with a long label"}},
	} {
		out := Table("fig", tc.xName, tc.rows, s1, s2)
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")[1:]
		// Each series column is right-aligned in a fixed width, so equal
		// line lengths put every column end at the same offset.
		for _, l := range lines[1:] {
			if len(l) != len(lines[0]) {
				t.Fatalf("row %q and header %q put the series columns at different offsets\n%s", l, lines[0], out)
			}
		}
		if !strings.HasPrefix(lines[0], tc.xName+" ") {
			t.Fatalf("header %q runs into its first series", lines[0])
		}
	}
}

func TestGeoMeanRatio(t *testing.T) {
	a := []float64{2, 8}
	b := []float64{1, 2}
	// ratios 2 and 4 -> geomean sqrt(8) ~ 2.828
	if got, n := GeoMeanRatio(a, b); math.Abs(got-2.8284) > 1e-3 || n != 2 {
		t.Fatalf("GeoMeanRatio = %f over %d points", got, n)
	}
	if got, n := GeoMeanRatio(nil, nil); got != 0 || n != 0 {
		t.Fatal("empty inputs should yield 0")
	}
	if got, _ := GeoMeanRatio([]float64{0}, []float64{1}); got != 0 {
		t.Fatal("non-positive values are skipped; all-skipped yields 0")
	}
	// A window that measured nothing (NaN) is skipped, not averaged in.
	if got, n := GeoMeanRatio([]float64{2, math.NaN(), 8}, []float64{1, 3, math.NaN()}); got != 2 || n != 1 {
		t.Fatalf("NaN points: GeoMeanRatio = %f over %d points, want 2 over 1", got, n)
	}
}

func TestP999AndExtremes(t *testing.T) {
	var h Histogram
	for i := 0; i < 990; i++ {
		h.Record(sim.Time(100))
	}
	for i := 0; i < 10; i++ {
		h.Record(sim.Time(100000)) // 1% outliers
	}
	if p := h.P999(); p < 50000 {
		t.Fatalf("P999 = %v, should land in the outlier mass", p)
	}
	if p := h.P50(); p > 200 {
		t.Fatalf("P50 = %v, should ignore the outliers", p)
	}
}

func TestHistogramLargeValues(t *testing.T) {
	var h Histogram
	big := sim.Time(1) << 40 // ~18 minutes in ns
	h.Record(big)
	if h.Max() != big {
		t.Fatalf("max = %v", h.Max())
	}
	q := h.Quantile(1)
	if q < big/2 || q > big {
		t.Fatalf("quantile(1) = %v for single sample %v", q, big)
	}
}

func TestEfficiencySymmetry(t *testing.T) {
	// Doubling throughput at fixed utilization doubles efficiency;
	// doubling utilization at fixed throughput halves it.
	base := Efficiency(100, 0.25)
	if Efficiency(200, 0.25) != 2*base {
		t.Fatal("efficiency not linear in throughput")
	}
	if Efficiency(100, 0.5) != base/2 {
		t.Fatal("efficiency not inverse in utilization")
	}
}

// TestCounterArithmeticRejectsNonCounters: a struct that grows a field
// Delta/Sum cannot combine must fail loudly, not drop the field.
func TestCounterArithmeticRejectsNonCounters(t *testing.T) {
	type nested struct{ A, B int64 }
	type good struct {
		N    int64
		T    sim.Time
		Nest nested
	}
	a := good{N: 5, T: 7, Nest: nested{A: 1, B: 2}}
	b := good{N: 2, T: 3, Nest: nested{A: 1, B: 1}}
	if got, want := Delta(a, b), (good{N: 3, T: 4, Nest: nested{B: 1}}); got != want {
		t.Fatalf("Delta = %+v, want %+v", got, want)
	}
	if got, want := Sum(a, b), (good{N: 7, T: 10, Nest: nested{A: 2, B: 3}}); got != want {
		t.Fatalf("Sum = %+v, want %+v", got, want)
	}
	type bad struct {
		N    int64
		Rate float64
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Delta over a struct with a float64 field must panic")
		}
	}()
	Delta(bad{}, bad{})
}
