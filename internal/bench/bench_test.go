package bench

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
)

func TestNamesComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "fig10a", "fig10b", "fig10c", "fig10d",
		"fig11", "fig12", "fig13", "fig14", "fig15a", "fig15b", "recovery", "ablation", "tcp", "scale", "replication", "policy", "serve", "read", "satload", "trace"}
	names := Names()
	if len(names) != len(want) {
		t.Fatalf("experiments = %v", names)
	}
	for _, w := range want {
		if _, ok := Experiments[w]; !ok {
			t.Errorf("missing experiment %q", w)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", Options{}); err == nil {
		t.Fatal("unknown experiment should error")
	}
}

// TestParallelTracedRuns: each Run collects its own clusters' tracers, so
// two traced runs at once each render what a run alone renders, stage
// table included (and share no state -race could see).
func TestParallelTracedRuns(t *testing.T) {
	o := Options{Quick: true, TraceSample: 64}
	render := func() string {
		res, err := Run("scale", o)
		if err != nil {
			t.Error(err)
			return ""
		}
		return res.Render()
	}
	want := render()
	if !strings.Contains(want, "scale stage breakdown (1-in-64 sampled)") {
		t.Fatalf("a traced run rendered no stage table:\n%s", want)
	}
	got := make([]string, 2)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = render()
		}()
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Errorf("parallel run %d rendered differently from a run alone:\n%s\nwant:\n%s", i, g, want)
		}
	}
}

// TestDigestsIgnoreTracing: with Options.Digest a run lists one schedule
// digest per point, the same with tracing on, since a tracer records host
// memory only; without it, none.
func TestDigestsIgnoreTracing(t *testing.T) {
	digests := func(o Options) []PointDigest {
		res, err := Run("replication", o)
		if err != nil {
			t.Fatal(err)
		}
		return res.Digests
	}
	want := digests(Options{Quick: true, Digest: true})
	if len(want) == 0 {
		t.Fatal("a digested run listed no point")
	}
	if got := digests(Options{Quick: true, Digest: true, TraceSample: 1}); !slices.Equal(got, want) {
		t.Errorf("traced digests %v, untraced %v", got, want)
	}
	if got := digests(Options{Quick: true}); got != nil {
		t.Errorf("a run without Digest listed %v", got)
	}
}

// TestSweepAndNormalize: sweep runs each (line, x) point exactly once and
// returns [column][line] series labelled by line, points in x order;
// normalized divides by the base line, NaN where the base is 0 or NaN, and
// a table prints that NaN as n/a.
func TestSweepAndNormalize(t *testing.T) {
	labels, xs := []string{"a", "base"}, []int{3, 1, 2}
	calls := map[[2]int]int{}
	ss := sweep(labels, xs, func(line, x int) [2]float64 {
		calls[[2]int{line, x}]++
		return [2]float64{float64(10*line + x), float64(-x)}
	}, func(r [2]float64) float64 { return r[0] }, func(r [2]float64) float64 { return r[1] })
	if len(calls) != len(labels)*len(xs) {
		t.Fatalf("sweep ran %d distinct points, want %d: %v", len(calls), len(labels)*len(xs), calls)
	}
	for pt, n := range calls {
		if n != 1 {
			t.Errorf("point %v ran %d times", pt, n)
		}
	}
	want := [][]metrics.Series{
		{{Label: "a", X: []float64{3, 1, 2}, Y: []float64{3, 1, 2}}, {Label: "base", X: []float64{3, 1, 2}, Y: []float64{13, 11, 12}}},
		{{Label: "a", X: []float64{3, 1, 2}, Y: []float64{-3, -1, -2}}, {Label: "base", X: []float64{3, 1, 2}, Y: []float64{-3, -1, -2}}},
	}
	if !reflect.DeepEqual(ss, want) {
		t.Fatalf("sweep = %+v, want %+v", ss, want)
	}

	in := []metrics.Series{
		{Label: "a", X: []float64{1, 2, 3}, Y: []float64{6, 4, 2}},
		{Label: "base", X: []float64{1, 2, 3}, Y: []float64{2, 0, math.NaN()}},
	}
	got := normalized(in, "base")
	for i, w := range [][]float64{{3, math.NaN(), math.NaN()}, {1, math.NaN(), math.NaN()}} {
		if got[i].Label != in[i].Label || !reflect.DeepEqual(got[i].X, in[i].X) {
			t.Errorf("normalized series %d = %+v, want label and x of %+v", i, got[i], in[i])
		}
		for j := range w {
			if g := got[i].Y[j]; g != w[j] && !(math.IsNaN(g) && math.IsNaN(w[j])) {
				t.Errorf("normalized %s[%d] = %v, want %v", got[i].Label, j, g, w[j])
			}
		}
	}
	if in[0].Y[0] != 6 || in[1].Y[0] != 2 {
		t.Errorf("normalized changed its input: %+v", in)
	}
	if tab := metrics.Table("t", "x", nil, got...); strings.Count(tab, "n/a") != 4 {
		t.Errorf("table prints %d n/a cells, want 4:\n%s", strings.Count(tab, "n/a"), tab)
	}
}

// TestDeriveMetrics: every numeric cell of a result's tables becomes one
// metric keyed by slugged title, series and x (%g) or row label; an n/a
// cell becomes no key and counts into <exp>.na_cells; a text table keys
// nothing; and a key written twice panics instead of replacing a number.
func TestDeriveMetrics(t *testing.T) {
	for in, want := range map[string]string{
		"throughput (K ops/s)":                    "throughput_k_ops_s",
		"Fig 2(a) flash SSD — throughput (KIOPS)": "fig_2_a_flash_ssd_throughput_kiops",
		"  --Keys (θ=0.99)!  ":                    "keys_0_99",
		"rio-nomerge":                             "rio_nomerge",
		"":                                        "",
	} {
		if got := slug(in); got != want {
			t.Errorf("slug(%q) = %q, want %q", in, got, want)
		}
	}

	rio := metrics.Series{Label: "rio"}
	rio.Add(1, 10)
	rio.Add(12, 20)
	rio.Add(0.5, math.NaN())
	order := metrics.Series{Label: "Order Rebuild (ms)"}
	order.Add(0, 54.5)
	order.Add(1, math.NaN())
	r := &Result{Tables: []Table{
		{Title: "throughput (K ops/s)", XName: "threads", Series: []metrics.Series{rio}},
		{Title: "recovery time", XName: "system", Rows: []string{"rio", "Horae FS"}, Series: []metrics.Series{order}},
		{Text: "# already rendered\n"},
	}}
	r.Metric("fig.headline", 7)
	r.deriveMetrics("fig")
	want := map[string]float64{
		"fig.headline":                           7,
		"fig.throughput_k_ops_s.rio.x1":          10,
		"fig.throughput_k_ops_s.rio.x12":         20,
		"fig.recovery_time.order_rebuild_ms.rio": 54.5,
		"fig.na_cells":                           2,
	}
	if !reflect.DeepEqual(r.Metrics, want) {
		t.Fatalf("derived metrics = %v, want %v", r.Metrics, want)
	}

	panics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic on a key written twice", name)
			}
		}()
		f()
	}
	panics("explicit", func() { r.Metric("fig.headline", 8) })
	twice := &Result{Tables: []Table{
		{Title: "T", XName: "x", Series: []metrics.Series{rio}},
		{Title: "t!", XName: "x", Series: []metrics.Series{rio}},
	}}
	panics("derived", func() { twice.deriveMetrics("fig") })
}

func quick() Options { return Options{Quick: true, Seed: 1} }

func TestFig2Shape(t *testing.T) {
	r, err := Run("fig2", quick())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	for _, want := range []string{"flash", "optane", "HORAE", "orderless"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig2 output missing %q:\n%s", want, out)
		}
	}
	if len(r.Tables) != 2 {
		t.Fatalf("fig2 tables = %d, want 2", len(r.Tables))
	}
}

func TestFig10bRatios(t *testing.T) {
	r := fig10(quick(), "fig10b", oneOptane(), []int{1, 4})
	out := r.Render()
	if !strings.Contains(out, "rio/linux") {
		t.Fatalf("missing ratio notes:\n%s", out)
	}
	// Structural check: five systems in the throughput table.
	for _, sys := range []string{"linux", "horae", "rio", "orderless", "rio-nomerge"} {
		if !strings.Contains(out, sys) {
			t.Errorf("missing system %q", sys)
		}
	}
}

func TestFig14Table(t *testing.T) {
	r, err := Run("fig14", quick())
	if err != nil {
		t.Fatal(err)
	}
	out := r.Render()
	if !strings.Contains(out, "horaefs") || !strings.Contains(out, "riofs") {
		t.Fatalf("fig14 output:\n%s", out)
	}
}

// TestScaleSweep: the scale experiment must show Rio throughput rising
// monotonically from 1 to 8 streams, doorbell and CQE coalescing (batch
// occupancies above 1, fewer than one completion message per op), and
// aggregate throughput rising over 1→4 initiators with no per-initiator
// ordering violation.
func TestScaleSweep(t *testing.T) {
	r, err := Run("scale", quick())
	if err != nil {
		t.Fatal(err)
	}
	ks := []float64{
		r.Metrics["scale.rio.kiops.s1"],
		r.Metrics["scale.rio.kiops.s2"],
		r.Metrics["scale.rio.kiops.s4"],
		r.Metrics["scale.rio.kiops.s8"],
	}
	for i := 1; i < len(ks); i++ {
		if ks[i] <= ks[i-1] {
			t.Fatalf("rio throughput not monotonic over streams: %v", ks)
		}
	}
	if occ := r.Metrics["scale.rio.batch_occupancy"]; occ <= 1 {
		t.Fatalf("batch occupancy = %.2f, want > 1 (doorbell coalescing)", occ)
	}
	// Completion-path acceptance bars: coalescing must pack >1 CQE per
	// response capsule (so <1 completion message per op; the seed target
	// shipped exactly one capsule per command).
	if occ := r.Metrics["scale.rio.cqe_batch_occupancy"]; occ <= 1 {
		t.Fatalf("cqe batch occupancy = %.2f, want > 1 (completion coalescing)", occ)
	}
	if mpo := r.Metrics["scale.rio.completion_msgs_per_op"]; mpo <= 0 || mpo >= 1 {
		t.Fatalf("completion msgs/op = %.2f, want in (0, 1)", mpo)
	}
	// Initiator-axis acceptance bars: aggregate Rio throughput must rise
	// monotonically 1→4 initiators at fixed targets, with zero
	// per-initiator ordering-invariant violations (sequencer group order,
	// dense ServerIdx chains via the gate audit, PMR retire watermarks).
	is := []float64{
		r.Metrics["scale.rio.kiops.i1"],
		r.Metrics["scale.rio.kiops.i2"],
		r.Metrics["scale.rio.kiops.i4"],
	}
	for i := 1; i < len(is); i++ {
		if is[i] <= is[i-1] {
			t.Fatalf("rio aggregate throughput not monotonic over initiators: %v", is)
		}
	}
	if v := r.Metrics["scale.multi.order_violations"]; v != 0 {
		t.Fatalf("per-initiator ordering invariant violations = %.0f, want 0", v)
	}
	if sc := r.Metrics["scale.rio.init_scaling"]; sc <= 1.5 {
		t.Fatalf("1→4 initiator scaling = %.2fx, want > 1.5x at fixed targets", sc)
	}
}

// TestReplicationSweep enforces the replication acceptance bars: the
// redundancy tax is monotone (adding replicas at fixed hardware never
// gains throughput), a mid-measurement replica power cut keeps
// completions flowing (stall-free failover at majority quorum), the
// background resync replays a real delta and leaves zero divergence,
// and no per-replica ordering invariant breaks anywhere.
func TestReplicationSweep(t *testing.T) {
	r, err := Run("replication", quick())
	if err != nil {
		t.Fatal(err)
	}
	r1 := r.Metrics["replication.rio.kiops.r1"]
	r2 := r.Metrics["replication.rio.kiops.r2"]
	r3 := r.Metrics["replication.rio.kiops.r3"]
	if !(r1 > 0 && r2 > 0 && r3 > 0) {
		t.Fatalf("replication throughput missing: r1=%v r2=%v r3=%v", r1, r2, r3)
	}
	if r3 > r1 || r2 > r1 {
		t.Fatalf("replication gained throughput at fixed hardware: r1=%.1f r2=%.1f r3=%.1f", r1, r2, r3)
	}
	if f := r.Metrics["replication.rio.failover_kiops"]; f < r3/2 {
		t.Fatalf("failover throughput %.1f kiops collapsed vs steady-state %.1f — streams stalled", f, r3)
	}
	if blip := r.Metrics["replication.rio.failover_blip_us"]; blip <= 0 {
		t.Fatalf("failover blip = %v, want a measured worst latency", blip)
	}
	if amp := r.Metrics["replication.rio.completion_msgs_per_op.r3"]; amp <= 1 {
		t.Fatalf("3-way completion msgs/op = %.2f, want > 1 (every member acks)", amp)
	}
	if n := r.Metrics["replication.rio.resync_blocks"]; n == 0 {
		t.Fatal("resync replayed no blocks despite a degraded window")
	}
	if d := r.Metrics["replication.rio.resync_divergence"]; d != 0 {
		t.Fatalf("%v blocks diverge across replicas after resync", d)
	}
	if v := r.Metrics["replication.rio.order_violations"]; v != 0 {
		t.Fatalf("%v ordering-invariant violations across the replication sweep", v)
	}
}
