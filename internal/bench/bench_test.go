package bench

import (
	"strings"
	"testing"
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
// monotonically from 1 to 8 streams and a >= 30% hot-path allocation
// reduction versus the seed dispatch's recorded allocations per request.
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
