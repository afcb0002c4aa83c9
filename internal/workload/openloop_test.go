package workload

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
)

func satCluster(t *testing.T, maxInflight int) (*sim.Engine, *stack.Cluster) {
	t.Helper()
	eng := sim.New(1)
	sc := ssd.OptaneConfig()
	sc.SatKnee = 16
	cfg := stack.DefaultConfig(stack.ModeRio, stack.TargetConfig{SSDs: []ssd.Config{sc}})
	cfg.Streams = 4
	cfg.QPs = 4
	cfg.Fabric.NumQPs = 4
	cfg.MaxInflight = maxInflight
	return eng, stack.New(eng, cfg)
}

// TestSatLoadPoissonRate checks the generator actually produces the
// offered rate (under the knee, arrivals ≈ offered ± sampling noise)
// and that completions keep up with drops at zero.
func TestSatLoadPoissonRate(t *testing.T) {
	eng, c := satCluster(t, 0)
	r := RunSatLoad(eng, c, SatJob{
		Streams: 4, Initiators: 1, OfferedKIOPS: 200, Arrival: ArrivalPoisson,
	}, 100*sim.Microsecond, 2*sim.Millisecond)
	eng.Shutdown()

	want := 200e3 * r.Elapsed.Seconds() // offered arrivals in the window
	if f := float64(r.Arrivals); f < 0.6*want || f > 1.4*want {
		t.Fatalf("arrivals %d, want ≈%.0f (offered 200 kiops over %v)", r.Arrivals, want, r.Elapsed)
	}
	if r.Dropped != 0 {
		t.Fatalf("unbounded backlog dropped %d arrivals", r.Dropped)
	}
	if r.Completed == 0 || r.Lat.Count() == 0 {
		t.Fatalf("no completions measured: %+v", r)
	}
	if got := r.DeliveredKIOPS(); got < 120 || got > 280 {
		t.Fatalf("delivered %f kiops under the knee, want ≈200", got)
	}
	if r.P99US() <= 0 {
		t.Fatal("no latency tail recorded")
	}
}

// TestSatLoadBurstyRate: the MMPP generator must hit the same mean
// offered rate as the Poisson one — the truncated-draw state machine
// must not lose ON-state arrivals to long OFF-state gaps.
func TestSatLoadBurstyRate(t *testing.T) {
	eng, c := satCluster(t, 0)
	r := RunSatLoad(eng, c, SatJob{
		Streams: 4, Initiators: 1, OfferedKIOPS: 200, Arrival: ArrivalBursty,
	}, 100*sim.Microsecond, 4*sim.Millisecond)
	eng.Shutdown()

	want := 200e3 * r.Elapsed.Seconds()
	if f := float64(r.Arrivals); f < 0.6*want || f > 1.4*want {
		t.Fatalf("bursty arrivals %d, want ≈%.0f", r.Arrivals, want)
	}
	if r.Completed == 0 {
		t.Fatal("no completions")
	}
}

// TestSatLoadDropsOnTinyBacklog: overload against a one-slot backlog
// must shed load at the generator instead of queueing unboundedly.
func TestSatLoadDropsOnTinyBacklog(t *testing.T) {
	eng, c := satCluster(t, 64)
	r := RunSatLoad(eng, c, SatJob{
		Streams: 4, Initiators: 1, OfferedKIOPS: 2000, Arrival: ArrivalPoisson, MaxBacklog: 1,
	}, 100*sim.Microsecond, sim.Millisecond)
	eng.Shutdown()

	if r.Dropped == 0 {
		t.Fatalf("overload on a 1-slot backlog shed nothing: %+v", r)
	}
	if r.DropFrac() <= 0 || r.DropFrac() >= 1 {
		t.Fatalf("drop fraction %f out of range", r.DropFrac())
	}
	if r.Completed == 0 {
		t.Fatal("drops must shed the excess, not all traffic")
	}
}

// TestSatLoadZipfStaysInRegion: skewed keys must stay inside each
// generator's private region (no cross-generator stamp collisions).
func TestSatLoadZipfStaysInRegion(t *testing.T) {
	eng, c := satCluster(t, 0)
	r := RunSatLoad(eng, c, SatJob{
		Streams: 2, Initiators: 1, OfferedKIOPS: 100, Arrival: ArrivalPoisson, Theta: 0.99,
	}, 50*sim.Microsecond, sim.Millisecond)
	eng.Shutdown()
	if r.Completed == 0 {
		t.Fatal("no completions with zipfian keys")
	}
}
