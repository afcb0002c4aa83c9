package stack

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// traceConfig builds a small traced Rio cluster at sample rate 1.
func traceConfig(targets ...TargetConfig) Config {
	cfg := smallConfig(ModeRio, targets...)
	cfg.Trace = trace.Config{SampleEvery: 1, Keep: 4096}
	return cfg
}

// TestTraceSpanCompleteness drives ordered writes at sample rate 1 and
// checks every span closes with a full, monotone milestone sequence
// whose stage durations partition the end-to-end latency exactly.
func TestTraceSpanCompleteness(t *testing.T) {
	eng := sim.New(1)
	c := New(eng, traceConfig(optane1()...))
	const groups = 50
	eng.Go("app", func(p *sim.Proc) {
		for g := 0; g < groups; g++ {
			r := c.Init(0).OrderedWrite(p, g%4, uint64(g*3), 1, 0, nil, true, false, false)
			c.Init(0).Wait(p, r)
		}
	})
	eng.Run()
	st := c.TraceStats()
	if st.Sampled != groups {
		t.Fatalf("sampled %d spans, want %d", st.Sampled, groups)
	}
	if st.Finished != groups || st.Dropped != 0 || st.Open != 0 {
		t.Fatalf("finished %d dropped %d open %d, want %d/0/0",
			st.Finished, st.Dropped, st.Open, groups)
	}
	recs := c.Tracer().Retained()
	if len(recs) != groups {
		t.Fatalf("retained %d records, want %d", len(recs), groups)
	}
	for _, r := range recs {
		var sum sim.Time
		for i := 0; i < trace.NumStages; i++ {
			d := r.StageDur(i)
			if d < 0 {
				t.Fatalf("span %d: stage %s negative (%d)", r.ID, trace.StageName(i), d)
			}
			sum += d
		}
		if sum != r.E2E() {
			t.Fatalf("span %d: stage sum %d != e2e %d", r.ID, sum, r.E2E())
		}
		if r.E2E() <= 0 {
			t.Fatalf("span %d: non-positive e2e %d", r.ID, r.E2E())
		}
	}
}

// TestTraceSamplingDeterminism asserts the determinism contract the
// whole design rests on: a traced run's simulated outcome (clock,
// completion counts) is identical to the untraced run of the same seed.
func TestTraceSamplingDeterminism(t *testing.T) {
	run := func(sample int) (sim.Time, int64) {
		eng := sim.New(7)
		cfg := smallConfig(ModeRio, optane1()...)
		if sample > 0 {
			cfg.Trace = trace.Config{SampleEvery: sample, Keep: 64}
		}
		c := New(eng, cfg)
		eng.Go("app", func(p *sim.Proc) {
			for g := 0; g < 80; g++ {
				r := c.Init(0).OrderedWrite(p, g%4, uint64(g), 1, 0, nil, g%3 == 0, g%9 == 0, false)
				if g%2 == 0 {
					c.Init(0).Wait(p, r)
				}
			}
		})
		eng.Run()
		now := eng.Now()
		done := c.Init(0).Stats().Completed
		eng.Shutdown()
		return now, done
	}
	baseClock, baseDone := run(0)
	for _, sample := range []int{1, 3} {
		clock, done := run(sample)
		if clock != baseClock || done != baseDone {
			t.Fatalf("sample %d perturbed the run: clock %d/%d completed %d/%d",
				sample, clock, baseClock, done, baseDone)
		}
	}
}

// TestTraceCrashDropsOpenSpans power-cuts the whole cluster mid-flight:
// every open span must resolve to a terminal dropped@stage record —
// never a dangling open span — and the books must balance.
func TestTraceCrashDropsOpenSpans(t *testing.T) {
	eng := sim.New(3)
	c := New(eng, traceConfig(optane1()...))
	eng.Go("app", func(p *sim.Proc) {
		for g := 0; g < 200 && c.Init(0).Alive(); g++ {
			c.Init(0).OrderedWrite(p, g%4, uint64(g), 1, 0, nil, true, false, false)
			p.Sleep(2 * sim.Microsecond)
		}
	})
	eng.At(60*sim.Microsecond, func() { c.PowerCutAll() })
	eng.Run()
	tr := c.Tracer()
	st := c.TraceStats()
	if st.Sampled == 0 {
		t.Fatal("nothing sampled before the cut")
	}
	if st.Dropped == 0 {
		t.Fatal("power cut mid-flight dropped no spans")
	}
	if n := tr.OpenCount(); n != 0 {
		t.Fatalf("%d spans left open after the cut (want 0: crash must close every span)", n)
	}
	if st.Finished+st.Dropped != st.Sampled {
		t.Fatalf("books don't balance: finished %d + dropped %d != sampled %d",
			st.Finished, st.Dropped, st.Sampled)
	}
	var droppedAt int64
	for _, n := range st.DroppedAt {
		droppedAt += n
	}
	if droppedAt != st.Dropped {
		t.Fatalf("dropped@stage attribution %d != dropped %d", droppedAt, st.Dropped)
	}
}

// TestTraceReplicatedTargetCut cuts one member of a 2-way set mid-flight
// at sample rate 1: survivors complete every write at quorum, so every
// span must still finish (no span may dangle on the dead member's acks).
func TestTraceReplicatedTargetCut(t *testing.T) {
	eng := sim.New(5)
	cfg := replConfig(2)
	cfg.Trace = trace.Config{SampleEvery: 1, Keep: 4096}
	c := New(eng, cfg)
	const groups = 60
	eng.Go("app", func(p *sim.Proc) {
		for g := 0; g < groups; g++ {
			r := c.Init(0).OrderedWrite(p, g%4, uint64(g*5), 1, 0, nil, true, false, false)
			c.Init(0).Wait(p, r)
		}
	})
	eng.At(40*sim.Microsecond, func() { c.PowerCutTarget(1) })
	eng.Run()
	eng.Go("resync", func(p *sim.Proc) { c.RecoverTarget(p, 1) })
	eng.Run()
	st := c.TraceStats()
	if st.Sampled != groups {
		t.Fatalf("sampled %d, want %d", st.Sampled, groups)
	}
	if st.Open != 0 {
		t.Fatalf("%d spans still open after quorum completion + resync", st.Open)
	}
	if st.Finished+st.Dropped != st.Sampled {
		t.Fatalf("books don't balance: finished %d + dropped %d != sampled %d",
			st.Finished, st.Dropped, st.Sampled)
	}
}
