package sim

import "testing"

func TestStopAbortsRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(e *Engine)
	}{
		{"Run", func(e *Engine) { e.Run() }},
		// A stopped RunUntil must leave the clock at the last event it ran:
		// advancing to t would put the remaining events in the past.
		{"RunUntil", func(e *Engine) { e.RunUntil(1000) }},
	} {
		e := New(1)
		count := 0
		for i := 1; i <= 10; i++ {
			e.At(Time(i)*10, func() {
				count++
				if count == 3 {
					e.Stop()
				}
			})
		}
		tc.run(e)
		if count != 3 || e.Now() != 30 {
			t.Fatalf("%s: count = %d at %v, want 3 at 30ns (Stop should abort)", tc.name, count, e.Now())
		}
		// A subsequent run resumes the remaining events.
		tc.run(e)
		if count != 10 {
			t.Fatalf("%s: count = %d after resume, want 10", tc.name, count)
		}
	}
}

func TestYieldInterleavesSameTime(t *testing.T) {
	e := New(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		trace = append(trace, "a1")
		p.Yield()
		trace = append(trace, "a2")
	})
	e.Go("b", func(p *Proc) {
		trace = append(trace, "b1")
		p.Yield()
		trace = append(trace, "b2")
	})
	e.Run()
	want := []string{"a1", "b1", "a2", "b2"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	e := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative At delay must panic")
		}
	}()
	e.At(-1, func() {})
}

func TestNegativeSleepPanics(t *testing.T) {
	e := New(1)
	e.Go("p", func(p *Proc) { p.Sleep(-5) })
	defer func() {
		if recover() == nil {
			t.Fatal("negative sleep must panic (via engine fault)")
		}
	}()
	e.Run()
}

func TestReleaseIdleResourcePanics(t *testing.T) {
	e := New(1)
	r := NewResource(e, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("releasing an idle resource must panic")
		}
	}()
	r.Release()
}

func TestZeroSleepIsNoop(t *testing.T) {
	e := New(1)
	ran := false
	e.Go("p", func(p *Proc) {
		p.Sleep(0)
		ran = true
		if p.Now() != 0 {
			t.Errorf("zero sleep advanced time to %v", p.Now())
		}
	})
	e.Run()
	if !ran {
		t.Fatal("proc never ran")
	}
}

func TestRunForFromIdle(t *testing.T) {
	e := New(1)
	e.RunFor(500)
	if e.Now() != 500 {
		t.Fatalf("Now = %v, want 500 (clock advances even with no events)", e.Now())
	}
}

func TestProcNameAndEngine(t *testing.T) {
	e := New(1)
	e.Go("worker-7", func(p *Proc) {
		if p.Name() != "worker-7" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine() mismatch")
		}
	})
	e.Run()
}

func TestResourceGrantsCounter(t *testing.T) {
	e := New(1)
	r := NewResource(e, 2)
	for i := 0; i < 5; i++ {
		e.Go("w", func(p *Proc) { r.Use(p, 10) })
	}
	e.Run()
	if r.Grants() != 5 {
		t.Fatalf("grants = %d, want 5", r.Grants())
	}
}

func TestQueueDrainAndLen(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	q.Push(1)
	q.Push(2)
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
	got := q.Drain()
	if len(got) != 2 || q.Len() != 0 {
		t.Fatalf("Drain = %v, Len = %d", got, q.Len())
	}
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on drained queue should fail")
	}
}
