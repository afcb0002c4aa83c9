package sim

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.500us"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestCallbackOrdering(t *testing.T) {
	e := New(1)
	var order []int
	e.At(20, func() { order = append(order, 2) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 3) }) // same time: FIFO
	e.At(30, func() { order = append(order, 4) })
	e.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now() = %v, want 30", e.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	e := New(1)
	var fired []Time
	e.At(5, func() {
		e.At(5, func() { fired = append(fired, e.Now()) })
	})
	e.Run()
	if len(fired) != 1 || fired[0] != 10 {
		t.Fatalf("fired = %v, want [10]", fired)
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i)*10, func() { count++ })
	}
	e.RunUntil(50)
	if count != 5 {
		t.Fatalf("count = %d after RunUntil(50), want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("Now() = %v, want 50", e.Now())
	}
	e.RunUntil(100)
	if count != 10 {
		t.Fatalf("count = %d after RunUntil(100), want 10", count)
	}
}

func TestProcSleep(t *testing.T) {
	e := New(1)
	var wakeups []Time
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(100)
			wakeups = append(wakeups, p.Now())
		}
	})
	e.Run()
	want := []Time{100, 200, 300}
	for i := range want {
		if wakeups[i] != want[i] {
			t.Fatalf("wakeups = %v, want %v", wakeups, want)
		}
	}
}

func TestProcInterleaving(t *testing.T) {
	e := New(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		p.Sleep(10)
		trace = append(trace, "a10")
		p.Sleep(20)
		trace = append(trace, "a30")
	})
	e.Go("b", func(p *Proc) {
		p.Sleep(15)
		trace = append(trace, "b15")
		p.Sleep(20)
		trace = append(trace, "b35")
	})
	e.Run()
	want := []string{"a10", "b15", "a30", "b35"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := New(1)
	e.Go("bad", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected engine to re-panic proc failure")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, `proc "bad"`) || !strings.Contains(msg, "boom") {
			t.Fatalf("panic %q does not name the proc and its panic value", msg)
		}
	}()
	e.Run()
}

func TestShutdownReleasesParkedProcs(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	done, unwound := false, false
	e.Go("waiter", func(p *Proc) {
		defer func() { unwound = true }()
		c.Wait(p) // never signalled
		done = true
	})
	e.Run()
	e.Shutdown()
	if done {
		t.Fatal("waiter should not have completed normally")
	}
	if !unwound {
		t.Fatal("killed waiter did not run its deferred calls")
	}
	if len(e.procs) != 0 {
		t.Fatalf("procs still tracked after Shutdown: %d", len(e.procs))
	}
}

func TestCondBroadcastWakesAllFIFO(t *testing.T) {
	e := New(1)
	c := NewCond(e)
	var order []int
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			c.Wait(p)
			order = append(order, i)
		})
	}
	e.At(50, func() { c.Broadcast() })
	e.Run()
	if len(order) != 3 {
		t.Fatalf("order = %v, want 3 wakeups", order)
	}
	for i := range order {
		if order[i] != i {
			t.Fatalf("order = %v, want FIFO [0 1 2]", order)
		}
	}
}

func TestSignalFireBeforeAndAfterWait(t *testing.T) {
	e := New(1)
	s := NewSignal(e)
	var at []Time
	e.Go("early", func(p *Proc) {
		s.Wait(p)
		at = append(at, p.Now())
	})
	e.Go("late", func(p *Proc) {
		p.Sleep(200)
		s.Wait(p) // already fired: returns immediately
		at = append(at, p.Now())
	})
	e.At(100, func() { s.Fire() })
	e.Run()
	if len(at) != 2 || at[0] != 100 || at[1] != 200 {
		t.Fatalf("wait completion times = %v, want [100 200]", at)
	}
	s.Fire() // double fire is a no-op
	if !s.Fired() {
		t.Fatal("signal should be fired")
	}
}

func TestResourceFIFOAndExclusion(t *testing.T) {
	e := New(1)
	r := NewResource(e, 1)
	var trace []string
	worker := func(name string, start Time) {
		e.Go(name, func(p *Proc) {
			p.Sleep(start)
			r.Acquire(p)
			trace = append(trace, name+"+")
			p.Sleep(100)
			trace = append(trace, name+"-")
			r.Release()
		})
	}
	worker("a", 0)
	worker("b", 10)
	worker("c", 20)
	e.Run()
	want := []string{"a+", "a-", "b+", "b-", "c+", "c-"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if e.Now() != 300 {
		t.Fatalf("end time = %v, want 300", e.Now())
	}
}

func TestResourceBusyTimeIntegral(t *testing.T) {
	e := New(1)
	r := NewResource(e, 2)
	e.Go("u1", func(p *Proc) { r.Use(p, 100) })
	e.Go("u2", func(p *Proc) { r.Use(p, 300) })
	e.Run()
	// u1 busy 100, u2 busy 300 => integral 400 unit-ns.
	if got := r.BusyTime(); got != 400 {
		t.Fatalf("BusyTime = %v, want 400", got)
	}
	// Utilization over [0,300] with 2 units: 400/(2*300) = 2/3.
	util := float64(r.BusyTime()) / (2 * 300)
	if util < 0.66 || util > 0.67 {
		t.Fatalf("utilization = %f, want ~0.667", util)
	}
}

func TestResourceCapacityParallelism(t *testing.T) {
	e := New(1)
	r := NewResource(e, 3)
	var finished []Time
	for i := 0; i < 6; i++ {
		e.Go("w", func(p *Proc) {
			r.Use(p, 100)
			finished = append(finished, p.Now())
		})
	}
	e.Run()
	// 6 jobs of 100ns on 3 units: batch 1 at t=100, batch 2 at t=200.
	if e.Now() != 200 {
		t.Fatalf("makespan = %v, want 200", e.Now())
	}
	n100 := 0
	for _, f := range finished {
		if f == 100 {
			n100++
		}
	}
	if n100 != 3 {
		t.Fatalf("finished at t=100: %d, want 3 (finish times %v)", n100, finished)
	}
}

func TestResourceTryAcquire(t *testing.T) {
	e := New(1)
	r := NewResource(e, 1)
	e.Go("w", func(p *Proc) {
		if !r.TryAcquire() {
			t.Error("first TryAcquire should succeed")
		}
		if r.TryAcquire() {
			t.Error("second TryAcquire should fail")
		}
		r.Release()
	})
	e.Run()
	if r.InUse() != 0 {
		t.Fatalf("InUse = %d, want 0", r.InUse())
	}
}

func TestQueueBlockingPop(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	var got []int
	var popAt []Time
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
			popAt = append(popAt, p.Now())
		}
	})
	e.At(10, func() { q.Push(1) })
	e.At(10, func() { q.Push(2) })
	e.At(30, func() { q.Push(3) })
	e.Run()
	if got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got = %v, want [1 2 3]", got)
	}
	if popAt[2] != 30 {
		t.Fatalf("third pop at %v, want 30", popAt[2])
	}
}

func TestQueueMultipleConsumers(t *testing.T) {
	e := New(1)
	q := NewQueue[int](e)
	sum := 0
	for i := 0; i < 2; i++ {
		e.Go("c", func(p *Proc) {
			for j := 0; j < 2; j++ {
				sum += q.Pop(p)
				p.Sleep(5)
			}
		})
	}
	e.At(1, func() {
		for v := 1; v <= 4; v++ {
			q.Push(v)
		}
	})
	e.Run()
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
}

func TestWaitGroup(t *testing.T) {
	e := New(1)
	wg := NewWaitGroup(e)
	wg.Add(3)
	var doneAt Time
	e.Go("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	for i := 1; i <= 3; i++ {
		d := Time(i) * 100
		e.At(d, func() { wg.Done() })
	}
	e.Run()
	if doneAt != 300 {
		t.Fatalf("waiter finished at %v, want 300", doneAt)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		e := New(42)
		var trace []Time
		q := NewQueue[int](e)
		r := NewResource(e, 2)
		for i := 0; i < 4; i++ {
			e.Go("p", func(p *Proc) {
				for j := 0; j < 5; j++ {
					d := Time(e.Rand().Intn(50) + 1)
					p.Sleep(d)
					r.Use(p, 10)
					q.Push(j)
					trace = append(trace, p.Now())
				}
			})
		}
		e.Run()
		e.Shutdown()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of jobs on a capacity-c resource, the busy integral
// equals the sum of job durations, and the makespan is at least
// ceil(total/c) and at least the longest job.
func TestResourceConservationProperty(t *testing.T) {
	f := func(durs []uint16, capRaw uint8) bool {
		c := int(capRaw%8) + 1
		if len(durs) > 40 {
			durs = durs[:40]
		}
		e := New(7)
		r := NewResource(e, c)
		var total Time
		var longest Time
		for _, d16 := range durs {
			d := Time(d16%1000) + 1
			total += d
			if d > longest {
				longest = d
			}
			e.Go("w", func(p *Proc) { r.Use(p, d) })
		}
		e.Run()
		if r.BusyTime() != total {
			return false
		}
		if len(durs) == 0 {
			return true
		}
		makespan := e.Now()
		lower := total / Time(c)
		return makespan >= lower && makespan >= longest
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
