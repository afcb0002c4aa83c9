package sim

import "testing"

// Host-clock microbenchmarks for the engine's hot primitives (`make
// bench-sim`). One op is one scheduled callback, one sleep, one hand-off,
// one Use, one signal round trip or one spawned proc.

func BenchmarkAtRun(b *testing.B) {
	e := New(1)
	cnt := 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.At(Time(i%97), func() { cnt++ })
	}
	e.Run()
}

// BenchmarkScheduleRun is BenchmarkAtRun with a pooled Runner in place of
// a closure: what a fabric delivery or an SSD completion costs the engine.
func BenchmarkScheduleRun(b *testing.B) {
	e := New(1)
	pool := &tickPool{eng: e}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pool.schedule(Time(i % 97))
		if i%64 == 63 {
			e.Run() // bounded in flight, so fired ticks are reused
		}
	}
	e.Run()
}

func BenchmarkProcSleep(b *testing.B) {
	e := New(1)
	defer e.Shutdown()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(10)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkQueueHandoff(b *testing.B) {
	e := New(1)
	defer e.Shutdown()
	q := NewQueue[int](e)
	e.Go("consumer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Pop(p)
		}
	})
	e.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			p.Yield()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkServerHandoff is BenchmarkQueueHandoff plus BenchmarkProcSleep
// for a consumer that never blocks mid-item: push → start → timed finish on
// a Server, which is what a fabric link direction or an SSD channel costs
// per item. The finish pushes the next item, so the server goes idle and
// is woken once per op.
func BenchmarkServerHandoff(b *testing.B) {
	e := New(1)
	left := b.N
	var srv *Server[int]
	push := func() { srv.Push(left) }
	srv = NewServer(e, func(int) (Time, bool) { return 10, true }, func(int) {
		if left--; left > 0 {
			e.At(1, push)
		}
	})
	push()
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkResourceUse(b *testing.B) {
	e := New(1)
	defer e.Shutdown()
	r := NewResource(e, 1)
	// Two users on one unit: every other Acquire is contended.
	for u := 0; u < 2; u++ {
		e.Go("user", func(p *Proc) {
			for i := u; i < b.N; i += 2 {
				r.Use(p, 10)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkCondSignal(b *testing.B) {
	e := New(1)
	defer e.Shutdown()
	ping, pong := NewCond(e), NewCond(e)
	e.Go("echo", func(p *Proc) {
		for {
			ping.Wait(p)
			pong.Signal()
		}
	})
	e.Go("caller", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.Signal()
			pong.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkGoSpawn is the ssd.Submit pattern: a short-lived proc per
// command, a bounded number in flight, so finished procs are recycled.
func BenchmarkGoSpawn(b *testing.B) {
	e := New(1)
	defer e.Shutdown()
	e.Go("submitter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			e.Go("cmd", func(cp *Proc) { cp.Sleep(30) })
			p.Sleep(10)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkGoSpawnBurst spawns up to 10 k procs before the engine runs, so none
// can be recycled: each pays for a fresh coroutine. This is the one pattern
// where the coroutine substrate allocates more than goroutine+channel did.
func BenchmarkGoSpawnBurst(b *testing.B) {
	const burst = 10000
	b.ReportAllocs()
	for left := b.N; left > 0; left -= burst {
		e := New(1)
		for j := 0; j < min(left, burst); j++ {
			e.Go("burst", func(p *Proc) { p.Sleep(1) })
		}
		e.Run()
		e.Shutdown()
	}
}
