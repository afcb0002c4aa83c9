package sim

import "testing"

// Host-clock microbenchmarks for the engine's hot primitives (`make
// bench-sim`). One op is one scheduled callback, one same-instant
// reschedule, one sleep, one hand-off, one Use, one signal round trip or one
// spawned proc.

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

// BenchmarkZeroDelayHandoff is a same-instant hand-off — a wake-up, a
// Runner waiter re-run — while 24 timers wait in later slots of the wheel:
// one op is a Runner rescheduling itself at d = 0.
func BenchmarkZeroDelayHandoff(b *testing.B) {
	e := New(1)
	for i := 1; i <= 24; i++ {
		e.At(Time(i), func() {})
	}
	h := &handoff{eng: e, left: b.N}
	e.Schedule(0, h)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

type handoff struct {
	eng  *Engine
	left int
}

func (h *handoff) Run() {
	if h.left--; h.left > 0 {
		h.eng.Schedule(0, h)
	}
}

// timerMix is the eight commonest non-zero delays of the blk_rand4k
// benchmark workload, in ns: 78.5 % of its timers.
var timerMix = [...]Time{700, 500, 2000, 200, 300, 600, 12000, 1200}

// BenchmarkTimerMix replays the ordered write path's event mix: 33 timers
// pending (the mean the queue held there), each re-armed from timerMix as
// it fires, and a zero-delay hand-off after every other firing, so about a
// third of the events are due at now. One op is one event of either kind.
func BenchmarkTimerMix(b *testing.B) {
	e := New(1)
	left := b.N
	for i := 0; i < 33; i++ {
		e.Schedule(timerMix[i%len(timerMix)], &mixTimer{eng: e, left: &left, n: i})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

type mixTimer struct {
	eng  *Engine
	left *int
	n    int
}

func (m *mixTimer) Run() {
	if *m.left--; *m.left <= 0 {
		return
	}
	if m.n++; m.n%2 == 0 {
		m.eng.Schedule(0, mixHandoff{m.left})
	}
	m.eng.Schedule(timerMix[m.n%len(timerMix)], m)
}

type mixHandoff struct{ left *int }

func (h mixHandoff) Run() { *h.left-- }

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

// BenchmarkResourceUseRunner is BenchmarkResourceUse with Step users:
// Charge acquires or queues, holds the unit 10 ns and releases — a target
// context's or a reaper's CPU charge, with no coroutine switch.
func BenchmarkResourceUseRunner(b *testing.B) {
	e := New(1)
	r := NewResource(e, 1)
	for u := 0; u < 2; u++ {
		s := &useStep{left: (b.N + 1 - u) / 2}
		s.Start(e, r, s, (*useStep).use)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceUseCall is BenchmarkResourceUse with each Use a Step
// sequence the proc Calls in its own place: a thread's dispatch through a
// bound record, which adds no event and no switch to the proc's own.
func BenchmarkResourceUseCall(b *testing.B) {
	e := New(1)
	defer e.Shutdown()
	r := NewResource(e, 1)
	for u := 0; u < 2; u++ {
		s := &useStep{}
		s.Bind(e, r, s)
		e.Go("user", func(p *Proc) {
			for i := u; i < b.N; i += 2 {
				s.left = 1
				s.Call(p, (*useStep).use)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// useStep charges its unit left times, 10 ns each.
type useStep struct {
	Step[useStep]
	left int
}

func (u *useStep) use() bool {
	if u.left == 0 {
		return false
	}
	u.left--
	return u.Charge(10, (*useStep).use)
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

// BenchmarkGoSpawn is a short-lived proc per operation (recovery's erase
// procs, the per-fsync journal commit), a bounded number in flight, so
// finished procs are recycled.
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
