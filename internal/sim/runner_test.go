package sim

import (
	"slices"
	"testing"
)

// waiterRec is one step of the waiter scenario: when, how many seqs had
// been spent, who took it and what it was.
type waiterRec struct {
	at  Time
	seq uint64
	who string
	tag int
}

// waiterScene is what the scenario's consumers wait on.
type waiterScene struct {
	e    *Engine
	q    *Queue[int]
	cpu  *Resource // 2 units: consumers and background procs contend
	gate *Cond
	sig  *Signal
	rec  func(who string, tag int)

	// What only Runner consumers can count: waits that queued them rather
	// than passing (a proc cannot tell a blocking call from a passing one).
	queued map[string]int
}

// cost is the CPU time an item takes, 0 for every third one: a zero charge
// schedules nothing, as Sleep(0).
func cost(v int) Time { return Time(v % 3) }

// procConsumer is the reference: a proc that pops an item, charges the CPU
// for it, waits on the gate for every fourth item and on the signal for
// item 13.
func procConsumer(s *waiterScene, who string) {
	s.e.Go(who, func(p *Proc) {
		for {
			v := s.q.Pop(p)
			s.rec(who, 1000+v)
			s.cpu.Acquire(p)
			p.Sleep(cost(v))
			s.cpu.Release()
			s.rec(who, 2000+v)
			if v%4 == 0 {
				s.gate.Wait(p)
				s.rec(who, 3000+v)
			}
			if v == 13 {
				s.sig.Wait(p)
				s.rec(who, 4000+v)
			}
		}
	})
}

// runnerConsumer is procConsumer as a Runner: the same code cut at every
// wait, resuming at step.
type runnerConsumer struct {
	s    *waiterScene
	who  string
	v    int
	step int
}

func startRunnerConsumer(s *waiterScene, who string) {
	s.e.Schedule(0, &runnerConsumer{s: s, who: who})
}

func (c *runnerConsumer) Run() {
	s := c.s
	for {
		switch c.step {
		case 0: // take an item and a core
			v, ok := s.q.Take(c)
			if !ok {
				s.queued["take"]++
				return
			}
			c.v = v
			s.rec(c.who, 1000+v)
			c.step = 1
			if !s.cpu.Acquire(c) {
				s.queued["acquire"]++
				return
			}
		case 1: // hold the core for the item's cost
			c.step = 2
			if !s.e.Sleep(c, cost(c.v)) {
				return
			}
		case 2:
			s.cpu.Release()
			s.rec(c.who, 2000+c.v)
			c.step = 4
			if c.v%4 == 0 {
				c.step = 3
				s.gate.Wait(c)
				s.queued["cond"]++
				return
			}
		case 3:
			s.rec(c.who, 3000+c.v)
			c.step = 4
		case 4:
			c.step = 0
			if c.v == 13 {
				c.step = 5
			}
		case 5:
			if !s.sig.Wait(c) {
				s.queued["signal"]++
				return
			}
			s.rec(c.who, 4000+c.v)
			c.step = 0
		}
	}
}

// stepConsumer is procConsumer on Step: Take, then Charge, then the gate as
// a called sequence that returns through Back, then the signal. Its waits
// name Waiter(), so its steps also run in a proc's place (startCallConsumer).
type stepConsumer struct {
	Step[stepConsumer]
	s   *waiterScene
	who string
	v   int
}

func startStepConsumer(s *waiterScene, who string) {
	c := &stepConsumer{s: s, who: who}
	c.Start(s.e, s.cpu, c, (*stepConsumer).take)
}

// startCallConsumer is a proc that runs stepConsumer's steps in its own
// place. The steps never end, so Call returns only if a wait queued the
// record instead of blocking the proc; that step is in the trace.
func startCallConsumer(s *waiterScene, who string) {
	c := &stepConsumer{s: s, who: who}
	c.Bind(s.e, s.cpu, c)
	s.e.Go(who, func(p *Proc) {
		c.Call(p, (*stepConsumer).take)
		s.rec(who, -1)
	})
}

func (c *stepConsumer) take() bool {
	v, ok := c.s.q.Take(c.Waiter())
	if !ok {
		return false
	}
	c.v = v
	c.s.rec(c.who, 1000+v)
	return c.Charge(cost(v), (*stepConsumer).charged)
}

func (c *stepConsumer) charged() bool {
	c.s.rec(c.who, 2000+c.v)
	if c.v%4 == 0 {
		c.Ret = (*stepConsumer).signal
		c.To((*stepConsumer).gated)
		return c.s.gate.Wait(c.Waiter())
	}
	return c.To((*stepConsumer).signal)
}

func (c *stepConsumer) gated() bool {
	c.s.rec(c.who, 3000+c.v)
	return c.Back()
}

func (c *stepConsumer) signal() bool {
	if c.v == 13 {
		if !c.s.sig.Wait(c.Waiter()) {
			return false
		}
		c.s.rec(c.who, 4000+c.v)
	}
	return c.To((*stepConsumer).take)
}

// waiterTrace runs the scenario with the two consumers started by start and
// returns every step. The producer and three background procs fight the
// consumers for the 2-unit CPU, so its waiter ring holds procs and Runners
// in turn; pushes land on idle and busy consumers, so Pop's hand-on signal
// to the second consumer fires; the gate is broadcast with both consumers
// on it; and the signal fires with a consumer waiting.
func waiterTrace(start func(*waiterScene, string)) ([]waiterRec, map[string]int) {
	e := New(5)
	defer e.Shutdown()
	var tr []waiterRec
	s := &waiterScene{
		e: e, q: NewQueue[int](e), cpu: NewResource(e, 2), gate: NewCond(e), sig: NewSignal(e),
		queued: map[string]int{},
	}
	s.rec = func(who string, tag int) {
		tr = append(tr, waiterRec{e.now, e.seq, who, tag})
		// Does the CPU's waiter ring hold a proc and a Runner at once?
		var procs, runners int
		for i := 0; i < s.cpu.waiters.n; i++ {
			if _, ok := s.cpu.waiters.buf[(s.cpu.waiters.head+i)&(len(s.cpu.waiters.buf)-1)].(*Proc); ok {
				procs++
			} else {
				runners++
			}
		}
		if procs > 0 && runners > 0 {
			s.queued["mixed"]++
		}
	}

	start(s, "A")
	start(s, "B")
	for b := 0; b < 3; b++ {
		e.Go("bg", func(p *Proc) {
			for k := 0; k < 20; k++ {
				p.Sleep(Time(e.Rand().Intn(3)))
				s.cpu.Use(p, Time(2+e.Rand().Intn(4)))
				s.rec("bg", 5000+b)
			}
		})
	}
	e.Go("producer", func(p *Proc) {
		for v := 1; v <= 24; v++ {
			s.q.Push(v)
			if v%3 == 0 {
				s.q.Push(100 + v) // two at once: the second consumer is signalled on
			}
			s.rec("producer", 6000+v)
			p.Sleep(Time(e.Rand().Intn(5)))
		}
	})
	for _, at := range []Time{9, 20, 33, 50, 80} {
		e.At(at, func() {
			s.rec("gate", 7000+int(at))
			s.gate.Broadcast()
		})
	}
	e.At(60, func() {
		s.rec("sig", 8000)
		s.sig.Fire()
	})
	e.Run()
	s.rec("end", 9999)
	return tr, s.queued
}

// A Runner waiter — hand-written or on Step — must be indistinguishable
// from the proc it stands in for: the same steps at the same (at, seq), so
// turning a proc consumer into a Runner moves no simulated number. Steps a
// proc Calls in its own place must be indistinguishable from its own code.
func TestRunnerWaitersMatchProcs(t *testing.T) {
	want, _ := waiterTrace(procConsumer)
	got, queued := waiterTrace(startRunnerConsumer)
	steps, stepQueued := waiterTrace(startStepConsumer)
	called, _ := waiterTrace(startCallConsumer)
	for name, got := range map[string][]waiterRec{"runners": got, "steps": steps, "called steps": called} {
		for i := 0; i < len(want) && i < len(got); i++ {
			if got[i] != want[i] {
				t.Fatalf("step %d: %s %+v, procs %+v", i, name, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s made %d steps, procs %d", name, len(got), len(want))
		}
	}
	if stepQueued["mixed"] == 0 {
		t.Error("the CPU never queued a proc and a Step at once")
	}

	// The schedule must have exercised each wait it claims to.
	for _, w := range []string{"take", "acquire", "cond", "signal", "mixed"} {
		if queued[w] == 0 {
			t.Errorf("no Runner consumer ever queued on %s", w)
		}
	}
	has := func(tag int) bool { return slices.ContainsFunc(want, func(r waiterRec) bool { return r.tag == tag }) }
	if !has(4013) {
		t.Error("item 13 never passed the signal")
	}
	// A broadcast with both consumers on the gate: both pass it at the
	// broadcast's instant.
	both := false
	for _, g := range want {
		if g.who != "gate" {
			continue
		}
		woken := map[string]bool{}
		for _, r := range want {
			if r.at == g.at && r.tag/1000 == 3 {
				woken[r.who] = true
			}
		}
		both = both || len(woken) == 2
	}
	if !both {
		t.Error("no broadcast woke both consumers")
	}
}
