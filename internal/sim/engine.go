package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point on (or a span of) the simulated clock, in nanoseconds.
type Time int64

// Convenient duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// String formats a Time with an adaptive unit, e.g. "12.5us" or "3.2ms".
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// A Runner is a unit of scheduled work: the engine calls Run once, on the
// engine goroutine, when the event's time comes. Run must not block. A
// *Proc is a Runner (Run resumes it), At adapts a func, a *Server serves
// its queue from its own Run, and a layer may pass Schedule a record it
// pools itself (see the package comment).
type Runner interface{ Run() }

// runFunc adapts a callback to Runner. Func values are pointer-shaped, so
// the interface holds fn itself: At boxes nothing.
type runFunc func()

func (f runFunc) Run() { f() }

// An event is one Runner due at (at, seq).
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	r   Runner
}

// before orders events by (at, seq). seq is unique, so this is a total
// order and the pop sequence does not depend on the heap's shape.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// New.
type Engine struct {
	now     Time
	events  []event // 4-ary min-heap ordered by event.before
	seq     uint64
	resumes uint64 // proc switches: events that were a Proc's Run
	rng     *rand.Rand
	procs   []*Proc // every proc created, running, parked or free
	free    []*Proc // finished procs whose coroutine awaits its next fn

	stopped bool // Stop was called during the current run
}

// New creates an engine with a deterministic random stream derived from
// seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Counts returns how many events have been scheduled and how many of the
// events run were proc resumes (a coroutine switch each, where any other
// event is a plain call). Both are exact for a seed.
func (e *Engine) Counts() (events, resumes uint64) { return e.seq, e.resumes }

// Rand returns the engine's deterministic random stream. It must only be
// used from simulation context (callbacks or procs).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run d nanoseconds from now. d must be >= 0. fn runs on
// the engine goroutine and must not block; use Go for blocking work.
func (e *Engine) At(d Time, fn func()) {
	e.Schedule(d, runFunc(fn))
}

// Schedule is At for a Runner. The engine has let go of r by the time it
// calls Run, so r may recycle itself from inside Run.
func (e *Engine) Schedule(d Time, r Runner) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.push(d, r)
}

// push queues r d nanoseconds from now, consuming one seq.
func (e *Engine) push(d Time, r Runner) {
	e.seq++
	ev := event{at: e.now + d, seq: e.seq, r: r}
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.events = h
}

// pop removes and returns the earliest event.
func (e *Engine) pop() event {
	h := e.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the Runner reference
	h = h[:n]
	i := 0
	for {
		child := 4*i + 1
		if child >= n {
			break
		}
		m, end := child, min(child+4, n)
		for j := child + 1; j < end; j++ {
			if h[j].before(&h[m]) {
				m = j
			}
		}
		if !h[m].before(&last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	e.events = h
	return top
}

// Run processes events until the event heap is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 {
		e.step()
	}
}

// RunUntil processes all events scheduled at or before t, then advances the
// clock to exactly t. If Stop aborts it the clock stays at the last event
// run, so a later Run or RunUntil resumes the remaining events.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && len(e.events) > 0 && e.events[0].at <= t {
		e.step()
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d nanoseconds (see RunUntil).
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Stop aborts the current Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// step runs the earliest event. A panic in a proc re-panics here, out of
// Run.
func (e *Engine) step() {
	ev := e.pop()
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	ev.r.Run()
}

// Shutdown terminates every process, started or not, so their goroutines
// exit; parked procs unwind their deferred calls. The engine must not be
// used afterwards. It is safe to call multiple times.
func (e *Engine) Shutdown() {
	// A dying proc's deferred calls may still spawn: with the free list
	// gone they get fresh procs, which the loop (by index) stops too.
	e.free = nil
	for i := 0; i < len(e.procs); i++ {
		e.procs[i].stop()
	}
	e.procs = nil
}

// wake schedules p to resume at the current time (FIFO among same-time
// events).
func (e *Engine) wake(p *Proc) {
	if p.wakeQueued {
		panic("sim: double wake of proc " + p.name)
	}
	p.wakeQueued = true
	e.push(0, p)
}
