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

// An event is either a callback (fn) or a proc resumption (p). Carrying the
// *Proc in the event keeps Sleep, wake and Go from allocating a closure.
type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among same-time events
	fn  func()
	p   *Proc
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
	rng     *rand.Rand
	procs   []*Proc // every proc created, running, parked or free
	free    []*Proc // finished procs whose coroutine awaits its next fn
	stopped bool
}

// New creates an engine with a deterministic random stream derived from
// seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random stream. It must only be
// used from simulation context (callbacks or procs).
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run d nanoseconds from now. d must be >= 0. fn runs on
// the engine goroutine and must not block; use Go for blocking work.
func (e *Engine) At(d Time, fn func()) {
	if d < 0 {
		panic("sim: negative delay")
	}
	e.push(d, fn, nil)
}

// push schedules fn (or the resumption of p) d nanoseconds from now,
// consuming one seq.
func (e *Engine) push(d Time, fn func(), p *Proc) {
	e.seq++
	ev := event{at: e.now + d, seq: e.seq, fn: fn, p: p}
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
	h[n] = event{} // drop the fn and proc references
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
	e.runWhile(func() bool { return len(e.events) > 0 })
}

// RunUntil processes all events scheduled at or before t, then advances the
// clock to exactly t.
func (e *Engine) RunUntil(t Time) {
	e.runWhile(func() bool {
		return len(e.events) > 0 && e.events[0].at <= t
	})
	if e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d nanoseconds (see RunUntil).
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Stop aborts the current Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

func (e *Engine) runWhile(cond func() bool) {
	e.stopped = false
	for !e.stopped && cond() {
		ev := e.pop()
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		if ev.p != nil {
			// Switch to the proc until it parks or finishes. A panic in
			// the proc re-panics here, out of Run.
			ev.p.wakeQueued = false
			ev.p.next()
		} else {
			ev.fn()
		}
	}
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
	e.push(0, nil, p)
}
