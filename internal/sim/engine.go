package sim

import (
	"fmt"
	"math"
	"math/bits"
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
// pools itself — or queue one as a waiter on a Cond, Resource, Queue or
// Signal, which re-runs it (see the package comment).
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
// order and the pop sequence does not depend on where an event waits.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// The timer wheel's horizon in ns: an event due less than wheelSize from
// now waits in the wheel, a later one in the heap.
const (
	wheelSize = 1 << 14
	wheelMask = wheelSize - 1
)

// A slot is the FIFO of the wheel events due at one instant, as links into
// Engine.nodes; 0 is the nil link.
type slot struct{ head, tail int32 }

// A node is one wheel event and the link to the next one in its slot (or,
// while free, to the next free node).
type node struct {
	ev   event
	next int32
}

// Engine is a discrete-event simulator. The zero value is not usable; call
// New.
type Engine struct {
	now      Time
	seq      uint64
	resumes  uint64  // proc switches: events that were a Proc's Run
	events   []event // 4-ary min-heap of the events past the horizon, by event.before
	nodes    []node  // the wheel's events; nodes[0] is never used
	freeNode int32   // head of the free nodes' list
	inWheel  int     // events in the wheel
	rng      *rand.Rand
	procs    []*Proc // every proc created, running, parked or free
	free     []*Proc // finished procs whose coroutine awaits its next fn

	stopped bool // Stop was called during the current run

	digest *digest // the schedule digest, nil unless TrackDigest was called

	// The wheel. Every event in it is due in [now, now+wheelSize), so slot
	// at&wheelMask holds exactly the events due at at, in seq order. bits
	// marks the non-empty slots and summary the non-zero words of bits.
	wheel   [wheelSize]slot
	bits    [wheelSize / 64]uint64
	summary [wheelSize / 64 / 64]uint64
}

// New creates an engine with a deterministic random stream derived from
// seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed)), nodes: make([]node, 1)}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Counts returns how many events have been scheduled and how many of the
// events run were proc resumes (a coroutine switch each, where any other
// event is a plain call). Both are exact for a seed.
func (e *Engine) Counts() (events, resumes uint64) { return e.seq, e.resumes }

// TrackDigest turns the schedule digest (Digest) on from the next event
// run. Off, the default, an event run pays one nil check for it.
func (e *Engine) TrackDigest() {
	d := fnvOffset
	e.digest = &d
}

// Digest returns the schedule digest: FNV-1a over the time and seq of every
// event run since TrackDigest, in run order, then over the seq of the last
// event scheduled. Two runs of equal digests ran the same number of events
// at the same instants in the same order, and scheduled the same number. It
// is 0 while the digest is off.
func (e *Engine) Digest() uint64 {
	if e.digest == nil {
		return 0
	}
	d := *e.digest
	d.add(e.seq)
	return uint64(d)
}

// digest is a running 64-bit FNV-1a hash over little-endian words.
type digest uint64

const (
	fnvOffset digest = 14695981039346656037
	fnvPrime  digest = 1099511628211
)

func (d *digest) add(v uint64) {
	h := *d
	for range 8 {
		h ^= digest(v & 0xff)
		h *= fnvPrime
		v >>= 8
	}
	*d = h
}

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

// push queues r d nanoseconds from now, consuming one seq. An event within
// the horizon is appended to its slot: its seq is the highest yet, so the
// slot stays in seq order without a sift.
func (e *Engine) push(d Time, r Runner) {
	e.seq++
	ev := event{at: e.now + d, seq: e.seq, r: r}
	if d < wheelSize {
		i := e.freeNode
		if i == 0 {
			i = int32(len(e.nodes))
			e.nodes = append(e.nodes, node{ev: ev})
		} else {
			e.freeNode = e.nodes[i].next
			e.nodes[i] = node{ev: ev}
		}
		s := int(ev.at) & wheelMask
		if sl := &e.wheel[s]; sl.head == 0 {
			sl.head, sl.tail = i, i
			e.bits[s>>6] |= 1 << (s & 63)
			e.summary[s>>12] |= 1 << (s >> 6 & 63)
		} else {
			e.nodes[sl.tail].next = i
			sl.tail = i
		}
		e.inWheel++
		return
	}
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

// first returns the earliest pending event, nil if there is none, and the
// wheel slot whose head it is, or -1 for the heap's top. The wheel's
// earliest slot is the first set bit at or after now's, circularly. A
// timer past the horizon when it was pushed may since have come due before
// that slot's head, or at the same instant with a lower seq: the two are
// compared by event.before, never wheel-first.
func (e *Engine) first() (*event, int) {
	var top *event
	if len(e.events) > 0 {
		top = &e.events[0]
	}
	if e.inWheel == 0 {
		return top, -1
	}
	s := int(e.now) & wheelMask
	if m := e.bits[s>>6] >> (s & 63); m != 0 {
		s += bits.TrailingZeros64(m)
	} else {
		w := e.nextWord(s>>6 + 1)
		if w < 0 {
			w = e.nextWord(0)
		}
		s = w<<6 + bits.TrailingZeros64(e.bits[w])
	}
	ev := &e.nodes[e.wheel[s].head].ev
	if top != nil && top.before(ev) {
		return top, -1
	}
	return ev, s
}

// nextWord returns the first non-zero word of bits at or after from, or -1.
func (e *Engine) nextWord(from int) int {
	for i := from >> 6; i < len(e.summary); i, from = i+1, (i+1)<<6 {
		if m := e.summary[i] >> (from & 63); m != 0 {
			return from + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// take removes and returns the head of wheel slot s. The node is zeroed
// (dropping the Runner reference) and goes on the free list.
func (e *Engine) take(s int) event {
	sl := &e.wheel[s]
	i := sl.head
	n := &e.nodes[i]
	ev := n.ev
	sl.head = n.next
	*n = node{next: e.freeNode}
	e.freeNode = i
	if sl.head == 0 {
		sl.tail = 0
		if e.bits[s>>6] &^= 1 << (s & 63); e.bits[s>>6] == 0 {
			e.summary[s>>12] &^= 1 << (s >> 6 & 63)
		}
	}
	e.inWheel--
	return ev
}

// pop removes and returns the heap's earliest event.
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

// Run processes events until none is left or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.step(math.MaxInt64) {
	}
}

// RunUntil processes all events scheduled at or before t, then advances the
// clock to exactly t. If Stop aborts it the clock stays at the last event
// run, so a later Run or RunUntil resumes the remaining events. The clock
// jumps only past instants with nothing due, so every wheel event is still
// within the horizon of the new now.
func (e *Engine) RunUntil(t Time) {
	e.stopped = false
	for !e.stopped && e.step(t) {
	}
	if !e.stopped && e.now < t {
		e.now = t
	}
}

// RunFor advances the simulation by d nanoseconds (see RunUntil).
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// Stop aborts the current Run/RunUntil after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// step runs the earliest event if it is due at or before t, and reports
// whether it ran one. A panic in a proc re-panics here, out of Run.
func (e *Engine) step(t Time) bool {
	first, s := e.first()
	if first == nil || first.at > t {
		return false
	}
	var ev event
	if s < 0 {
		ev = e.pop()
	} else {
		ev = e.take(s)
	}
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	if e.digest != nil {
		e.digest.add(uint64(ev.at))
		e.digest.add(ev.seq)
	}
	ev.r.Run()
	return true
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

// wake schedules waiter w to run at the current time (FIFO among same-time
// events): a proc resumes, any other Runner is re-run.
func (e *Engine) wake(w Runner) {
	if p, ok := w.(*Proc); ok {
		if p.wakeQueued {
			panic("sim: double wake of proc " + p.name)
		}
		p.wakeQueued = true
	}
	e.push(0, w)
}

// Sleep holds w for d nanoseconds and reports whether it may go on now. A
// *Proc blocks for d (true); any other Runner is scheduled d from now and
// gets false. A zero d holds nothing — true at once, no event — exactly as
// Proc.Sleep(0).
func (e *Engine) Sleep(w Runner, d Time) bool {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return true
	}
	if p, ok := w.(*Proc); ok {
		p.Sleep(d)
		return true
	}
	e.push(d, w)
	return false
}
