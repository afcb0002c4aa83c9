package sim

// ring is a FIFO over a power-of-two circular buffer. Unlike s = s[1:] it
// keeps its capacity across pops and zeroes popped slots, so a steady-state
// push/pop cycle neither allocates nor pins popped values.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		buf := make([]T, max(4, 2*len(r.buf)))
		k := copy(buf, r.buf[r.head:])
		copy(buf[k:], r.buf[:r.head])
		r.buf, r.head = buf, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// pop removes and returns the oldest element; the ring must not be empty.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// drain removes and returns every element, oldest first.
func (r *ring[T]) drain() []T {
	v := make([]T, 0, r.n)
	for r.n > 0 {
		v = append(v, r.pop())
	}
	return v
}

// FreeList recycles records of one type for the layer that owns them (a
// pooled Runner returns itself from Run). The zero value is ready; Get hands
// back a recycled record as Put left it, or a new zero one.
type FreeList[T any] struct{ free []*T }

func (f *FreeList[T]) Get() *T {
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free = f.free[:n-1]
		return x
	}
	return new(T)
}

func (f *FreeList[T]) Put(x *T) { f.free = append(f.free, x) }

// Cond is a condition variable for simulated processes. Unlike sync.Cond
// there is no associated lock: simulation state is only ever touched by one
// goroutine at a time, so waiters re-check their predicate in a loop after
// waking.
type Cond struct {
	eng *Engine
	// The longest waiter sits in first and the rest queue behind it in
	// waiters (first == nil means nobody waits), so a Cond that only ever
	// has one waiter — a completion Signal — never allocates a ring.
	first   *Proc
	waiters ring[*Proc]
}

// NewCond creates a condition variable on e.
func NewCond(e *Engine) *Cond { return &Cond{eng: e} }

// Wait parks p until Broadcast or Signal wakes it.
func (c *Cond) Wait(p *Proc) {
	if c.first == nil {
		c.first = p
	} else {
		c.waiters.push(p)
	}
	p.park()
}

// Broadcast wakes every waiter (they resume at the current time, in FIFO
// order).
func (c *Cond) Broadcast() {
	for c.first != nil {
		c.Signal()
	}
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	p := c.first
	if p == nil {
		return
	}
	c.first = nil
	if c.waiters.n > 0 {
		c.first = c.waiters.pop()
	}
	c.eng.wake(p)
}

// Signal is a one-shot completion event: once Fired, all current and future
// waiters proceed immediately. It is the simulated analogue of closing a
// channel, used for I/O completions.
type Signal struct {
	fired bool
	cond  Cond
}

// NewSignal creates an unfired signal.
func NewSignal(e *Engine) *Signal { return new(Signal).Init(e) }

// Init prepares signal storage the caller owns (a Signal embedded in the
// record whose completion it reports) and returns it, unfired.
func (s *Signal) Init(e *Engine) *Signal {
	*s = Signal{cond: Cond{eng: e}}
	return s
}

// Fire marks the signal complete and wakes all waiters. Firing twice is a
// no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	s.cond.Broadcast()
}

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Reset returns a fired signal to the unfired state so its storage can be
// reused (pooled one-shot completions). Resetting a signal that still has
// waiters would strand them, so it panics.
func (s *Signal) Reset() {
	if s.cond.first != nil {
		panic("sim: reset of a signal with waiters")
	}
	s.fired = false
}

// Wait blocks p until the signal fires (returning immediately if it already
// has).
func (s *Signal) Wait(p *Proc) {
	for !s.fired {
		s.cond.Wait(p)
	}
}

// Resource is a counted resource (CPU cores, SSD channels, a network link)
// with FIFO admission and a busy-time integral for utilization accounting.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	waiters  ring[*Proc]
	lastT    Time
	busyInt  Time // ∫ inUse dt, in unit-nanoseconds
	grants   int64
}

// NewResource creates a resource with the given capacity (number of
// concurrently held units).
func NewResource(e *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: e, capacity: capacity}
}

// Capacity returns the configured number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

func (r *Resource) account() {
	now := r.eng.now
	r.busyInt += Time(r.inUse) * (now - r.lastT)
	r.lastT = now
}

// Acquire blocks p until a unit is available, FIFO among waiters.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && r.waiters.n == 0 {
		r.account()
		r.inUse++
		r.grants++
		return
	}
	p.granted = false
	r.waiters.push(p)
	for !p.granted {
		p.park()
	}
}

// TryAcquire acquires a unit without blocking, reporting success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity && r.waiters.n == 0 {
		r.account()
		r.inUse++
		r.grants++
		return true
	}
	return false
}

// Release returns a unit. If processes are waiting the unit transfers to
// the head waiter at the current time.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource")
	}
	if r.waiters.n > 0 {
		// Hand the unit over directly: inUse is unchanged, so the busy
		// integral sees no idle gap.
		p := r.waiters.pop()
		p.granted = true
		r.grants++
		r.eng.wake(p)
		return
	}
	r.account()
	r.inUse--
}

// Use acquires a unit, holds it for d nanoseconds, and releases it. This is
// the common "spend d of CPU/channel time" idiom.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// BusyTime returns the busy-time integral ∫ inUse dt up to now. Utilization
// over a window [a,b] is (BusyTime(b)-BusyTime(a)) / (capacity*(b-a)).
func (r *Resource) BusyTime() Time {
	r.account()
	return r.busyInt
}

// Grants returns the cumulative number of acquisitions, useful in tests.
func (r *Resource) Grants() int64 { return r.grants }

// Queue is an unbounded FIFO whose Pop blocks simulated processes until an
// item arrives. Push never blocks and is callable from callbacks.
type Queue[T any] struct {
	items ring[T]
	cond  Cond
}

// NewQueue creates an empty queue on e.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{cond: Cond{eng: e}}
}

// Push appends v and wakes one waiting consumer.
func (q *Queue[T]) Push(v T) {
	q.items.push(v)
	q.cond.Signal()
}

// Pop blocks p until an item is available and returns it.
func (q *Queue[T]) Pop(p *Proc) T {
	for q.items.n == 0 {
		q.cond.Wait(p)
	}
	v := q.items.pop()
	if q.items.n > 0 {
		// More work: make sure another waiter (if any) gets scheduled.
		q.cond.Signal()
	}
	return v
}

// TryPop removes and returns the head item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if q.items.n == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.n }

// Drain removes and returns all queued items.
func (q *Queue[T]) Drain() []T { return q.items.drain() }

// WaitGroup tracks a count of outstanding simulated tasks.
type WaitGroup struct {
	n    int
	cond Cond
}

// NewWaitGroup creates a wait group on e.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{cond: Cond{eng: e}} }

// Add increments the outstanding count by delta.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative waitgroup count")
	}
	if w.n == 0 {
		w.cond.Broadcast()
	}
}

// Done decrements the count by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the count reaches zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n != 0 {
		w.cond.Wait(p)
	}
}
