package sim

// A Step is an execution context written as steps, not as a proc: a record
// of type T embeds Step[T], and a step is a method expression of T, such as
// (*T).take, that runs until it must wait, names the step that follows and
// reports false; the wake-up re-runs the record there. True goes on at
// once; false with no wait ends the context. Every wait is a Runner wait,
// so a Step spends seq exactly as the proc it replaces. For a primitive
// with no method here, a step calls To with the next step and returns the
// primitive's answer, Waiter() as its waiter.
type Step[T any] struct {
	eng          *Engine
	cpu          *Resource
	owner        *T
	p            *Proc         // the proc a Call runs the sequence in, or nil
	step, after  func(*T) bool // what runs next; where a Charge goes on
	spend, spent func(*T) bool // Charge's own steps, bound by Bind
	cost         Time
	Ret          func(*T) bool // where a called sequence goes on at Back
}

// Bind makes s the context of owner, charging cpu, without scheduling it:
// a pooled record that procs Call.
func (s *Step[T]) Bind(e *Engine, cpu *Resource, owner *T) {
	s.eng, s.cpu, s.owner = e, cpu, owner
	s.spend = func(*T) bool { return s.Sleep(s.cost, s.spent) }
	s.spent = func(*T) bool { s.cpu.Release(); return s.To(s.after) }
}

// Start runs s first at step, now: the one event a proc spends being
// spawned. It binds s unless s is owner's already, so re-Starting a pooled
// record keeps its engine and CPU and allocates nothing.
func (s *Step[T]) Start(e *Engine, cpu *Resource, owner *T, step func(*T) bool) {
	if s.owner != owner {
		s.Bind(e, cpu, owner)
	}
	s.step = step
	e.Schedule(0, s)
}

// Run is the context's event: run steps until one waits.
func (s *Step[T]) Run() {
	for s.step(s.owner) {
	}
}

// Call runs the sequence from step in p's place until a step reports
// false. Every wait blocks p, exactly as p's own code would, so a proc
// that calls a sequence spends seq as the code it replaces.
func (s *Step[T]) Call(p *Proc, step func(*T) bool) {
	s.p, s.step = p, step
	s.Run()
	s.p = nil
}

// Waiter is who waits at a step: the proc a Call runs in, else the record.
func (s *Step[T]) Waiter() Runner {
	if s.p != nil {
		return s.p
	}
	return s
}

// To goes on at next, now.
func (s *Step[T]) To(next func(*T) bool) bool { s.step = next; return true }

// Back goes on at Ret: the return from a called sequence.
func (s *Step[T]) Back() bool { return s.To(s.Ret) }

// Acquire goes on at next holding a unit of the CPU: now, or once a
// Release hands it one.
func (s *Step[T]) Acquire(next func(*T) bool) bool { s.step = next; return s.cpu.Acquire(s.Waiter()) }

// Sleep goes on at next d from now (at once when d is 0, as Proc.Sleep(0)).
func (s *Step[T]) Sleep(d Time, next func(*T) bool) bool {
	s.step = next
	return s.eng.Sleep(s.Waiter(), d)
}

// Charge holds a unit of the CPU cost long and goes on at next once it is
// released: a proc's Resource.Use, which acquires even at cost 0.
func (s *Step[T]) Charge(cost Time, next func(*T) bool) bool {
	s.cost, s.after = cost, next
	return s.Acquire(s.spend)
}

// Use is Charge, except that a zero cost takes no core and no event.
func (s *Step[T]) Use(cost Time, next func(*T) bool) bool {
	if cost == 0 {
		return s.To(next)
	}
	return s.Charge(cost, next)
}
