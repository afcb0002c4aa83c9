package sim

// Server is a FIFO single-server station for a device that queues, takes
// time and completes without ever blocking mid-item (a link direction, a
// media channel). It is a Runner, not a Proc: serving an item costs events,
// never a coroutine switch. A consumer that must block while it holds an
// item (acquire a contended core, wait on a Cond) is a Step on a Queue.
//
// As an item is taken — after it has left the queue, so Len counts only
// what still waits — start reports its service time d, or ok = false to
// skip it; finish runs d later, inline when d == 0. The server spends seq
// exactly as the proc
//
//	Go(func(p) { for { v := q.Pop(p); if d, ok := start(v); ok { p.Sleep(d); finish(v) } } })
//
// does — one at construction, one wake-up when an item reaches an idle
// server, one per non-zero service time — so swapping them moves no event.
type Server[T any] struct {
	eng    *Engine
	items  ring[T]
	start  func(v T) (d Time, ok bool)
	finish func(v T)
	cur    T    // the item in service, while busy
	busy   bool // the outstanding event is cur's completion
	idle   bool // nothing queued, no event outstanding: the next Push wakes
}

// NewServer creates a station on e. Like a proc's, its first event is due
// now: items pushed before that run wake nothing.
func NewServer[T any](e *Engine, start func(v T) (d Time, ok bool), finish func(v T)) *Server[T] {
	s := &Server[T]{eng: e, start: start, finish: finish}
	e.push(0, s)
	return s
}

// Push queues v. It never blocks and is callable from callbacks.
func (s *Server[T]) Push(v T) {
	s.items.push(v)
	if s.idle {
		s.idle = false
		s.eng.push(0, s)
	}
}

// Len returns the number of items waiting, not counting one in service.
func (s *Server[T]) Len() int { return s.items.n }

// Drain removes and returns the waiting items without waking the server.
// An item in service stays and still reaches finish: a caller that dropped
// the rest checks its own epoch there.
func (s *Server[T]) Drain() []T { return s.items.drain() }

// Run is the server's event: complete the item in service, if any, then
// take items until one needs time or none waits.
func (s *Server[T]) Run() {
	if s.busy {
		var zero T
		v := s.cur
		s.cur, s.busy = zero, false
		s.finish(v)
	}
	for s.items.n > 0 {
		v := s.items.pop()
		d, ok := s.start(v)
		if !ok {
			continue
		}
		if d > 0 {
			s.cur, s.busy = v, true
			s.eng.Schedule(d, s)
			return
		}
		s.finish(v)
	}
	s.idle = true
}
