package sim

import (
	"fmt"
	"iter"
)

// A Proc is a simulated thread of execution: a coroutine that alternates
// between running (while the engine's event loop is suspended inside
// next) and being parked (suspended inside yield while the engine runs
// other work). Procs may block with Sleep, Cond.Wait, Resource.Acquire and
// Queue.Pop; callbacks may not.
type Proc struct {
	eng        *Engine
	name       string
	fn         func(p *Proc)
	next       func() (struct{}, bool) // engine side: run the proc until it parks
	stop       func()                  // engine side: kill the proc and free its goroutine
	yield      func(struct{}) bool     // proc side: park; false means killed
	wakeQueued bool
	granted    bool // set by Resource.Release when it hands this proc a unit
}

// procKilled is the sentinel panic used by Engine.Shutdown to unwind a
// parked process.
type procKilled struct{}

// Go spawns fn as a new simulated process starting at the current time.
// fn receives the Proc as its execution context. The Proc and its coroutine
// are recycled for a later Go once fn returns, so the returned handle is
// valid only until then.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	var p *Proc
	if n := len(e.free); n > 0 {
		p, e.free[n-1] = e.free[n-1], nil
		e.free = e.free[:n-1]
	} else {
		p = &Proc{eng: e}
		p.next, p.stop = iter.Pull(p.loop)
		e.procs = append(e.procs, p)
	}
	p.name, p.fn = name, fn
	e.push(0, p)
	return p
}

// loop is the coroutine body: run the current fn, join the free list, park
// until Go assigns the next fn.
func (p *Proc) loop(yield func(struct{}) bool) {
	p.yield = yield
	for p.run() {
		p.fn = nil
		p.eng.free = append(p.eng.free, p)
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes fn and reports whether it returned normally rather than
// being killed. Any other panic is re-raised with the proc's name;
// iter.Pull carries it to the engine goroutine, where it surfaces from Run.
func (p *Proc) run() (finished bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, killed := r.(procKilled); !killed {
				panic(fmt.Sprintf("sim: proc %q panicked: %v", p.name, r))
			}
		}
	}()
	p.fn(p)
	return true
}

// Run is the proc's event: switch to the coroutine until it parks or
// finishes.
func (p *Proc) Run() {
	p.wakeQueued = false
	p.eng.resumes++
	p.next()
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the diagnostic name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// park yields control to the engine until it resumes this process (a proc
// event from Sleep or Engine.wake) or kills it (Engine.Shutdown).
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// Sleep blocks the process for d nanoseconds of simulated time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	p.eng.push(d, p)
	p.park()
}

// Yield reschedules the process at the current time behind already-queued
// events, letting same-time work interleave.
func (p *Proc) Yield() {
	p.eng.wake(p)
	p.park()
}
