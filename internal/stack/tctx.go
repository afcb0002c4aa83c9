package stack

import (
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/order"
	"repro/internal/sim"
)

// A tctx is one of a target's execution contexts — an rx lane, a
// completion context, the relay-ack context — as a Runner record the engine
// re-runs. Each is allocated once, with its target, and never recycled.
//
// The record is the old receive, completion and relay-ack loops cut at
// every point where their proc waited: it holds the item in progress and
// step, the stretch of code to run next. A step runs until it must wait,
// names the step that follows the wait, and reports false; the engine
// re-runs the record when the wait is over. Every wait is a sim primitive
// with the record as its waiter (a queue, a core, the PMR log's space
// cond, a READ's placement signal, TX space) or a Schedule of the record
// itself, each at the instant and for the one seq the proc spent there —
// so the event sequence, and every simulated number, is the procs'. A
// step that follows a wait re-validates what the proc re-validated after
// that yield (target alive, target epoch, initiator epoch).
type tctx struct {
	t     *Target
	step  tstep // what runs next
	ret   tstep // where a called sequence returns: appendPMR, markPersist, respond and what it calls
	after tstep // where a charge goes on once its core is released
	cost  sim.Time

	// rx lane: the capsule in progress, the index of its command (forward,
	// control entry), and the command rioProcess runs — cp.cmds[i] or a
	// parked successor the gate drains — with its attribute index.
	l     *qpLane
	cp    *capsule
	i, j  int
	ws    *wireState
	attrs []core.Attr
	dom   *order.Domain[parkedCmd]
	slots []uint64
	tx    fabric.TxWait
	bulk  fabric.Transfer
	bytes int // the capsule's non-inline payload, fetched in one READ

	// appendPMR: the attribute, the log partition it appends to (a format
	// replaces it) and the outcome.
	a        core.Attr
	log      *core.Log
	slot     uint64
	ok       bool
	pmrStart sim.Time

	// Completion context: the event in progress, the target incarnation it
	// was taken under, the barrier chain and slot index its persist loops
	// are at, and the toggle markPersist charges for.
	d, b, bnext *tDone
	tEpoch      int
	init, k     int
	mark        order.SlotRef

	// flushCQEs: the response capsule detached from its lane while PostMsg
	// is charged. relayRespond: the follower ack being posted to the head.
	out     completionMsg
	outLane *qpLane
	outSize int
	route   relayRoute
	conn    *fabric.Conn

	// Relay-ack context: the follower ack in progress.
	ack *relayAckMsg
}

// A tstep is one stretch of a context's code; it reports whether the
// context goes on at once (true) or waits to be re-run (false).
type tstep = func(*tctx) bool

// start makes x a context of t that runs first at step, now: the one event
// a proc spent being spawned.
func (t *Target) start(x *tctx, step tstep) {
	x.t, x.step = t, step
	t.c.Eng.Schedule(0, x)
}

// Run is the context's event: run steps until one waits.
func (x *tctx) Run() {
	for x.step(x) {
	}
}

// to goes on at next now.
func (x *tctx) to(next tstep) bool {
	x.step = next
	return true
}

// back returns from a called sequence to where its caller goes on.
func (x *tctx) back() bool { return x.to(x.ret) }

// acquire takes a target core for x and goes on at next — now, or once a
// Release hands x one.
func (x *tctx) acquire(next tstep) bool {
	x.step = next
	return x.t.cores.Acquire(x)
}

// sleep goes on at next d from now (at once when d is 0, as Proc.Sleep(0)).
func (x *tctx) sleep(d sim.Time, next tstep) bool {
	x.step = next
	return x.t.c.Eng.Sleep(x, d)
}

// charge spends cost of a target core — acquire one or queue for it, hold
// it cost long, release it — and goes on at next: the proc's cores.Use.
func (x *tctx) charge(cost sim.Time, next tstep) bool {
	x.cost, x.after = cost, next
	return x.acquire((*tctx).spend)
}

func (x *tctx) spend() bool { return x.sleep(x.cost, (*tctx).spent) }

func (x *tctx) spent() bool {
	x.t.cores.Release()
	return x.to(x.after)
}
