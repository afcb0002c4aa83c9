package stack

import (
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/order"
	"repro/internal/sim"
)

// A tctx is one of a target's execution contexts — an rx lane, a
// completion context, the relay-ack context — as a sim.Step on the target's
// cores. Each is allocated once, with its target, and never recycled.
// Besides the target's cores a context waits on its lane's queue or the
// completion queue, the PMR log's space cond, a READ's placement signal and
// TX space. A step that follows a wait re-validates target alive, target
// epoch and initiator epoch. Called sequences (appendPMR, markPersist,
// respond and what it calls) return to Ret.
type tctx struct {
	sim.Step[tctx]
	t *Target

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
	out     *completionMsg
	outLane *qpLane
	outSize int
	route   relayRoute
	conn    *fabric.Conn

	// Relay-ack context: the follower ack in progress.
	ack *relayAckMsg
}

// A tstep is one stretch of a context's code (see sim.Step).
type tstep = func(*tctx) bool
