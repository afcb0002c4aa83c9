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
// respond and what it calls) return to Ret; a burst's read-back and
// submissions (rxPersist) to resume.
type tctx struct {
	sim.Step[tctx]
	t *Target

	// rx lane: the capsule in progress and the index of its command
	// (forward, control entry, walk). The burst (rxCmd): the command whose
	// attributes are being appended, the commands walked since the last
	// read-back and the next to submit, the parked successors submissions
	// took and the next to walk, the attributes appended since the
	// read-back and where its submissions go on.
	l       *qpLane
	cp      *capsule
	i       int
	cur     burstCmd
	run     []burstCmd
	sub     int
	later   []parkedCmd
	li      int
	pending int
	resume  tstep
	tx      fabric.TxWait
	bulk    fabric.Transfer
	bytes   int // the capsule's non-inline payload, fetched in one READ

	// appendPMR: the attribute and the log partition the burst appends to
	// (a format replaces it).
	a   core.Attr
	log *core.Log

	// Completion context: the event in progress, the target incarnation it
	// was taken under, the record and slot index its persist walk is at,
	// and the toggle markPersist charges for.
	d, b   *tDone
	tEpoch int
	k      int
	mark   order.SlotRef

	// post: the message, its lane and size while PostMsg is charged.
	out     *completionMsg
	outLane *qpLane
	outSize int

	// Relay-ack context: the follower ack capsule in progress, the index
	// of its next entry (k) and the head incarnation it was taken under
	// (tEpoch).
	ack *completionMsg
}

// A burstCmd is one command of an rx context's burst: its attribute chain
// (nil for a command that appends none: an unordered write, a flush, a
// Horae data command), the PMR slots of the attributes appended so far,
// its ordering domain and when its first append started.
type burstCmd struct {
	ws    *wireState
	attrs []core.Attr
	slots []uint64
	dom   *order.Domain[parkedCmd]
	start sim.Time
}

// A tstep is one stretch of a context's code (see sim.Step).
type tstep = func(*tctx) bool
