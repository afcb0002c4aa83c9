package order

// Quorum is the replication adapter that sits on top of N engine
// domains: one logical write fans out to every in-sync member of a
// replica set (each member's target runs its own Engine with its own
// dense chain for the stream), and the Quorum accounts the member acks
// that decide when the completion may be delivered (Acks >= Need) and
// when the command may be recycled (every member resolved — acked, or
// cancelled by a power cut). The counting transitions live here; the
// stack keeps its wire-format payloads (each member's SQE and attribute
// chain) in a slice parallel to Members.
type Quorum struct {
	Members  []int  // target ids the command fanned to
	Got      []bool // genuine CQE received, per member
	Resolved []bool // acked or cancelled, per member

	Acks      int
	NResolved int
	Need      int // write quorum (for barriers: every posted member)
	Fired     bool
}

// Reset prepares recycled quorum state for a new command, keeping the
// slices' capacity.
func (q *Quorum) Reset() {
	q.Members = q.Members[:0]
	q.Got = q.Got[:0]
	q.Resolved = q.Resolved[:0]
	q.Acks, q.NResolved, q.Need = 0, 0, 0
	q.Fired = false
}

// Add registers one member the command was posted to.
func (q *Quorum) Add(m int) {
	q.Members = append(q.Members, m)
	q.Got = append(q.Got, false)
	q.Resolved = append(q.Resolved, false)
}

// Pos returns a member's position, or -1 if the command never fanned to
// that target.
func (q *Quorum) Pos(target int) int {
	for k, m := range q.Members {
		if m == target {
			return k
		}
	}
	return -1
}

// Ack accounts one genuine member CQE. It reports false for a duplicate
// or a member already cancelled by a power cut (the ack must then be
// ignored entirely).
func (q *Quorum) Ack(k int) bool {
	if k < 0 || q.Resolved[k] {
		return false
	}
	q.Resolved[k] = true
	q.Got[k] = true
	q.Acks++
	q.NResolved++
	return true
}

// Cancel resolves a member that can never ack (its target power-cut).
// The member's write may not have landed; the caller queues it for
// resync. Reports false if the member was already resolved.
func (q *Quorum) Cancel(k int) bool {
	if k < 0 || q.Resolved[k] {
		return false
	}
	q.Resolved[k] = true
	q.NResolved++
	return true
}

// Done reports whether every member copy resolved (the command holds no
// more in-flight state anywhere).
func (q *Quorum) Done() bool { return q.NResolved == len(q.Members) }
