// Package fabric simulates an RDMA network between an initiator and a
// target server at the fidelity Rio's design depends on:
//
//   - Reliable-connected queue pairs (QPs) deliver messages in FIFO order
//     per QP (the in-order property Rio's I/O scheduler exploits,
//     Principle 2 of §4.5), while messages on different QPs may be
//     reordered relative to each other (jitter models independent NIC
//     processing pipelines).
//   - Two-sided SEND operations invoke a receive handler on the remote
//     side (the handler is where the remote CPU cost is charged); one-sided
//     READ/WRITE operations move bulk data without any remote handler,
//     modelling CPU bypass.
//   - A shared full-duplex link serializes bytes at a configurable
//     bandwidth in each direction.
//   - Disconnect drops all in-flight messages (used by crash injection).
package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// Side identifies an endpoint of a connection.
type Side int

const (
	Initiator Side = 0
	Target    Side = 1
)

func (s Side) other() Side { return 1 - s }

// Config holds link and NIC parameters.
type Config struct {
	BytesPerNs  float64  // link bandwidth (25.0 ≈ 200 Gb/s)
	PropDelay   sim.Time // one-way propagation + NIC pipeline latency
	QPJitterMax sim.Time // max extra delivery skew across QPs
	NumQPs      int      // queue pairs per direction

	// TxDepth bounds the per-direction transmit queue (messages accepted
	// but not yet serialized onto the link). 0 leaves it unbounded — the
	// historical behavior, which closed-loop workloads never notice but
	// which lets an open-loop driver grow the TX queue without limit past
	// link saturation. When set, senders that care about backpressure call
	// WaitTxSpace before Send.
	TxDepth int
}

// DefaultConfig models one 200 Gb/s ConnectX-6-class port.
func DefaultConfig(numQPs int) Config {
	return Config{
		BytesPerNs:  25.0,
		PropDelay:   1500,
		QPJitterMax: 2000,
		NumQPs:      numQPs,
	}
}

// TCPConfig models NVMe over TCP on a 100 Gb/s port: the kernel network
// stack adds latency and per-connection skew, but each socket still
// delivers in order — so Rio's stream→connection affinity (Principle 2)
// carries over, as §4.5 claims. Here a "QP" is a TCP connection.
func TCPConfig(numConns int) Config {
	return Config{
		BytesPerNs:  12.5,
		PropDelay:   12 * sim.Microsecond,
		QPJitterMax: 8 * sim.Microsecond,
		NumQPs:      numConns,
	}
}

// Message is one SEND capsule. Payload is opaque to the fabric.
type Message struct {
	QP      int
	Size    int // bytes on the wire (capsule header + inline data)
	Payload interface{}
}

// Handler consumes delivered SENDs in engine context.
type Handler func(m Message)

// TracedPayload is implemented by payloads that want fabric transit
// stamps for stage tracing: the fabric calls it at delivery with the
// virtual times the message was posted and delivered. Stamping is plain
// host-memory accounting — it never changes the event schedule.
type TracedPayload interface {
	FabricDelivered(sent, delivered sim.Time)
}

// Stats counts per-direction traffic.
type Stats struct {
	Sends     int64
	SendBytes int64
	BulkOps   int64 // one-sided READ/WRITE transfers
	BulkBytes int64
	Dropped   int64 // messages lost to Disconnect
	TxStalls  int64 // WaitTxSpace blocks against a full TX queue
}

type wireItem struct {
	msg    Message
	done   *sim.Signal // one-sided transfer: fired at placement or drop; counted separately, no handler
	epoch  uint64
	to     Side
	sentAt sim.Time // Send post time (TracedPayload stamping)
}

// delivery is a wire item past the link: the arrival event the engine
// runs. The TX queue and the link (one sim.Server) hold items by value; only
// the engine's event queue holds a delivery, so it recycles as it fires (delivered or
// stale) and a Disconnect never has one to free.
type delivery struct {
	c  *Conn // nil while on the free list
	it wireItem
}

func (d *delivery) Run() {
	c, it := d.c, d.it
	if c == nil {
		panic("fabric: a recycled delivery event ran")
	}
	*d = delivery{} // let go of the payload
	if !c.poison {
		c.free.Put(d)
	}
	if it.epoch != c.epoch {
		c.drop(it)
		return
	}
	if it.done != nil {
		c.stats[it.to].BulkOps++
		c.stats[it.to].BulkBytes += int64(it.msg.Size)
		it.done.Fire()
		return
	}
	c.stats[it.to].Sends++
	c.stats[it.to].SendBytes += int64(it.msg.Size)
	if tp, ok := it.msg.Payload.(TracedPayload); ok {
		tp.FabricDelivered(it.sentAt, c.eng.Now())
	}
	if h := c.handlers[it.to]; h != nil {
		h(it.msg)
	}
}

// Conn is a bidirectional RDMA connection between one initiator and one
// target server.
type Conn struct {
	eng      *sim.Engine
	cfg      Config
	handlers [2]Handler
	wires    [2]*sim.Server[wireItem] // index = destination side: TX queue + link
	txSpace  [2]*sim.Cond             // index = destination side; TxDepth waiters
	lastQP   [2][]sim.Time            // per destination, per QP: last delivery time
	epoch    uint64
	up       bool
	stats    [2]Stats // index = destination side
	free     sim.FreeList[delivery]

	// poison is a test hook: a fired delivery is scrubbed as always but
	// never reissued, so one that reaches the engine a second time runs a
	// dead record and panics instead of delivering its next message.
	poison bool
}

// NewConn creates a connection. Each direction of the link is a sim.Server
// (it queues, serializes, never blocks), so a connection owns no process.
func NewConn(e *sim.Engine, cfg Config) *Conn {
	if cfg.NumQPs <= 0 || cfg.BytesPerNs <= 0 {
		panic("fabric: invalid config")
	}
	if cfg.TxDepth < 0 {
		panic("fabric: TxDepth must be >= 0")
	}
	c := &Conn{eng: e, cfg: cfg, up: true}
	start, finish := c.wireStart, c.wireFinish
	for d := 0; d < 2; d++ {
		c.wires[d] = sim.NewServer(e, start, finish)
		c.txSpace[d] = sim.NewCond(e)
		c.lastQP[d] = make([]sim.Time, cfg.NumQPs)
	}
	return c
}

// SetHandler registers the SEND receive handler for the given side.
func (c *Conn) SetHandler(s Side, h Handler) { c.handlers[s] = h }

// Stats returns traffic counters for messages delivered *to* the given
// side.
func (c *Conn) Stats(to Side) Stats { return c.stats[to] }

// serialization returns the wire time for size bytes.
func (c *Conn) serialization(size int) sim.Time {
	return sim.Time(float64(size) / c.cfg.BytesPerNs)
}

// Send posts a two-sided SEND from the given side. The call returns
// immediately (the caller separately charges its own CPU for posting); the
// message is delivered to the remote handler after link serialization,
// propagation, and QP-ordering constraints.
func (c *Conn) Send(from Side, m Message) {
	if !c.up {
		c.stats[from.other()].Dropped++
		return
	}
	if m.QP < 0 || m.QP >= c.cfg.NumQPs {
		panic(fmt.Sprintf("fabric: QP %d out of range", m.QP))
	}
	c.wires[from.other()].Push(wireItem{msg: m, epoch: c.epoch, to: from.other(), sentAt: c.eng.Now()})
}

// A TxWait is one sender's pass through WaitTxSpace. A proc's pass is one
// call; a Runner's spans the calls its re-runs make, and the record carries
// the pass across them. The zero value is ready, and WaitTxSpace leaves it
// ready for the next pass.
type TxWait struct {
	start   sim.Time
	waiting bool     // queued for TX space: the next call continues this pass
	Stalled sim.Time // how long the pass was stalled (0 when it never blocked)
}

// WaitTxSpace holds sender w until the TX queue toward the remote side of
// `from` has room under TxDepth (no wait when TxDepth is 0 or the
// connection is down — Send then drops the message anyway) and reports
// whether w may send now. This is how link saturation propagates upstream:
// a sender that calls it stalls at wire speed instead of queueing
// unboundedly. A proc blocks here (true); a Runner that must wait gets
// false and is re-run when a slot frees, to call again with the same tw.
// tw.Stalled is then how long the sender was stalled, for stage tracing.
func (c *Conn) WaitTxSpace(w sim.Runner, tw *TxWait, from Side) bool {
	if c.cfg.TxDepth <= 0 {
		tw.Stalled = 0
		return true
	}
	dir := from.other()
	if tw.waiting {
		tw.Stalled = c.eng.Now() - tw.start
	} else {
		tw.start, tw.Stalled = c.eng.Now(), 0
	}
	for c.up && c.wires[dir].Len() >= c.cfg.TxDepth {
		if tw.Stalled == 0 {
			c.stats[dir].TxStalls++
		}
		tw.waiting = true
		if !c.txSpace[dir].Wait(w) {
			return false
		}
		tw.Stalled = c.eng.Now() - tw.start
	}
	tw.waiting = false
	return true
}

// wireStart and wireFinish are one direction of the link as a sim.Server:
// wireStart takes a message off the TX queue (one slot freed) and reports
// its serialization time, wireFinish schedules its delivery when the last
// byte has left, keeping per-QP FIFO order while allowing cross-QP skew.
func (c *Conn) wireStart(it wireItem) (sim.Time, bool) {
	if c.cfg.TxDepth > 0 && c.wires[it.to].Len() < c.cfg.TxDepth {
		// One freed slot admits one waiter: a Broadcast would wake
		// every parked sender, and since each Send happens only after
		// WaitTxSpace returns, all of them would pass the re-check and
		// overshoot TxDepth by waiters-1.
		c.txSpace[it.to].Signal()
	}
	if it.epoch != c.epoch {
		c.drop(it)
		return 0, false
	}
	return c.serialization(it.msg.Size), true
}

func (c *Conn) wireFinish(it wireItem) {
	if it.epoch != c.epoch {
		c.drop(it) // the link went down with the message half sent
		return
	}
	jitter := sim.Time(0)
	if c.cfg.QPJitterMax > 0 {
		jitter = sim.Time(c.eng.Rand().Int63n(int64(c.cfg.QPJitterMax) + 1))
	}
	now := c.eng.Now()
	at := now + c.cfg.PropDelay + jitter
	if last := c.lastQP[it.to][it.msg.QP]; at <= last {
		at = last + 1 // preserve per-QP FIFO
	}
	c.lastQP[it.to][it.msg.QP] = at
	d := c.free.Get()
	d.c, d.it = c, it
	c.eng.Schedule(at-now, d)
}

// A Transfer is one caller's one-sided READ in progress. A proc's READ is
// one BulkRead call; a Runner's spans the calls its re-runs make, and the
// record carries it across them — with the placement signal the wire item
// fires, so a caller that keeps its Transfer allocates nothing per READ.
// The zero value is ready, and BulkRead leaves it ready for the next READ.
type Transfer struct {
	stage  uint8 // 0 idle, 1 request crossing to the remote NIC, 2 data on the wire
	ep     uint64
	ok     bool
	placed sim.Signal
}

// OK reports whether the last finished READ completed (the link stayed up).
func (tr *Transfer) OK() bool { return tr.ok }

// BulkRead performs a one-sided RDMA READ: caller w (on side `reader`)
// pulls size bytes from the remote side's memory. No remote CPU is
// consumed. It reports whether the READ is over — tr.OK() then says whether
// it completed. A proc blocks for the full transfer (true); a Runner gets
// false whenever it must wait and is re-run when it may go on, to call
// again with the same tr.
func (c *Conn) BulkRead(w sim.Runner, tr *Transfer, reader Side, size int) bool {
	switch tr.stage {
	case 0:
		if !c.up {
			tr.ok = false
			return true
		}
		tr.ep, tr.stage = c.epoch, 1
		// Request travels to the remote NIC, data streams back over the link
		// toward the reader.
		if !c.eng.Sleep(w, c.cfg.PropDelay) {
			return false
		}
		fallthrough
	case 1:
		if tr.ep != c.epoch {
			tr.stage, tr.ok = 0, false
			return true
		}
		tr.stage = 2
		c.wires[reader].Push(wireItem{msg: Message{QP: 0, Size: size}, done: tr.placed.Init(c.eng), epoch: tr.ep, to: reader})
		fallthrough
	case 2:
		if !tr.placed.Wait(w) {
			return false
		}
	}
	tr.stage, tr.ok = 0, tr.ep == c.epoch
	return true
}

// BulkWrite performs a one-sided RDMA WRITE of size bytes toward the remote
// side, blocking the caller until the data is placed remotely.
func (c *Conn) BulkWrite(p *sim.Proc, writer Side, size int) bool {
	if !c.up {
		return false
	}
	ep := c.epoch
	done := sim.NewSignal(c.eng)
	c.wires[writer.other()].Push(wireItem{msg: Message{QP: 0, Size: size}, done: done, epoch: ep, to: writer.other()})
	done.Wait(p)
	return ep == c.epoch
}

// Up reports whether the connection is alive.
func (c *Conn) Up() bool { return c.up }

// Disconnect drops every in-flight message and refuses new traffic until
// Reconnect; used to model a server crash.
func (c *Conn) Disconnect() {
	c.epoch++
	c.up = false
	for d := 0; d < 2; d++ {
		for _, it := range c.wires[d].Drain() {
			c.drop(it)
		}
		c.txSpace[d].Broadcast() // down connections never block senders
	}
}

// drop discards one in-flight item of a link that went down. A one-sided
// transfer has a caller waiting on it, which is released here (BulkRead
// and BulkWrite then report the failure from the epoch) — left waiting, a
// target's receive context caught mid-READ by a power cut would never serve
// its queue pair again.
func (c *Conn) drop(it wireItem) {
	c.stats[it.to].Dropped++
	if it.done != nil {
		it.done.Fire()
	}
}

// Reconnect re-establishes the connection with fresh QP state.
func (c *Conn) Reconnect() {
	c.up = true
	for d := 0; d < 2; d++ {
		for i := range c.lastQP[d] {
			c.lastQP[d][i] = 0
		}
	}
}
