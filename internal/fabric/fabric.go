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
// the event heap holds a delivery, so it recycles as it fires (delivered or
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

// WaitTxSpace blocks the calling process until the TX queue toward the
// remote side of `from` has room under TxDepth (no-op when TxDepth is 0
// or the connection is down — Send then drops the message anyway). This
// is how link saturation propagates upstream: a sender that calls it
// stalls at wire speed instead of queueing unboundedly. Returns how long
// the caller was stalled (0 when it never blocked) for stage tracing.
func (c *Conn) WaitTxSpace(p *sim.Proc, from Side) sim.Time {
	if c.cfg.TxDepth <= 0 {
		return 0
	}
	dir := from.other()
	stalled := sim.Time(0)
	start := p.Now()
	for c.up && c.wires[dir].Len() >= c.cfg.TxDepth {
		if stalled == 0 {
			c.stats[dir].TxStalls++
		}
		c.txSpace[dir].Wait(p)
		stalled = p.Now() - start
	}
	return stalled
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

// BulkRead performs a one-sided RDMA READ: the calling process (on side
// `reader`) pulls size bytes from the remote side's memory. No remote CPU
// is consumed. The call blocks the process for the full transfer.
func (c *Conn) BulkRead(p *sim.Proc, reader Side, size int) bool {
	if !c.up {
		return false
	}
	ep := c.epoch
	// Request travels to the remote NIC, data streams back over the link
	// toward the reader.
	p.Sleep(c.cfg.PropDelay)
	if ep != c.epoch {
		return false
	}
	done := sim.NewSignal(c.eng)
	c.wires[reader].Push(wireItem{msg: Message{QP: 0, Size: size}, done: done, epoch: ep, to: reader})
	done.Wait(p)
	return ep == c.epoch
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
// transfer has a process blocked on it, which is released here (BulkRead
// and BulkWrite then report the failure from the epoch) — left waiting, a
// target's receive worker caught mid-READ by a power cut would never serve
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
