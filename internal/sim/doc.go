// Package sim implements a deterministic discrete-event simulation kernel.
//
// All hardware substrates in this repository (CPU cores, RDMA fabric, NVMe
// SSDs) and all software-path processes (file systems, drivers, workload
// threads) execute inside one sim.Engine. The engine owns a virtual clock in
// nanoseconds and an event queue; exactly one unit of simulated activity runs
// at any instant, so every run with the same seed is bit-for-bit
// reproducible — a property the crash-recovery tests and the CPU-efficiency
// measurements rely on.
//
// The engine has one kind of event: a Runner (interface{ Run() }) due at a
// time. Four things implement Runner, and they mix freely:
//
//   - Callbacks: Engine.At(d, fn) schedules fn to run d nanoseconds from
//     now on the engine goroutine. Callbacks must not block. The func value
//     itself is the Runner, so the only allocation is the caller's closure.
//   - Pooled records: a layer that schedules the same kind of event per
//     operation (a fabric delivery, a hold timer)
//     implements Run on a record of its own and passes it to
//     Engine.Schedule(d, r). The engine has let go of r by the time it
//     calls Run, so Run may put the record back on the layer's free list;
//     such an event allocates nothing. Run must not block either.
//   - Processes: Engine.Go(name, fn) spawns a Proc, a coroutine that may
//     Sleep, wait on Conds, acquire Resources and pop Queues. A Proc is an
//     iter.Pull coroutine: its Run resumes it with next, it parks with
//     yield, and the runtime switches the two goroutines directly (no
//     channel, no scheduler pass), so at most one goroutine ever touches
//     simulation state. Proc.Run is the engine's to call, nobody else's.
//   - Servers: NewServer(e, start, finish) is a FIFO single-server station
//     for a device that queues, takes time and completes without blocking
//     mid-item (a link direction, an SSD channel). Its own Run calls start
//     as it takes an item and finish when the service time is up: the
//     events of a Proc popping a Queue and sleeping, at a plain call each.
//     A consumer that blocks while it holds an item is a Runner waiter.
//
// Runner waiters. Cond.Wait, Resource.Acquire, Queue.Take, Signal.Wait and
// Engine.Sleep take any Runner w and report whether w may go on now. A
// *Proc blocks in them and always gets true (Queue.Pop and Proc.Sleep are
// the proc-only spellings). Any other Runner that must wait gets false: it
// is queued (or, for Sleep, scheduled d ahead), and the Signal, Broadcast,
// Push or Release that would have woken a proc re-runs it with push(0, w)
// instead — the same instant and the same one seq — so a Runner consumer
// that names the step it resumes at spends seq exactly as the proc it
// replaces: one event at construction (Schedule(0, r) for Go), one wake
// when an item reaches it idle, one per non-zero Sleep, one per Resource
// hand-off and per Cond wake. A Release hands the unit to a queued Runner
// before re-running it, so the Runner holds it when it runs. Waiter rings
// hold Runners, procs and records alike, in FIFO order. Step[T] is the one
// way to write such a consumer, long-lived or a pooled record re-Started
// per operation (an SSD command); a proc runs the same steps in its own
// place with Step.Call, every wait then blocking the proc.
//
// Pending events are {at, seq, Runner} values in two stores: a timer wheel
// for events due less than wheelSize (2^14 ns, about 16 µs) from now —
// zero-delay ones (wake-ups, At(0, fn), Schedule(0, r), Go) included — and
// a typed 4-ary min-heap ordered by (at, seq) for later ones. seq is a
// counter that At, Schedule, Sleep, a wake-up (of a Proc, of a Runner
// waiter or of an idle Server), Go and NewServer each advance by exactly
// one, so (at, seq) is a total order. The wheel is one FIFO per nanosecond
// slot, at & (wheelSize-1). Every wheel event is due in [now,
// now+wheelSize): push puts it there, and the clock never passes a pending
// event. So a slot holds the events of one instant, appended in seq order,
// and the earliest slot is the first non-empty one from now's, circularly.
// The engine runs the earlier of that slot's head and the heap's top by
// (at, seq): a timer pushed past the horizon that has since come due ties
// with later wheel events and, pushed first, runs first. The run sequence,
// and with it every simulated number, is fixed by the order in which
// simulation code schedules work and not by which store holds an event,
// the heap's layout, which kind of Runner an event carries or how procs
// are switched.
//
// When a Proc's fn returns, the Proc and its coroutine go on a free list
// and the next Engine.Go reuses them; a *Proc handle is therefore valid
// only until its fn returns. Engine.Shutdown stops every coroutine, started
// or not, so no goroutine outlives the engine.
//
// Resources track a busy-time integral, which is how CPU utilization (and
// therefore the paper's CPU-efficiency metric, throughput ÷ utilization)
// is measured.
package sim
