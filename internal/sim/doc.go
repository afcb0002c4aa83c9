// Package sim implements a deterministic discrete-event simulation kernel.
//
// All hardware substrates in this repository (CPU cores, RDMA fabric, NVMe
// SSDs) and all software-path processes (file systems, drivers, workload
// threads) execute inside one sim.Engine. The engine owns a virtual clock in
// nanoseconds and an event heap; exactly one unit of simulated activity runs
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
//     operation (a fabric delivery, an SSD completion, a hold timer)
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
//     A consumer that blocks while it holds an item stays that Proc.
//
// The event heap is a typed 4-ary min-heap of {at, seq, Runner} ordered by
// (at, seq). seq is a counter that At, Schedule, Sleep, a wake-up (of a
// Proc or of an idle Server), Go and NewServer each advance by exactly one,
// so (at, seq) is a total order: the pop sequence, and with it every
// simulated number, is fixed by the order in which simulation code schedules
// work and not by the heap's layout, by which kind of Runner an event
// carries or by how procs are switched.
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
