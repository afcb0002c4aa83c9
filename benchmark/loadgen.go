package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/blockdev"
	"repro/internal/sim"
	"repro/internal/stack"
)

// The load generators live here, in the benchmark's own files, and draw
// from their own seeded streams (never the engine's): the load is a
// function of the seed alone, and no edit outside benchmark/ changes it.

// region is the private LBA area of one generator (4 GB of 4 KB blocks).
const region = uint64(1 << 20)

// genSeed derives a generator's private stream from the run seed.
func genSeed(seed int64, gen int) int64 { return seed*1_000_003 + int64(gen)*7919 + 1 }

// load is the state the generators of one cluster share. The engine runs
// one goroutine at a time, so nothing here is locked.
type load struct {
	eng              *sim.Engine
	winStart, winEnd sim.Time

	stop     bool // generators finish their current operation and exit
	started  int  // generator procs spawned
	finished int  // generator procs that ran to completion

	ops        int64
	lat        []int64 // per-op latency, simulated ns
	misordered int64   // deliveries out of submission order within a thread
	wrong      int64   // operations that returned a wrong result

	// calls holds the benchmark's own spans around its calls into the
	// layers (traced runs only): simulated ns spent inside each call.
	calls *callSpans
}

type callSpans struct {
	submit, wait, put, get []int64
}

func newLoad(eng *sim.Engine, start, end sim.Time, traced bool) *load {
	l := &load{eng: eng, winStart: start, winEnd: end, lat: make([]int64, 0, 1<<16)}
	if traced {
		l.calls = &callSpans{}
	}
	return l
}

// done records one completed operation: it counts when it was delivered
// inside the measure window.
func (l *load) done(from, at sim.Time) {
	if at >= l.winStart && at < l.winEnd {
		l.ops++
		l.lat = append(l.lat, int64(at-from))
	}
}

// spawn starts one generator proc and tracks that it runs to completion
// (a generator stuck on a lost completion never finishes).
func (l *load) spawn(name string, fn func(p *sim.Proc)) {
	l.started++
	l.eng.Go(name, func(p *sim.Proc) {
		fn(p)
		l.finished++
	})
}

// blockJob is a closed-loop block workload: threads that each keep up to
// window requests outstanding and wait for the oldest before sending the
// next, so a slow system receives less load.
type blockJob struct {
	threads int // thread i writes stream i of initiator 0
	window  int // outstanding requests per thread
	// batch > 1 issues plugged runs of batch consecutive 4 KB writes
	// (blk_start_plug/blk_finish_plug), the tail carrying the FLUSH;
	// batch <= 1 issues independent random 4 KB writes.
	batch int
	// align is the stripe chunk: a batch starts at a seeded align-aligned
	// block of the thread's region, so that on a striped volume its tail,
	// and the FLUSH it carries, lands on any device with equal chance.
	align uint64
	// orderless submits plain writes (the paper's upper-bound baseline).
	orderless bool
	// onSubmit, when set, sees every request right after submission
	// (crash_recover keeps them for the recovered-prefix check).
	onSubmit func(thread int, r *blockdev.Request)
	// sequential writes ascending LBAs instead of random ones, and every
	// commitEvery-th write carries the FLUSH (crash_recover).
	sequential  bool
	commitEvery int
}

// closedBlock starts the threads of job on initiator 0 of c.
func (l *load) closedBlock(c *stack.Cluster, job blockJob, seed int64) {
	for th := 0; th < job.threads; th++ {
		l.spawn(fmt.Sprintf("load/blk%d", th), func(p *sim.Proc) {
			l.blockThread(p, c.Init(0), th, job, seed)
		})
	}
}

func (l *load) blockThread(p *sim.Proc, in *stack.Initiator, th int, job blockJob, seed int64) {
	rng := rand.New(rand.NewSource(genSeed(seed, th)))
	base := uint64(th) * region
	stamp := uint64(th+1) << 32
	var next uint64
	var n int
	var lastDeliver sim.Time
	pending := make([]*blockdev.Request, 0, job.window+job.batch)
	write := func(lba uint64, flush bool) bool {
		stamp++
		n++
		t0 := p.Now()
		var r *blockdev.Request
		if job.orderless {
			r = in.OrderlessWrite(p, th, lba, 1, stamp, nil)
		} else {
			r = in.OrderedWrite(p, th, lba, 1, stamp, nil, true, flush, false)
		}
		if l.calls != nil {
			l.calls.submit = append(l.calls.submit, int64(p.Now()-t0))
		}
		if job.onSubmit != nil && r.Ticket != nil {
			job.onSubmit(th, r)
		}
		if !in.Alive() {
			return false // power cut mid-submission: the thread dies with its server
		}
		pending = append(pending, r)
		return true
	}
	reap := func(all bool) {
		for len(pending) > 0 && (all || pending[0].Done.Fired() || len(pending) >= job.window) {
			r := pending[0]
			copy(pending, pending[1:])
			pending = pending[:len(pending)-1]
			t0 := p.Now()
			in.Wait(p, r)
			if l.calls != nil {
				l.calls.wait = append(l.calls.wait, int64(p.Now()-t0))
			}
			// Rio delivers completions in storage order: within a
			// stream, never before an earlier submission's.
			if !job.orderless && r.DeliverAt < lastDeliver {
				l.misordered++
			}
			lastDeliver = r.DeliverAt
			l.done(r.SubmitAt, r.DeliverAt)
		}
	}
	for !l.stop && in.Alive() {
		ok := true
		switch {
		case job.batch > 1:
			lba := base + uint64(rng.Int63n(int64((region-uint64(job.batch))/job.align)))*job.align
			in.StartPlug(th)
			for b := 0; b < job.batch && ok; b++ {
				ok = write(lba+uint64(b), b == job.batch-1)
			}
			in.FinishPlug(p, th)
		case job.sequential:
			ok = write(base+next, (n+1)%job.commitEvery == 0)
			next++
		default:
			ok = write(base+uint64(rng.Int63n(int64(region))), false)
		}
		if !ok {
			return
		}
		reap(false)
	}
	reap(true)
}

// openJob is an open-loop workload: Poisson arrivals at a fixed offered
// rate, whatever the system's completion rate. Each (initiator, stream)
// has one generator proc that produces arrivals on an absolute schedule
// and one issuer proc that drains them through OrderedWrite; when the
// stack pushes back the issuer stalls and the queue grows.
type openJob struct {
	initiators   int
	streams      int
	offeredKIOPS float64
	maxBacklog   int
}

type arrival struct {
	lba uint64
	at  sim.Time
}

type pendingOp struct {
	req *blockdev.Request
	at  sim.Time
}

type openGen struct {
	q       *sim.Queue[arrival]
	pending []pendingOp
}

// openLoop is the generator-side accounting of an open-loop run.
type openLoop struct {
	gens     []*openGen
	arrivals int64    // generated inside the window
	dropped  int64    // shed on a full backlog inside the window
	lateMax  sim.Time // worst generator lateness (woke after the due instant)
}

// backlog counts arrivals still queued or in flight.
func (o *openLoop) backlog() int {
	n := 0
	for _, g := range o.gens {
		n += g.q.Len()
		for _, pe := range g.pending {
			if !pe.req.Done.Fired() {
				n++
			}
		}
	}
	return n
}

func (l *load) openLoop(c *stack.Cluster, job openJob, seed int64) *openLoop {
	o := &openLoop{}
	nGen := job.initiators * job.streams
	meanGap := 1e9 / (job.offeredKIOPS * 1e3 / float64(nGen)) // ns between arrivals per generator
	for ii := 0; ii < job.initiators; ii++ {
		in := c.Init(ii)
		for st := 0; st < job.streams; st++ {
			gen := ii*job.streams + st
			g := &openGen{q: sim.NewQueue[arrival](l.eng)}
			o.gens = append(o.gens, g)
			base := uint64(gen) * region
			l.spawn(fmt.Sprintf("load/gen%d.%d", ii, st), func(p *sim.Proc) {
				rng := rand.New(rand.NewSource(genSeed(seed, gen)))
				due := float64(p.Now())
				for !l.stop {
					due += rng.ExpFloat64() * meanGap
					if d := sim.Time(due) - p.Now(); d > 0 {
						p.Sleep(d)
					}
					if l.stop {
						break
					}
					if late := p.Now() - sim.Time(due); late > o.lateMax {
						o.lateMax = late
					}
					inWin := p.Now() >= l.winStart && p.Now() < l.winEnd
					if inWin {
						o.arrivals++
					}
					lba := base + uint64(rng.Int63n(int64(region)))
					if job.maxBacklog > 0 && g.q.Len() >= job.maxBacklog {
						if inWin {
							o.dropped++
						}
						continue
					}
					// Latency is timed from the instant the request was
					// due, so a stalled issuer's wait counts.
					g.q.Push(arrival{lba: lba, at: sim.Time(due)})
				}
				// Whatever is still queued was never sent; the in-flight
				// rest drains and is swept by the issuer's final pass.
				g.q.Drain()
				g.q.Push(arrival{at: -1})
			})
			l.spawn(fmt.Sprintf("load/issue%d.%d", ii, st), func(p *sim.Proc) {
				stamp := uint64(gen+1) << 32
				var lastDeliver sim.Time
				sweep := func(all bool) {
					for len(g.pending) > 0 && (all || g.pending[0].req.Done.Fired()) {
						pe := g.pending[0]
						g.pending = g.pending[1:]
						if all {
							in.Wait(p, pe.req)
						}
						if pe.req.DeliverAt < lastDeliver {
							l.misordered++
						}
						lastDeliver = pe.req.DeliverAt
						l.done(pe.at, pe.req.DeliverAt)
					}
				}
				for {
					a := g.q.Pop(p)
					if a.at < 0 {
						break
					}
					stamp++
					req := in.OrderedWrite(p, st, a.lba, 1, stamp, nil, true, false, false)
					g.pending = append(g.pending, pendingOp{req: req, at: a.at})
					sweep(false)
				}
				sweep(true)
			})
		}
	}
	return o
}

// zipf draws ranks from the YCSB Zipfian distribution (Gray et al.; rank
// 0 is the hottest). math/rand's Zipf cannot do skew below 1.
type zipf struct {
	n                        uint64
	theta, alpha, zetan, eta float64
	half                     float64
}

func newZipf(n uint64, theta float64) *zipf {
	zeta := func(n uint64) float64 {
		s := 0.0
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n), half: math.Pow(0.5, theta)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

func (z *zipf) next(rng *rand.Rand) uint64 {
	u := rng.Float64()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}
