package workload

import (
	"fmt"

	"repro/internal/blockdev"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/stack"
)

// Arrival selects the open-loop arrival process.
type Arrival int

const (
	// ArrivalPoisson issues independent exponential interarrivals at the
	// offered rate.
	ArrivalPoisson Arrival = iota
	// ArrivalBursty modulates a Poisson process with a two-state Markov
	// chain (MMPP): an ON state concentrates Burst of the offered load,
	// the OFF state carries the remainder, with exponential dwell times.
	ArrivalBursty
)

// SatJob configures an open-loop saturation benchmark: arrivals are
// generated at a configured offered load regardless of completions, so
// the cluster's response past its service ceiling is observable —
// unlike the closed-loop drivers, whose issue rate is throttled by the
// completion rate and which therefore never expose the saturation knee.
type SatJob struct {
	Streams    int // per-initiator streams, one generator each
	Initiators int // initiator servers to drive (0 = 1)

	// OfferedKIOPS is the total offered load across the whole fleet,
	// split evenly over Initiators×Streams generators.
	OfferedKIOPS float64

	Arrival Arrival
	// Bursty-arrival shape (ArrivalBursty only). Burst is the fraction
	// of offered load carried by the ON state (0 selects 0.9); BurstOn
	// and BurstOff are the mean state dwell times (0 selects 50 µs and
	// 200 µs).
	Burst    float64
	BurstOn  sim.Time
	BurstOff sim.Time

	// Keys bounds the Zipfian keyspace per generator in blocks (0 or
	// larger than the private region selects the whole region); Theta is
	// the Zipfian skew, 0 = uniform.
	Keys  uint64
	Theta float64

	// MaxBacklog bounds each generator's arrival queue: arrivals landing
	// on a full queue are dropped (and counted), modelling an application
	// that sheds load instead of queueing unboundedly. 0 = unbounded.
	MaxBacklog int
}

// SatResult is the measured outcome of an open-loop run. Latency is
// measured from ARRIVAL (not submission), so queueing delay ahead of a
// saturated stack is part of the distribution — the quantity an
// open-loop client actually experiences.
type SatResult struct {
	Elapsed    sim.Time
	Arrivals   int64 // generated during the measurement window
	Issued     int64 // handed to the stack during the window
	Dropped    int64 // shed on a full backlog during the window
	Completed  int64 // delivered during the window
	BacklogEnd int   // arrivals still queued or in flight at window end
	Lat        metrics.Histogram
	InitUtil   float64
	TgtUtil    float64
	Stats      stack.ClusterStats
	TgtStats   stack.TargetStats
}

// DeliveredKIOPS returns the completion rate in thousands of ops/s.
func (r SatResult) DeliveredKIOPS() float64 { return kiops(r.Completed, r.Elapsed) }

// P99US returns the 99th-percentile arrival-to-completion latency in µs.
func (r SatResult) P99US() float64 { return float64(r.Lat.P99()) / 1000 }

// DropFrac returns the fraction of arrivals shed on a full backlog.
func (r SatResult) DropFrac() float64 {
	if r.Arrivals == 0 {
		return 0
	}
	return float64(r.Dropped) / float64(r.Arrivals)
}

type satArrival struct {
	lba uint64
	at  sim.Time
}

type satPending struct {
	req *blockdev.Request
	at  sim.Time
}

// satGen is one (initiator, stream) generator/issuer pair's shared state.
// The engine is single-threaded, so the driver reads it without locks.
type satGen struct {
	q        *sim.Queue[satArrival]
	pending  []satPending
	arrivals int64
	issued   int64
	dropped  int64
}

// RunSatLoad executes an open-loop saturation benchmark on c: one
// generator process per (initiator, stream) produces arrivals at the
// configured offered rate into a bounded queue, and one issuer process
// drains it through OrderedWrite. When the stack pushes back (submit
// gate, fabric TX stalls, device saturation) the issuer stalls and the
// queue grows — the generators never slow down.
func RunSatLoad(eng *sim.Engine, c *stack.Cluster, job SatJob, warmup, measure sim.Time) SatResult {
	if job.Initiators <= 0 {
		job.Initiators = 1
	}
	if job.Streams <= 0 {
		job.Streams = 1
	}
	if job.OfferedKIOPS <= 0 {
		panic("workload: SatJob.OfferedKIOPS must be > 0")
	}
	if job.Burst <= 0 || job.Burst >= 1 {
		job.Burst = 0.9
	}
	if job.BurstOn <= 0 {
		job.BurstOn = 50 * sim.Microsecond
	}
	if job.BurstOff <= 0 {
		job.BurstOff = 200 * sim.Microsecond
	}
	const region = uint64(1 << 20) // private 4 GB area per generator (blocks)
	keys := job.Keys
	if keys == 0 || keys > region {
		keys = region
	}
	rng := eng.Rand()
	var zipf *Zipf
	if job.Theta > 0 {
		// One generator serves every stream: the zeta normalization is
		// O(keys), and the keyspace shape is shared anyway.
		zipf = NewZipf(rng, keys, job.Theta)
	}
	nGen := job.Initiators * job.Streams
	// Offered rate per generator, in ops per nanosecond.
	perGen := job.OfferedKIOPS * 1e3 / 1e9 / float64(nGen)
	meanGap := 1 / perGen

	// Bursty shape: the ON state carries job.Burst of the load but only
	// pOn of the time, so its instantaneous rate is Burst/pOn times the
	// mean; the OFF state carries the complement.
	pOn := job.BurstOn.Seconds() / (job.BurstOn + job.BurstOff).Seconds()
	gapOn := meanGap * pOn / job.Burst
	gapOff := meanGap * (1 - pOn) / (1 - job.Burst)

	m := &Meter{}
	gens := make([]*satGen, nGen)
	for ii := 0; ii < job.Initiators; ii++ {
		in := c.Init(ii)
		for st := 0; st < job.Streams; st++ {
			ii, st := ii, st
			g := &satGen{q: sim.NewQueue[satArrival](eng)}
			gens[ii*job.Streams+st] = g
			base := uint64(ii*job.Streams+st) * region

			eng.Go(fmt.Sprintf("wl/satgen%d.%d", ii, st), func(p *sim.Proc) {
				on := false
				var dwellEnd sim.Time
				for {
					if job.Arrival == ArrivalBursty {
						// Exponential interarrival at the current state's
						// rate, truncated at the state boundary: a draw that
						// crosses the dwell end is discarded and redrawn at
						// the new state's rate (valid by memorylessness), so
						// a long OFF-state gap never swallows an ON burst.
						for {
							if p.Now() >= dwellEnd {
								on = !on
								mean := job.BurstOff
								if on {
									mean = job.BurstOn
								}
								dwellEnd = p.Now() + sim.Time(rng.ExpFloat64()*float64(mean))
							}
							gap := gapOff
							if on {
								gap = gapOn
							}
							d := sim.Time(rng.ExpFloat64() * gap)
							if p.Now()+d <= dwellEnd {
								p.Sleep(d)
								break
							}
							p.Sleep(dwellEnd - p.Now())
						}
					} else {
						p.Sleep(sim.Time(rng.ExpFloat64() * meanGap))
					}
					var off uint64
					if zipf != nil {
						off = zipf.Next()
					} else {
						off = uint64(rng.Int63n(int64(keys)))
					}
					g.arrivals++
					if job.MaxBacklog > 0 && g.q.Len() >= job.MaxBacklog {
						g.dropped++
						continue
					}
					g.q.Push(satArrival{lba: base + off, at: p.Now()})
				}
			})

			eng.Go(fmt.Sprintf("wl/satissue%d.%d", ii, st), func(p *sim.Proc) {
				stamp := uint64(ii*job.Streams+st+1) << 32
				for {
					a := g.q.Pop(p)
					stamp++
					req := in.OrderedWrite(p, st, a.lba, 1, stamp, nil, true, false, false)
					g.issued++
					g.pending = append(g.pending, satPending{req: req, at: a.at})
					// Ordered delivery is FIFO per stream: completed
					// requests accumulate at the front. Pruning is lazy, so
					// an op that completed during warmup may only be pruned
					// after the meter warms — gate on the delivery time, not
					// the prune time, to keep warmup completions out of the
					// measurement window.
					for len(g.pending) > 0 && g.pending[0].req.Done.Fired() {
						pe := g.pending[0]
						g.pending = g.pending[1:]
						if pe.req.DeliverAt >= m.started {
							m.Op(4096, pe.req.DeliverAt-pe.at)
						}
					}
				}
			})
		}
	}

	var arr0, iss0, drop0 int64
	w := measureWindow(eng, c, warmup, measure, func() {
		m.open(eng.Now())
		for _, g := range gens {
			arr0 += g.arrivals
			iss0 += g.issued
			drop0 += g.dropped
		}
	})
	end := eng.Now()

	res := SatResult{
		Elapsed:  w.Elapsed,
		InitUtil: w.InitUtil,
		TgtUtil:  w.TgtUtil,
		Stats:    w.Stats,
		TgtStats: w.TgtStats,
	}
	for _, g := range gens {
		res.Arrivals += g.arrivals
		res.Issued += g.issued
		res.Dropped += g.dropped
		res.BacklogEnd += g.q.Len()
		// Sweep completions the issuer has not pruned yet (it only prunes
		// when issuing, and the engine is stopped now). Only deliveries
		// inside the measurement window count; one delivered during warmup
		// is neither a measured completion nor backlog.
		for _, pe := range g.pending {
			switch {
			case pe.req.Done.Fired() && pe.req.DeliverAt >= m.started && pe.req.DeliverAt <= end:
				m.Op(4096, pe.req.DeliverAt-pe.at)
			case !pe.req.Done.Fired():
				res.BacklogEnd++
			}
		}
	}
	res.Arrivals -= arr0
	res.Issued -= iss0
	res.Dropped -= drop0
	res.Completed = m.ops
	res.Lat = m.lat
	return res
}
