package sim

import (
	"slices"
	"testing"
)

// station is what the schedule below drives: a Server, or the Queue + proc
// loop it stands in for.
type station interface {
	Push(v int)
	Len() int
	Drain() []int
}

// procLoopStation is the reference: the consumer proc of Server's doc
// comment over a Queue.
func procLoopStation(e *Engine, start func(int) (Time, bool), finish func(int)) station {
	q := NewQueue[int](e)
	e.Go("station", func(p *Proc) {
		for {
			v := q.Pop(p)
			if d, ok := start(v); ok {
				p.Sleep(d)
				finish(v)
			}
		}
	})
	return q
}

func serverStation(e *Engine, start func(int) (Time, bool), finish func(int)) station {
	return NewServer(e, start, finish)
}

type traceRec struct {
	at  Time
	seq uint64
	tag int
}

// stationTrace runs one seeded schedule against a station built by mk and
// returns every step as (now, seq so far, tag). Service time is 3·(v mod 4)
// — zero for every fourth item — and v mod 7 == 3 is skipped by start.
// Producers, a timer chain and a contended resource interleave with it so
// that a seq spent one event early or late reorders the rest of the run.
func stationTrace(mk func(*Engine, func(int) (Time, bool), func(int)) station) []traceRec {
	e := New(11)
	defer e.Shutdown()
	var tr []traceRec
	step := func(tag int) { tr = append(tr, traceRec{e.now, e.seq, tag}) }

	var st station
	cpu := NewResource(e, 1)
	st = mk(e,
		func(v int) (Time, bool) {
			step(1000 + v)
			step(5000 + st.Len()) // what TxDepth and SatKnee read: the backlog after the pop
			if v%7 == 3 {
				return 0, false
			}
			return Time(3 * (v % 4)), true
		},
		func(v int) {
			step(2000 + v)
			if v%5 == 0 {
				e.At(1, func() { step(2500 + v) }) // finish schedules, as a delivery does
			}
		})

	// Random phase, 0..~250 ns: pushes land on an idle, a woken and a busy
	// station; the producers also fight over one core.
	for pr := 0; pr < 3; pr++ {
		e.Go("producer", func(p *Proc) {
			for k := 0; k < 12; k++ {
				p.Sleep(Time(e.Rand().Intn(9)))
				cpu.Use(p, Time(1+e.Rand().Intn(3)))
				st.Push(10 + pr*12 + k)
				step(3000 + pr)
				if k%3 == 0 {
					p.Yield()
				}
			}
		})
	}
	var tick func()
	n := 0
	tick = func() {
		step(4000)
		if n++; n < 40 {
			if n%6 == 0 {
				st.Push(100 + n)
			}
			e.At(Time(1+n%5), tick)
		}
	}
	e.At(0, tick)

	// Pushed before the station's first event has run — which was scheduled
	// at construction, ahead of the producers' and the timer's: no wake-up.
	st.Push(1)
	st.Push(2)

	drain := func(tag int) {
		for _, v := range st.Drain() {
			step(tag + v)
		}
	}
	// Drain while idle, then one push: exactly one wake-up.
	e.At(1000, func() { drain(6000); st.Push(201) })
	// Drain mid-service: 202 (6 ns) is in service and still finishes; 206
	// and 207 are removed.
	e.At(1100, func() { st.Push(202); st.Push(206); st.Push(207) })
	e.At(1104, func() { drain(7000) })
	// Drain between the wake-up and its run: the station wakes to nothing,
	// and the next push wakes it again.
	e.At(1200, func() { st.Push(209); drain(8000) })
	e.At(1201, func() { st.Push(210) })
	// Push behind a busy station (221: 3 ns): a zero-time item, a timed one
	// and a skipped one, back to back.
	e.At(1300, func() { st.Push(221) })
	e.At(1301, func() { st.Push(212); st.Push(214); st.Push(220) })
	e.Run()
	step(9999)
	return tr
}

// A Server must be indistinguishable from the proc loop it replaces: same
// steps at the same (at, seq), so swapping one for the other moves no
// simulated number.
func TestServerMatchesProcLoop(t *testing.T) {
	want := stationTrace(procLoopStation)
	got := stationTrace(serverStation)
	for i := 0; i < len(want) && i < len(got); i++ {
		if got[i] != want[i] {
			t.Fatalf("step %d: server %+v, proc loop %+v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("server made %d steps, proc loop %d", len(got), len(want))
	}

	// The schedule must have exercised each case it claims to.
	tags := make(map[int]Time, len(want))
	for _, r := range want {
		if _, seen := tags[r.tag]; !seen {
			tags[r.tag] = r.at
		}
	}
	has := func(tag int) bool { _, ok := tags[tag]; return ok }
	switch {
	case tags[1001] != 0 || tags[2002] != 3+6:
		t.Errorf("items pushed before the first run: start(1) at %v, finish(2) at %v", tags[1001], tags[2002])
	case !has(7206) || !has(7207) || has(1206) || tags[2202] != 1100+6:
		t.Errorf("drain mid-service: drained 206/207 = %v/%v, started 206 = %v, finish(202) at %v",
			has(7206), has(7207), has(1206), tags[2202])
	case !has(8209) || has(1209) || tags[2210] != 1201+6:
		t.Errorf("drain between wake-up and run: drained 209 = %v, started = %v, finish(210) at %v", has(8209), has(1209), tags[2210])
	case tags[2212] != 1303 || tags[2214] != 1303+6 || tags[1220] != 1309 || has(2220):
		t.Errorf("items behind a busy station: finish(212) at %v, finish(214) at %v, skipped 220 started at %v, finished = %v",
			tags[2212], tags[2214], tags[1220], has(2220))
	case !has(5002):
		t.Error("no start ever saw a backlog of 2: the schedule never queued behind a busy station")
	case slices.ContainsFunc(want, func(r traceRec) bool { return r.tag >= 6000 && r.tag < 7000 }):
		t.Error("drain at t = 1000 found items: the station was not idle, so the idle case is not exercised")
	}
}
