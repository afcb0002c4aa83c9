package main

import (
	"syscall"
	"time"
)

// The sandbox is a few cores of a shared host. Two things make a wall-clock
// cost measured in one invocation incomparable with the next: the process is
// descheduled for a varying share of the time, and what it executes runs at a
// speed that drifts by tens of per cent over minutes, for every workload at
// once (neighbours on the sibling hyperthread and in the shared cache).
//
// Against the first, the host clock of this benchmark is the CPU time of
// the process, not wall time: the simulator runs one goroutine at a time on
// one P, never blocks on I/O, and so the two agree on a quiet machine.
//
// Against the second, a yardstick — a fixed piece of work in the shape of
// the simulator's own, two goroutines handing a token to each other over
// unbuffered channels (a proc switch) with a timer-heap pop and push per
// handoff — is timed right before and right after every step of a measure
// window. It uses the standard library only and allocates nothing once
// built, so no change outside benchmark/ can move it, and it neither
// triggers nor pays for a collection of the cluster's heap. A step's cost is
// divided by how much slower than yardNominalNs the yardstick ran around
// it: host_ns_per_op and setup_s are in nanoseconds and seconds of a quiet
// sandbox. The uncalibrated numbers are reported beside them.

const (
	yardTrips     = 40_000 // handoff round trips per reading
	yardHeap      = 1024   // pending timers
	yardNominalNs = 470.0  // one round trip on the quiet sandbox
)

// cpuNow is the CPU time the process has used so far, user and system.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // only a bad pointer or selector fails
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type yardstick struct {
	heap []int64 // binary min-heap of due times
	rng  uint64
}

func newYardstick() *yardstick {
	y := &yardstick{heap: make([]int64, 0, yardHeap+1), rng: 88172645463325252}
	for len(y.heap) < yardHeap {
		y.push(int64(y.next() >> 44))
	}
	return y
}

func (y *yardstick) next() uint64 {
	y.rng ^= y.rng << 13
	y.rng ^= y.rng >> 7
	y.rng ^= y.rng << 17
	return y.rng
}

func (y *yardstick) push(v int64) {
	h := append(y.heap, v)
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up] <= h[i] {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	y.heap = h
}

func (y *yardstick) pop() int64 {
	h := y.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	y.heap = h
	return top
}

// reading does yardTrips round trips and returns the CPU nanoseconds one
// took.
func (y *yardstick) reading() float64 {
	ping, pong := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(pong)
		for range ping {
			pong <- struct{}{}
		}
	}()
	t0 := cpuNow()
	for i := 0; i < yardTrips; i++ {
		y.push(y.pop() + int64(y.next()>>44))
		ping <- struct{}{}
		<-pong
	}
	d := cpuNow() - t0
	close(ping)
	<-pong // closed when the partner has returned
	return float64(d.Nanoseconds()) / yardTrips
}
