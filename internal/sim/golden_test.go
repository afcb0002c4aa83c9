package sim

import (
	"encoding/binary"
	"hash/fnv"
	"testing"
)

// TestGoldenMixedScenario pins the engine's event order. The constants were
// recorded from the channel-and-container/heap engine; any substrate that
// keeps the (at, seq) pop order and spends one seq per At/Sleep/wake/Go
// reproduces them exactly.
func TestGoldenMixedScenario(t *testing.T) {
	e := New(7)
	defer e.Shutdown()
	h := fnv.New64a()
	steps := 0
	step := func(id int) {
		var b [16]byte
		binary.LittleEndian.PutUint64(b[:8], uint64(e.Now()))
		binary.LittleEndian.PutUint64(b[8:], uint64(id))
		h.Write(b[:])
		steps++
	}

	cpu := NewResource(e, 2)
	q := NewQueue[int](e)
	gate := NewCond(e)
	open := false
	wg := NewWaitGroup(e)

	// Consumers: pop, spend CPU, fire the per-item signal from a nested proc.
	sigs := make([]*Signal, 40)
	for i := range sigs {
		sigs[i] = NewSignal(e)
	}
	for c := 0; c < 3; c++ {
		e.Go("consumer", func(p *Proc) {
			for {
				item := q.Pop(p)
				step(100 + c)
				cpu.Use(p, Time(5+item%7))
				e.Go("completer", func(cp *Proc) {
					cp.Sleep(Time(1 + item%3))
					step(200 + item)
					sigs[item].Fire()
				})
			}
		})
	}

	// Producers: wait for the gate, then push with random think time and
	// wait for every fourth item's signal.
	for pr := 0; pr < 4; pr++ {
		wg.Add(1)
		e.Go("producer", func(p *Proc) {
			for !open {
				gate.Wait(p)
			}
			for k := 0; k < 10; k++ {
				item := pr*10 + k
				p.Sleep(Time(e.Rand().Intn(20)))
				cpu.Use(p, 3)
				q.Push(item)
				step(300 + pr)
				if k%4 == 0 {
					sigs[item].Wait(p)
					step(400 + pr)
				}
				p.Yield()
			}
			wg.Done()
		})
	}

	// Same-instant yielders contending with the gate opening.
	for y := 0; y < 3; y++ {
		e.Go("yielder", func(p *Proc) {
			p.Sleep(50)
			for k := 0; k < 5; k++ {
				step(500 + y)
				p.Yield()
			}
		})
	}
	e.At(50, func() {
		step(600)
		open = true
		gate.Broadcast()
	})
	var doneAt Time
	e.Go("joiner", func(p *Proc) {
		wg.Wait(p)
		for _, s := range sigs {
			s.Wait(p)
		}
		doneAt = p.Now()
		step(700)
	})
	e.Run()

	const (
		wantNow   = Time(281)
		wantSeq   = uint64(385)
		wantSteps = 149
		wantHash  = uint64(0x5f29487884817a05)
	)
	if e.Now() != wantNow || e.seq != wantSeq || steps != wantSteps || h.Sum64() != wantHash {
		t.Fatalf("now=%d seq=%d steps=%d hash=%#x (joiner done at %v); want now=%d seq=%d steps=%d hash=%#x",
			e.Now(), e.seq, steps, h.Sum64(), doneAt, wantNow, wantSeq, wantSteps, wantHash)
	}
}
