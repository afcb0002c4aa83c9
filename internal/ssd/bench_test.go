package ssd

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// BenchmarkOptaneWriteComplete is one 4 KB write on the PLP profile from
// Submit to Done (`make bench-layers`), 32 in flight. The submitter owns
// the command records and reuses each from its Done on, as the target does.
func BenchmarkOptaneWriteComplete(b *testing.B) { benchWriteComplete(b, OptaneConfig(), 0) }

// BenchmarkOptaneWriteScatter is BenchmarkOptaneWriteComplete with each
// LBA drawn uniformly from 2 Mi blocks, blk_rand4k's span per device: the
// durable content keeps growing, as it does under random writes, where
// cycling 4 096 LBAs stops growing it after the first few thousand writes.
func BenchmarkOptaneWriteScatter(b *testing.B) { benchWriteComplete(b, OptaneConfig(), 2<<20) }

// BenchmarkFlashWriteDestage is the same loop on the flash profile: a write
// completes from the volatile cache (it may wait for a front-end unit and
// for cache space) and is destaged by a channel behind it, which is what
// throttles the loop once the cache has filled.
func BenchmarkFlashWriteDestage(b *testing.B) { benchWriteComplete(b, FlashConfig(), 0) }

// benchWriteComplete cycles the writes over 4 096 LBAs, or with span > 0
// draws each uniformly from [0, span).
func benchWriteComplete(b *testing.B, cfg Config, span int64) {
	e := sim.New(1)
	defer e.Shutdown()
	dev := New(e, cfg)
	stamps := []uint64{1}
	rng := rand.New(rand.NewSource(1))
	left, done := b.N, 0
	var onDone func(*Command)
	submit := func(cmd *Command) {
		left--
		lba := uint64(left) % 4096
		if span > 0 {
			lba = uint64(rng.Int63n(span))
		}
		cmd.Op, cmd.LBA, cmd.Blocks, cmd.Stamps, cmd.Done = OpWrite, lba, 1, stamps, onDone
		dev.Submit(cmd)
	}
	onDone = func(cmd *Command) {
		done++
		if left > 0 {
			submit(cmd)
		}
	}
	e.At(0, func() {
		for i := 0; i < 32 && left > 0; i++ {
			submit(new(Command))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	if done != b.N {
		b.Fatalf("completed %d of %d", done, b.N)
	}
}

// BenchmarkFlashWriteFlush is the flash durability barrier as the target
// drives it: a burst of eight 4-block writes, then — from the last write's
// Done — one FLUSH that drains them, and from the FLUSH's Done the next
// burst. One iteration is one burst plus its FLUSH (the inserts, the drain
// wait on the destage cond, the FlushBase sleep).
func BenchmarkFlashWriteFlush(b *testing.B) {
	const burst, blocks = 8, 4
	e := sim.New(1)
	defer e.Shutdown()
	dev := New(e, FlashConfig())
	stamps := []uint64{1, 2, 3, 4}
	flushes, landed := 0, 0
	var writes [burst]Command
	var flush Command
	submitBurst := func() {
		landed = 0
		for i := range writes {
			w := &writes[i]
			w.Op, w.LBA, w.Blocks, w.Stamps = OpWrite, uint64(i*blocks), blocks, stamps
			dev.Submit(w)
		}
	}
	onWrite := func(*Command) {
		if landed++; landed == burst {
			flush.Op = OpFlush
			dev.Submit(&flush)
		}
	}
	for i := range writes {
		writes[i].Done = onWrite
	}
	flush.Done = func(*Command) {
		if flushes++; flushes < b.N {
			submitBurst()
		}
	}
	e.At(0, submitBurst)
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	if flushes != b.N || dev.Stats().Flushes != int64(b.N) {
		b.Fatalf("completed %d FLUSHes (%d at the device) of %d", flushes, dev.Stats().Flushes, b.N)
	}
}
