package ssd

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkOptaneWriteComplete is one 4 KB write on the PLP profile from
// Submit to Done (`make bench-layers`), 32 in flight. The submitter owns
// the command records and reuses each from its Done on, as the target does.
func BenchmarkOptaneWriteComplete(b *testing.B) { benchWriteComplete(b, OptaneConfig()) }

// BenchmarkFlashWriteDestage is the same loop on the flash profile: a write
// completes from the volatile cache (a proc per command: it may wait for
// cache space) and is destaged by a channel behind it, which is what
// throttles the loop once the cache has filled.
func BenchmarkFlashWriteDestage(b *testing.B) { benchWriteComplete(b, FlashConfig()) }

func benchWriteComplete(b *testing.B, cfg Config) {
	e := sim.New(1)
	defer e.Shutdown()
	dev := New(e, cfg)
	stamps := []uint64{1}
	left, done := b.N, 0
	var onDone func(*Command)
	submit := func(cmd *Command) {
		left--
		cmd.Op, cmd.LBA, cmd.Blocks, cmd.Stamps, cmd.Done = OpWrite, uint64(left)%4096, 1, stamps, onDone
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
