package order

import "testing"

// BenchmarkDomainGateParkRetire is one ordering domain's life of a command
// (`make bench-layers`), in windows of 16 ServerIdx the way a dispatch batch
// reaches the target: the window arrives reversed, so 15 commands park and
// the one at the frontier admits and drains them (Admit, Park, Advance,
// TakeNext); each admitted command records its PMR slot, and the window's
// end retires all 16 (RecordSlot, RetireUpTo). One iteration is one command.
func BenchmarkDomainGateParkRetire(b *testing.B) {
	const window = 16
	d := NewEngine[int](Rio{}, 1, 1, 1, window).Domain(0, 0)
	freed := 0
	free := func(uint64) { freed++ }
	submit := func(idx uint64) {
		d.RecordSlot(idx, idx)
		d.Advance(idx)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for base := uint64(1); base <= uint64(b.N); base += window {
		for idx := base + window - 1; idx >= base; idx-- {
			if !d.Admit(idx) {
				d.Park(idx, int(idx))
				continue
			}
			submit(idx)
			for {
				v, ok := d.TakeNext()
				if !ok {
					break
				}
				submit(uint64(v))
			}
		}
		d.RetireUpTo(base+window-1, free)
	}
	b.StopTimer()
	if want := (b.N + window - 1) / window * window; freed != want || d.ParkedLen() != 0 || d.AuditParked() != 0 {
		b.Fatalf("retired %d slots of %d, %d still parked", freed, want, d.ParkedLen())
	}
}
