package blockdev

import (
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sim"
)

func vol4() *Volume {
	devs := []DevRef{
		{Server: 0, SSD: 0, Blocks: 1 << 20},
		{Server: 0, SSD: 1, Blocks: 1 << 20},
		{Server: 1, SSD: 0, Blocks: 1 << 20},
		{Server: 1, SSD: 1, Blocks: 1 << 20},
	}
	return NewVolume(devs, 1)
}

func TestVolumeRoundRobinMap(t *testing.T) {
	v := vol4()
	// 4 KB round-robin: logical 0,1,2,3 hit devices 0,1,2,3; logical 4
	// wraps to device 0 at device LBA 1.
	for lba := uint64(0); lba < 8; lba++ {
		dev, devLBA := v.Map(lba)
		if dev != int(lba%4) || devLBA != lba/4 {
			t.Fatalf("Map(%d) = dev%d lba%d, want dev%d lba%d", lba, dev, devLBA, lba%4, lba/4)
		}
	}
	if v.Devices() != 4 || v.Blocks() != 4<<20 {
		t.Fatal("geometry accessors wrong")
	}
}

func TestVolumeExtentsSplitAndCoalesce(t *testing.T) {
	v := vol4()
	// A 16-block logical run maps to 4 extents of 4 contiguous device
	// blocks each (stride pattern coalesces per device? No: chunk=1 visits
	// devices round-robin, so runs alternate; each extent is 1 block until
	// the wrap revisits the device — extents list is in request order).
	ex := v.Extents(0, 16)
	if len(ex) != 16 {
		t.Fatalf("extents = %d, want 16 one-block extents for chunk=1", len(ex))
	}
	var perDev [4]uint32
	for _, e := range ex {
		perDev[e.Dev] += e.Blocks
	}
	for d, n := range perDev {
		if n != 4 {
			t.Fatalf("device %d got %d blocks, want 4", d, n)
		}
	}
	// With chunk=8, one 16-block run is two extents.
	v8 := NewVolume([]DevRef{{Blocks: 1 << 20}, {Blocks: 1 << 20}}, 8)
	ex = v8.Extents(0, 16)
	if len(ex) != 2 || ex[0].Blocks != 8 || ex[1].Dev != 1 {
		t.Fatalf("chunk-8 extents = %+v", ex)
	}
	// Misaligned start.
	ex = v8.Extents(4, 8)
	if len(ex) != 2 || ex[0].Blocks != 4 || ex[0].DevLBA != 4 || ex[1].DevLBA != 0 {
		t.Fatalf("misaligned extents = %+v", ex)
	}
}

func TestVolumeSingleDeviceIdentity(t *testing.T) {
	v := NewVolume([]DevRef{{Blocks: 1 << 20}}, 1)
	ex := v.Extents(123, 32)
	if len(ex) != 1 || ex[0].DevLBA != 123 || ex[0].Blocks != 32 {
		t.Fatalf("single-device extents = %+v", ex)
	}
}

// Property: extents partition the request exactly and map consistently
// with Map().
func TestExtentsPartitionProperty(t *testing.T) {
	f := func(lbaRaw uint32, blocksRaw uint8, devsRaw, chunkRaw uint8) bool {
		nd := int(devsRaw%6) + 1
		chunk := int(chunkRaw%8) + 1
		devs := make([]DevRef, nd)
		for i := range devs {
			devs[i].Blocks = 1 << 22
		}
		v := NewVolume(devs, chunk)
		lba := uint64(lbaRaw % 100000)
		blocks := uint32(blocksRaw%64) + 1
		ex := v.Extents(lba, blocks)
		var total uint32
		next := lba
		for _, e := range ex {
			if e.Offset != uint32(next-lba) {
				return false
			}
			for i := uint32(0); i < e.Blocks; i++ {
				d, dl := v.Map(next)
				if d != e.Dev || dl != e.DevLBA+uint64(i) {
					return false
				}
				next++
			}
			total += e.Blocks
		}
		return total == blocks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func mkWire(dev int, lba uint64, blocks uint32, seq uint64) *WireCmd {
	return &WireCmd{
		Dev: dev, LBA: lba, Blocks: blocks, Ordered: true,
		Attr: core.Attr{
			SeqStart: seq, SeqEnd: seq, Num: 1, Boundary: true,
			LBA: lba, Blocks: blocks,
		},
		Stamps: make([]uint64, blocks),
		Reqs:   []*Request{{}},
	}
}

func TestTryFuseContiguous(t *testing.T) {
	a := mkWire(0, 10, 2, 1)
	b := mkWire(0, 12, 1, 2)
	if !TryFuse(a, b, 32) {
		t.Fatal("contiguous same-device commands should fuse")
	}
	if a.Blocks != 3 || a.Attr.SeqEnd != 2 || a.Attr.Num != 2 {
		t.Fatalf("fused = %+v attr=%+v", a, a.Attr)
	}
	if len(a.Reqs) != 2 || len(a.Stamps) != 3 {
		t.Fatalf("fused bookkeeping: reqs=%d stamps=%d", len(a.Reqs), len(a.Stamps))
	}
}

func TestTryFuseRejections(t *testing.T) {
	base := func() *WireCmd { return mkWire(0, 10, 2, 1) }
	cases := []struct {
		name string
		b    *WireCmd
		max  int
	}{
		{"different device", mkWire(1, 12, 1, 2), 32},
		{"LBA gap", mkWire(0, 13, 1, 2), 32},
		{"seq gap", mkWire(0, 12, 1, 3), 32},
		{"transfer limit", mkWire(0, 12, 31, 2), 32},
	}
	for _, c := range cases {
		a := base()
		if TryFuse(a, c.b, c.max) {
			t.Errorf("%s: fuse should be rejected", c.name)
		}
		if a.Blocks != 2 {
			t.Errorf("%s: rejected fuse mutated target", c.name)
		}
	}
	// Orderless commands never fuse via this path.
	a, b := base(), mkWire(0, 12, 1, 2)
	a.Ordered = false
	if TryFuse(a, b, 32) {
		t.Error("orderless fuse should be rejected")
	}
}

func TestFuseRunBatch(t *testing.T) {
	// 8 consecutive single-block groups: one fused command.
	var cmds []*WireCmd
	for i := 0; i < 8; i++ {
		cmds = append(cmds, mkWire(0, uint64(10+i), 1, uint64(i+1)))
	}
	out := FuseRun(cmds, 32)
	if len(out) != 1 {
		t.Fatalf("fused batch = %d commands, want 1", len(out))
	}
	if out[0].Blocks != 8 || out[0].Attr.SeqStart != 1 || out[0].Attr.SeqEnd != 8 {
		t.Fatalf("fused = %+v", out[0].Attr)
	}
	// A gap splits the run.
	cmds = nil
	for i := 0; i < 4; i++ {
		cmds = append(cmds, mkWire(0, uint64(10+i), 1, uint64(i+1)))
	}
	cmds = append(cmds, mkWire(0, 99, 1, 5))
	out = FuseRun(cmds, 32)
	if len(out) != 2 {
		t.Fatalf("gap batch = %d commands, want 2", len(out))
	}
}

func TestFragmentAccounting(t *testing.T) {
	r := &Request{}
	r.InitFragments(3)
	if r.FragmentDone() || r.FragmentDone() {
		t.Fatal("request complete too early")
	}
	if !r.FragmentDone() {
		t.Fatal("request should be complete after third fragment")
	}
}

func TestInlineBytesThreshold(t *testing.T) {
	w := mkWire(0, 0, 2, 1)
	if w.InlineBytes(8192) != 8192 {
		t.Fatal("2 blocks should ride inline under an 8 KB threshold")
	}
	if w.InlineBytes(4096) != 0 {
		t.Fatal("2 blocks must not inline under a 4 KB threshold")
	}
	if w.PayloadBytes() != 8192 {
		t.Fatal("payload bytes wrong")
	}
}

// AppendExtents into scratch that already holds extents must not coalesce
// across the call boundary, and must agree with Extents.
func TestAppendExtentsIntoScratch(t *testing.T) {
	v := NewVolume([]DevRef{{Blocks: 1 << 20}}, 4) // one device: every chunk is adjacent to the last
	scratch := v.AppendExtents(nil, 0, 4)
	scratch = v.AppendExtents(scratch, 4, 8)
	want := append(v.Extents(0, 4), v.Extents(4, 8)...)
	if len(scratch) != 2 || len(want) != 2 || scratch[0] != want[0] || scratch[1] != want[1] {
		t.Fatalf("AppendExtents = %+v, want %+v", scratch, want)
	}
}

// A request's Done signal lives in the request's own allocation.
func TestInitDoneUsesInlineStorage(t *testing.T) {
	e := sim.New(1)
	r := &Request{}
	r.InitDone(e)
	if r.Done != &r.done || r.Done.Fired() {
		t.Fatal("InitDone did not point Done at the unfired inline signal")
	}
	woke := false
	e.Go("waiter", func(p *sim.Proc) { r.Done.Wait(p); woke = true })
	e.At(10, r.Done.Fire)
	e.Run()
	if !woke {
		t.Fatal("waiter on the inline signal never woke")
	}
	e.Shutdown()
}
