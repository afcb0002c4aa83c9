package ssd

import (
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/sim"
)

// mapMedia is the reference model of a device's durable content: a map of
// current records and, under KeepHistory, a map of the versions under them.
// TestMediaMatchesMapModel holds the device to it.
type mapMedia struct {
	media map[uint64]Rec
	older map[uint64][]Rec
}

func newMapMedia(keepHistory bool) *mapMedia {
	m := &mapMedia{media: make(map[uint64]Rec)}
	if keepHistory {
		m.older = make(map[uint64][]Rec)
	}
	return m
}

func (m *mapMedia) program(lba uint64, rec Rec) {
	if m.older != nil {
		if cur, ok := m.media[lba]; ok {
			m.older[lba] = append(m.older[lba], cur)
		}
	}
	m.media[lba] = rec
}

func (m *mapMedia) history(lba uint64) []Rec {
	cur, ok := m.media[lba]
	if !ok {
		return nil
	}
	return append(slices.Clip(m.older[lba]), cur)
}

func (m *mapMedia) discard(lba uint64, owns func(uint64) bool) bool {
	cur, ok := m.media[lba]
	if !ok {
		return false
	}
	h := append(m.older[lba], cur)
	kept := slices.DeleteFunc(h, func(r Rec) bool { return owns(r.Stamp) })
	switch n := len(kept); {
	case n == len(h):
		return false
	case n == 0:
		delete(m.media, lba)
		delete(m.older, lba)
	default:
		m.media[lba], m.older[lba] = kept[n-1], kept[:n-1]
	}
	return true
}

func recsEqual(a, b []Rec) bool {
	return slices.EqualFunc(a, b, func(x, y Rec) bool { return x.Stamp == y.Stamp && slices.Equal(x.Data, y.Data) })
}

// checkLBA compares Durable and History of one block with the model.
func checkLBA(s *SSD, m *mapMedia, lba uint64) error {
	got, ok := s.Durable(lba)
	want, wok := m.media[lba]
	if ok != wok || !recsEqual([]Rec{got}, []Rec{want}) {
		return fmt.Errorf("Durable(%#x) = %v, %v; model %v, %v", lba, got, ok, want, wok)
	}
	if h, wh := s.History(lba), m.history(lba); !recsEqual(h, wh) {
		return fmt.Errorf("History(%#x) = %v; model %v", lba, h, wh)
	}
	return nil
}

// TestMediaMatchesMapModel sends one seeded stream of programs (with and
// without a payload, most of them overwrites), discards and power cuts to a
// device and to mapMedia, with and without KeepHistory, and compares the
// touched block's Durable and History and the whole DurableLBAs after every
// step, and every block's every 64 steps. LBAs come from a dense range, a
// sparse 2^21 range and the extremes 0 and 2^64-1; the table doubles
// several times and deletes shift probe runs back.
func TestMediaMatchesMapModel(t *testing.T) {
	const steps = 4000
	for _, keep := range []bool{false, true} {
		t.Run(fmt.Sprintf("history=%v", keep), func(t *testing.T) {
			rng := rand.New(rand.NewSource(1))
			e := sim.New(1)
			defer e.Shutdown()
			cfg := OptaneConfig()
			cfg.KeepHistory = keep
			s, m := New(e, cfg), newMapMedia(keep)
			lbaOf := func() uint64 {
				switch r := rng.Intn(100); {
				case r < 40:
					return uint64(rng.Intn(512))
				case r < 96:
					return uint64(rng.Int63n(1 << 21))
				case r < 98:
					return 0
				}
				return math.MaxUint64
			}
			var shifted, submitted int
			var recent [64]uint64 // the last LBAs written, for discards that hit
			for step := 0; step < steps; step++ {
				lba := lbaOf()
				r := rng.Intn(100)
				if r < 65 {
					recent[step%len(recent)] = lba
				} else if rng.Intn(2) == 0 {
					lba = recent[rng.Intn(len(recent))]
				}
				switch {
				case r < 60: // program, straight onto media
					rec := Rec{Stamp: uint64(rng.Intn(8))}
					if rng.Intn(5) == 0 {
						rec.Data = binary.LittleEndian.AppendUint64(nil, rng.Uint64())
					}
					s.program(lba, rec)
					m.program(lba, rec)
				case r < 65: // an Optane write command, Submit to Done
					stamp := rng.Uint64()
					cmd := &Command{Op: OpWrite, LBA: lba, Blocks: 1, Stamps: []uint64{stamp}}
					if rng.Intn(4) == 0 {
						cmd.Data = [][]byte{{byte(stamp), 1, 2}}
					}
					e.At(0, func() { s.Submit(cmd) })
					e.Run()
					rec := Rec{Stamp: stamp}
					if cmd.Data != nil {
						rec.Data = cmd.Data[0]
					}
					m.program(lba, rec)
					submitted++
				case r < 99: // discard every version with one stamp, or any
					stamp := uint64(rng.Intn(8))
					owns := func(st uint64) bool { return st == stamp }
					if rng.Intn(3) == 0 {
						owns = func(uint64) bool { return true }
					}
					inRun := false // lba's slot is followed by another key
					if lba != 0 && s.media.n > 0 {
						i, ok := s.media.find(lba)
						inRun = ok && s.media.slots[(i+1)&uint64(len(s.media.slots)-1)].lba != 0
					}
					if got, want := s.Discard(lba, owns), m.discard(lba, owns); got != want {
						t.Fatalf("step %d: Discard(%#x) = %v, model %v", step, lba, got, want)
					}
					if _, ok := s.media.get(lba); inRun && !ok {
						shifted++
					}
				default: // power cut: media survives
					s.PowerCut()
					e.Run()
					s.Restart()
				}
				if err := checkLBA(s, m, lba); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				want := slices.Sorted(maps.Keys(m.media))
				if got := s.DurableLBAs(); !slices.Equal(got, want) {
					t.Fatalf("step %d: DurableLBAs has %d blocks, model %d", step, len(got), len(want))
				}
				if step%64 == 0 {
					for _, lba := range want {
						if err := checkLBA(s, m, lba); err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
					}
				}
			}
			t.Logf("%d slots, %d keys, %d shifted, %d submitted", len(s.media.slots), s.media.len(), shifted, submitted)
			if n := len(s.media.slots); n < 16*minMediaSlots {
				t.Errorf("table of %d slots: the run no longer crosses four doublings", n)
			}
			if shifted < 75 || submitted < 100 {
				t.Errorf("%d deletes inside a probe run, %d commands: the run no longer covers them", shifted, submitted)
			}
		})
	}
}

// FuzzMediaTable runs an op-byte sequence against mediaTable and a map.
// Each op is two bytes: the low two bits of the first pick put, delete or
// get, the rest of it and the second byte pick the key — a dense one, a
// high-bit one, 0 or 2^64-1 — and the stamp. After every op every model key
// must be found with its stamp, and the table must hold no other key.
func FuzzMediaTable(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 1, 2, 2})
	f.Add([]byte{0, 0, 0, 0xff, 1, 0, 1, 0xff})
	f.Add(slices.Repeat([]byte{0, 7, 4, 9, 1, 7, 8, 3}, 40))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var tab mediaTable
		model := map[uint64]uint64{}
		for i := 0; i+1 < len(ops); i += 2 {
			kind, sel := ops[i]&3, uint64(ops[i]>>2)<<8|uint64(ops[i+1])
			var lba uint64
			switch sel & 3 {
			case 0:
				lba = sel >> 2
			case 1:
				lba = sel >> 2 << 50
			case 2:
				lba = 0
			default:
				lba = math.MaxUint64 - sel>>2
			}
			stamp := uint64(ops[i+1]) * 0x0101010101010101
			switch kind {
			case 0, 1:
				tab.put(lba, stamp)
				model[lba] = stamp
			case 2:
				tab.delete(lba)
				delete(model, lba)
			}
			want, wok := model[lba]
			if got, ok := tab.get(lba); ok != wok || got != want {
				t.Fatalf("op %d: get(%#x) = %#x, %v; want %#x, %v", i/2, lba, got, ok, want, wok)
			}
			if tab.len() != len(model) {
				t.Fatalf("op %d: %d keys, model %d", i/2, tab.len(), len(model))
			}
			for k, v := range model {
				if got, ok := tab.get(k); !ok || got != v {
					t.Fatalf("op %d: get(%#x) = %#x, %v; want %#x", i/2, k, got, ok, v)
				}
			}
			if got := slices.Sorted(slices.Values(tab.appendLBAs(nil))); !slices.Equal(got, slices.Sorted(maps.Keys(model))) {
				t.Fatalf("op %d: keys %x, model %x", i/2, got, slices.Sorted(maps.Keys(model)))
			}
		}
	})
}
