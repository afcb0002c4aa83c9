package stack

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// TestCalibrationPinned pins the calibrated cost model and device profiles
// (DESIGN.md §6): an accidental change to any of these silently reshapes
// every figure, so changes must be deliberate (update this test and
// re-record EXPERIMENTS.md).
func TestCalibrationPinned(t *testing.T) {
	c := DefaultCosts()
	pin := []struct {
		name string
		got  sim.Time
		want sim.Time
	}{
		{"SubmitBio", c.SubmitBio, 700},
		{"CmdBuild", c.CmdBuild, 400},
		{"PostMsg", c.PostMsg, 700},
		{"RecvMsg", c.RecvMsg, 700},
		{"CmdProcess", c.CmdProcess, 500},
		{"CplHandle", c.CplHandle, 500},
		{"PMRAppendCPU", c.PMRAppendCPU, 300},
		{"PMRToggleCPU", c.PMRToggleCPU, 200},
		{"BlockCPU", c.BlockCPU, 1200},
		{"WakeCPU", c.WakeCPU, 1500},
		{"WakeLat", c.WakeLat, 8 * sim.Microsecond},
		{"FSDataCPU", c.FSDataCPU, 5 * sim.Microsecond},
		{"FSMetaCPU", c.FSMetaCPU, sim.Microsecond},
	}
	for _, p := range pin {
		if p.got != p.want {
			t.Errorf("%s = %v, want %v (recalibrate EXPERIMENTS.md if deliberate)", p.name, p.got, p.want)
		}
	}

	fl := ssd.FlashConfig()
	if fl.FlushBase != 250*sim.Microsecond || fl.MediaWriteLat != 25*sim.Microsecond || fl.Channels != 8 {
		t.Errorf("flash profile drifted: %+v", fl)
	}
	if fl.PMRSize != 2<<20 {
		t.Errorf("PMR size = %d, want 2 MiB (as in §6.1)", fl.PMRSize)
	}
	op := ssd.OptaneConfig()
	if op.MediaWriteLat != 12*sim.Microsecond || op.Channels != 7 {
		t.Errorf("optane profile drifted: %+v", op)
	}

	tc := TCPCosts()
	if tc.RecvMsg <= c.RecvMsg || tc.PostMsg <= c.PostMsg {
		t.Error("TCP costs must exceed RDMA verbs costs")
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{
		ModeOrderless: "orderless",
		ModeLinux:     "linux",
		ModeHorae:     "horae",
		ModeRio:       "rio",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), s)
		}
	}
}

func TestInvalidConfigsPanic(t *testing.T) {
	eng := sim.New(1)
	cases := []func(){
		func() { New(eng, Config{}) }, // no targets
		func() {
			cfg := DefaultConfig(ModeRio, OptaneTarget())
			cfg.Streams = 0
			New(eng, cfg)
		},
		func() { // read-ahead lands its blocks in the cache: no cache, no read-ahead
			cfg := DefaultConfig(ModeRio, OptaneTarget())
			cfg.ReadAhead = 8
			New(eng, cfg)
		},
		func() {
			cfg := DefaultConfig(ModeRio, OptaneTarget())
			cfg.CacheBlocks = -1
			New(eng, cfg)
		},
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestStreamStealingSameQP (§4.5, Fig. 7b): requests of one stream land on
// the same QP even when submitted from different simulated threads, so the
// per-connection FIFO keeps the stream in order.
func TestStreamStealingSameQP(t *testing.T) {
	eng := sim.New(31)
	cfg := smallConfig(ModeRio, optane1()...)
	c := New(eng, cfg)
	for w := 0; w < 2; w++ {
		w := w
		eng.Go("thread", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				// Both threads submit to stream 1 (stealing).
				r := c.Init(0).OrderedWrite(p, 1, uint64(w*1000+i), 1, 0, nil, true, false, false)
				c.Init(0).Wait(p, r)
			}
		})
	}
	eng.Run()
	if hb := c.Target(0).Stats().Holdbacks; hb != 0 {
		t.Fatalf("holdbacks = %d; stream affinity must hold across thread migration", hb)
	}
	if c.Init(0).Stats().Completed != 40 {
		t.Fatalf("completed = %d", c.Init(0).Stats().Completed)
	}
	eng.Shutdown()
}

// TestVectorFusedFlushDurability: a vector-fused command whose last
// constituent carries FLUSH must make every constituent durable on flash.
func TestVectorFusedFlushDurability(t *testing.T) {
	eng := sim.New(32)
	cfg := smallConfig(ModeRio, flash1()...)
	c := New(eng, cfg)
	eng.Go("app", func(p *sim.Proc) {
		c.Init(0).StartPlug(0)
		c.Init(0).OrderedWrite(p, 0, 0, 1, 0, nil, true, false, false)
		c.Init(0).OrderedWrite(p, 0, 100, 1, 0, nil, true, false, false) // gap: vector, not merge
		r := c.Init(0).OrderedWrite(p, 0, 101, 1, 0, nil, true, true, false)
		c.Init(0).FinishPlug(p, 0)
		c.Init(0).Wait(p, r)
		// After the flush-carrying commit is delivered, all three are on
		// media despite the volatile cache.
		for _, lba := range []uint64{0, 100, 101} {
			if _, ok := c.Target(0).SSD(0).Durable(lba); !ok {
				t.Errorf("lba %d not durable after flush-carrying group", lba)
			}
		}
	})
	eng.Run()
	eng.Shutdown()
}

// TestFabricSizedFromQPs: Config.QPs is the one source of the fabric's
// per-QP table size. DefaultConfig's fabric is sized for its 24 queue pairs;
// raising QPs alone (Streams follows so a stream maps onto the highest QP)
// must still build a cluster whose top queue pair carries a write — sized
// from the stale fabric default, the send trips the fabric's bounds check.
func TestFabricSizedFromQPs(t *testing.T) {
	eng := sim.New(1)
	cfg := DefaultConfig(ModeRio, OptaneTarget())
	cfg.Streams, cfg.QPs = 36, 36
	c := New(eng, cfg)
	delivered := false
	eng.Go("app", func(p *sim.Proc) {
		r := c.Init(0).OrderedWrite(p, 35, 7, 1, 0, nil, true, false, false)
		c.Init(0).Wait(p, r)
		delivered = r.Done.Fired()
	})
	eng.Run()
	if !delivered {
		t.Fatal("write on queue pair 35 never completed")
	}
	eng.Shutdown()
}
