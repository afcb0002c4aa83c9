package stack

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/ssd"
)

// TestCalibrationPinned pins the calibrated cost model and device profiles
// (DESIGN.md §6): an accidental change to any of these silently reshapes
// every figure, so changes must be deliberate (update this test and
// DESIGN.md §6).
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
			t.Errorf("%s = %v, want %v (update DESIGN.md §6 if deliberate)", p.name, p.got, p.want)
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

// TestInvalidConfigsPanic: New is a must-wrapper, so a configuration Validate
// rejects still panics out of it.
func TestInvalidConfigsPanic(t *testing.T) {
	for _, tc := range invalidConfigs() {
		func() {
			defer func() {
				if r := recover(); r != tc.msg {
					t.Errorf("%s: New panicked with %v, want %q", tc.name, r, tc.msg)
				}
			}()
			New(sim.New(1), tc.cfg)
		}()
	}
}

// invalidConfigs is one configuration per rule New panics on, with the
// message it panics with.
func invalidConfigs() []struct {
	name, msg string
	cfg       Config
} {
	with := func(edit func(*Config), targets ...TargetConfig) Config {
		if targets == nil {
			targets = optane1()
		}
		cfg := DefaultConfig(ModeRio, targets...)
		edit(&cfg)
		return cfg
	}
	three := []TargetConfig{OptaneTarget(), OptaneTarget(), OptaneTarget()}
	twoSSD := TargetConfig{SSDs: []ssd.Config{ssd.OptaneConfig(), ssd.OptaneConfig()}}
	gov := func(edit func(*GovernorConfig)) Config {
		return with(func(c *Config) { c.Governor = govBase(); edit(&c.Governor) })
	}
	return []struct {
		name, msg string
		cfg       Config
	}{
		{"no targets", "stack: need at least one target", Config{}},
		{"no streams", "stack: invalid streams/QPs", with(func(c *Config) { c.Streams = 0 })},
		{"65 initiators", "stack: 65 initiators x 24 streams exceed the 64 x 1024 a media identity names (core.AttrStamp)",
			with(func(c *Config) { c.Initiators = 65 })},
		{"negative cache", "stack: CacheBlocks must be >= 0", with(func(c *Config) { c.CacheBlocks = -1 })},
		// Read-ahead lands its blocks in the cache: no cache, no read-ahead.
		{"read-ahead without cache", "stack: ReadAhead requires CacheBlocks > 0", with(func(c *Config) { c.ReadAhead = 8 })},
		{"zero hold", "stack: CQEHold must be > 0", with(func(c *Config) { c.CQEHold = 0 })},
		{"zero batch", "stack: CQEBatch must be > 0", with(func(c *Config) { c.CQEBatch = 0 })},
		{"negative inflight", "stack: MaxInflight must be >= 0", with(func(c *Config) { c.MaxInflight = -1 })},
		{"horae inflight", "stack: MaxInflight requires ModeRio or ModeOrderless",
			with(func(c *Config) { c.Mode, c.MaxInflight = ModeHorae, 8 })},
		{"linux inflight", "stack: MaxInflight requires ModeRio or ModeOrderless",
			with(func(c *Config) { c.Mode, c.MaxInflight = ModeLinux, 8 })},
		{"relay without replicas", "stack: ReplRelay requires Replicas > 1", with(func(c *Config) { c.ReplRelay = true })},
		{"replicated horae", "stack: replication requires ModeRio",
			with(func(c *Config) { c.Mode, c.Replicas = ModeHorae, 3 }, three...)},
		{"uneven sets", "stack: 3 targets do not divide into replica sets of 2", with(func(c *Config) { c.Replicas = 2 }, three...)},
		{"uneven members", "stack: replica set members must have identical SSD geometry",
			with(func(c *Config) { c.Replicas = 3 }, OptaneTarget(), twoSSD, OptaneTarget())},
		{"governor without Down", "stack: governor hysteresis requires 0 < DownOpsPerSec < UpOpsPerSec",
			gov(func(g *GovernorConfig) { g.DownOpsPerSec = 0 })},
		{"governor Down >= Up", "stack: governor hysteresis requires 0 < DownOpsPerSec < UpOpsPerSec",
			gov(func(g *GovernorConfig) { g.DownOpsPerSec = g.UpOpsPerSec })},
		{"governor operating point", "stack: governor operating points must be > 0",
			gov(func(g *GovernorConfig) { g.LowHold = 0 })},
		{"PMR too small", "stack: PMR region too small for the initiator count",
			with(func(c *Config) { c.Initiators, c.Targets[0].SSDs[0].PMRSize = 2, 64 })},
	}
}

// TestValidateMatchesNew: every configuration New panicked on is the same
// message as an error from Validate and from Open, which builds nothing; two
// rules are new — a target with no SSD (New indexed out of range) and a device
// below the stack's transfer limit (dispatch panicked mid-run).
func TestValidateMatchesNew(t *testing.T) {
	cases := invalidConfigs()
	if len(cases) != 18 {
		t.Fatalf("%d cases, want 18: one per rule New panics on, two for MaxInflight's modes", len(cases))
	}
	small := ssd.OptaneConfig()
	small.MaxTransferBlocks = 16
	cases = append(cases, []struct {
		name, msg string
		cfg       Config
	}{
		{"target without SSD", "stack: target 0 has no SSD", DefaultConfig(ModeRio, TargetConfig{})},
		{"transfer limit", "stack: target 0: device 905p takes 16 blocks per command, the stack sends up to 32",
			DefaultConfig(ModeRio, TargetConfig{SSDs: []ssd.Config{small}})},
	}...)
	for _, tc := range cases {
		if err := tc.cfg.Validate(); err == nil || err.Error() != tc.msg {
			t.Errorf("%s: Validate() = %v, want %q", tc.name, err, tc.msg)
		}
		if c, err := Open(sim.New(1), tc.cfg); c != nil || err == nil || err.Error() != tc.msg {
			t.Errorf("%s: Open() = %v, %v, want nil and %q", tc.name, c, err, tc.msg)
		}
	}
	if err := DefaultConfig(ModeRio, optane1()...).Validate(); err != nil {
		t.Fatalf("the default configuration: %v", err)
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
