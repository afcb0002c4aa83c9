package rio

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestWriteIPUPath(t *testing.T) {
	c := NewCluster(Options{Seed: 11, History: true})
	defer c.Close()
	c.Go(func(ctx *Ctx) {
		s := ctx.Stream(0)
		h1 := s.Commit(0, 1)
		h1.Wait()
		h2 := s.WriteIPU(0, 1, true) // overwrite the same LBA in place
		if !h2.Attr().IPU {
			t.Error("IPU flag not set on attribute")
		}
		h3 := s.Commit(1, 1)
		h3.Wait()
	})
	c.Run()
	// The IPU entry exists in the PMR with the flag set (until retired).
	entries := core.ScanRegion(c.Stack().Target(0).SSD(0).PMRBytes())
	foundIPU := false
	for _, e := range entries {
		if e.IPU {
			foundIPU = true
		}
	}
	if !foundIPU {
		t.Fatal("no IPU-flagged entry reached the PMR")
	}
}

func TestFlushBarrierAPI(t *testing.T) {
	c := NewCluster(Options{
		Seed:    12,
		Targets: []TargetSpec{{SSDs: []DeviceClass{Flash}}},
	})
	defer c.Close()
	c.Go(func(ctx *Ctx) {
		h := ctx.Stream(0).Close(5, 1)
		h.Wait()
		// Completed into the volatile cache: not durable yet.
		if _, ok := c.Stack().Target(0).SSD(0).Durable(5); ok {
			t.Error("flash write durable before any barrier")
		}
		ctx.Flush() // explicit device barrier (block-reuse fallback, §4.4.2)
		if _, ok := c.Stack().Target(0).SSD(0).Durable(5); !ok {
			t.Error("write not durable after explicit Flush")
		}
	})
	c.Run()
}

func TestClockAndSleep(t *testing.T) {
	c := NewCluster(Options{Seed: 13})
	defer c.Close()
	c.Go(func(ctx *Ctx) {
		t0 := ctx.Now()
		ctx.Sleep(5 * sim.Microsecond)
		if ctx.Now()-t0 != 5*sim.Microsecond {
			t.Errorf("sleep advanced %v", ctx.Now()-t0)
		}
	})
	c.Run()
	if c.Now() < 5*sim.Microsecond {
		t.Errorf("cluster clock = %v", c.Now())
	}
}

func TestStreamsIsolated(t *testing.T) {
	c := NewCluster(Options{Seed: 14, Streams: 4})
	defer c.Close()
	c.Go(func(ctx *Ctx) {
		// Streams are independent ordering domains (§4.5): an open group on
		// stream 0 must not delay stream 1's commit.
		ctx.Stream(0).Write(0, 1) // group stays open (no boundary)
		h := ctx.Stream(1).Commit(100, 1)
		h.Wait() // must complete despite stream 0's open group
		if !h.Done() {
			t.Error("stream 1 blocked by stream 0's open group")
		}
	})
	c.Run()
}

// TestStreamIDsWrap: a stream id names stream id mod Streams wherever an
// initiator takes one — a write on Stream(-1) lands in the last stream's
// ordering domain, and a plug window opened on Streams+1 holds stream 1.
func TestStreamIDsWrap(t *testing.T) {
	c := NewCluster(Options{Seed: 15, Streams: 4})
	defer c.Close()
	in := c.Stack().Init(0)
	c.Go(func(ctx *Ctx) {
		h := ctx.Stream(-1).Commit(7, 1)
		h.Wait()
		if got := h.Attr().Stream; got != 3 {
			t.Errorf("Stream(-1) wrote in stream %d, want 3", got)
		}
		if got, want := ctx.Read(7, 1)[0].Stamp, core.AttrStamp(h.Attr()); got != want {
			t.Errorf("read back stamp %#x, want %#x", got, want)
		}

		in.StartPlug(5)
		a := ctx.Stream(1).Close(20, 1)
		ctx.Sleep(100 * sim.Microsecond)
		if a.Done() {
			t.Error("a write on stream 1 left the plug window opened on stream 5")
		}
		in.FinishPlug(ctx.Proc(), 5)
		a.Wait()
	})
	c.Run()
}

// TestOpenReturnsWhatNewClusterPanicsWith: options that break a configuration
// rule come back from Open as stack.Config.Validate's error, build nothing,
// and still panic out of the must-wrapper with the same words.
func TestOpenReturnsWhatNewClusterPanicsWith(t *testing.T) {
	three := []TargetSpec{{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}}}
	for msg, o := range map[string]Options{
		"stack: ReadAhead requires CacheBlocks > 0":                   {Read: ReadOptions{ReadAhead: 8}},
		"stack: ReplRelay requires Replicas > 1":                      {Relay: true},
		"stack: replication requires ModeRio":                         {Ordering: Horae, Targets: three, Replicas: 3},
		"stack: 3 targets do not divide into replica sets of 2":       {Targets: three, Replicas: 2},
		"stack: replica set members must have identical SSD geometry": {Targets: []TargetSpec{three[0], {SSDs: []DeviceClass{Optane, Optane}}, three[2]}, Replicas: 3},
		"stack: target 0 has no SSD":                                  {Targets: []TargetSpec{{}}},
	} {
		if c, err := Open(o); c != nil || err == nil || err.Error() != msg {
			t.Errorf("Open = %v, %v, want nil and %q", c, err, msg)
		}
		func() {
			defer func() {
				if r := recover(); r != msg {
					t.Errorf("NewCluster panicked with %v, want %q", r, msg)
				}
			}()
			NewCluster(o)
		}()
	}
}

// TestRecoverUnionIsOneRun: a target and an initiator cut in the same instant
// are repaired by ONE recovery run through the public API — one PMR scan
// (≈ 55 ms for the 2 MiB region), not one per scope — and the contract holds
// afterwards: the survivor's writes all deliver, the audit is clean, and what
// the recovered initiator's delivered commits promised is on the media.
func TestRecoverUnionIsOneRun(t *testing.T) {
	c := NewCluster(Options{
		Seed: 9, Initiators: 2, Streams: 4,
		Targets: []TargetSpec{{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}}},
	})
	defer c.Close()
	handles := make([][]*Handle, 2)
	for i := range handles {
		c.GoOn(i, func(ctx *Ctx) {
			for n := uint64(0); n < 400 && ctx.Alive(); n++ {
				handles[i] = append(handles[i], ctx.Stream(0).Commit(uint64(i)<<20+n, 1))
				ctx.Sleep(2 * sim.Microsecond)
			}
		})
	}
	c.Engine().At(150*sim.Microsecond, func() {
		c.Fault(TargetScope(1))
		c.Fault(InitiatorScope(0))
	})
	c.RunFor(sim.Millisecond)
	var took sim.Time
	var rep *Report
	c.GoOn(1, func(ctx *Ctx) {
		start := ctx.Now()
		rep = ctx.Recover(TargetScope(1), InitiatorScope(0))
		took = ctx.Now() - start
	})
	c.Run()
	if scan := rep.Timing.OrderRebuild; scan < 50*sim.Millisecond || scan > 60*sim.Millisecond || took > scan+5*sim.Millisecond {
		t.Fatalf("recovery of target(1)+initiator(0) took %v with an order rebuild of %v: want one ≈ 55 ms scan", took, scan)
	}
	for n, h := range handles[1] {
		if !h.Done() {
			t.Fatalf("survivor's write %d never delivered", n)
		}
	}
	if err := c.Stack().Audit().Err(); err != nil {
		t.Fatal(err)
	}
	prefix := rep.DurablePrefixFor(0, 0)
	for n, h := range handles[0] {
		if g := h.Attr().SeqStart; c.Stack().Holds(h.req) != (g <= prefix) {
			t.Fatalf("recovered initiator's write %d (group %d) against prefix %d: durable = %v", n, g, prefix, g > prefix)
		}
		if h.Done() && h.Attr().SeqStart > prefix {
			t.Fatalf("commit %d was delivered but lies beyond the recovered prefix %d", n, prefix)
		}
	}
	union := Scope{targets: []int{1, 2}, inits: []int{0}}
	if got := fmt.Sprint(TargetScope(1), " ", union, " ", ClusterScope()); got != "target(1) target(1)+target(2)+initiator(0) cluster" {
		t.Fatalf("scopes print as %q", got)
	}
}
