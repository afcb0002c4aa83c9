package rio

import (
	"errors"
	"testing"

	"repro/internal/sim"
	"repro/internal/stack"
)

func TestAttrExposure(t *testing.T) {
	c := NewCluster(Options{Seed: 2})
	defer c.Close()
	c.Go(func(ctx *Ctx) {
		h1 := ctx.Stream(3).Close(0, 1)
		h2 := ctx.Stream(3).Commit(1, 1)
		h2.Wait()
		if h1.Attr().SeqStart != 1 || h2.Attr().SeqStart != 2 {
			t.Errorf("seqs = %d, %d", h1.Attr().SeqStart, h2.Attr().SeqStart)
		}
		if h1.Attr().Stream != 3 {
			t.Errorf("stream = %d", h1.Attr().Stream)
		}
		if !h2.Attr().Flush {
			t.Error("commit must carry the flush barrier")
		}
	})
	c.Run()
}

// TestWaitReleasesRequest: Wait hands the request back to its initiator,
// and the next write reuses it, while the waited handle still answers
// Attr and Done as before and a second Wait returns at once.
func TestWaitReleasesRequest(t *testing.T) {
	c := NewCluster(Options{Seed: 2})
	defer c.Close()
	c.Go(func(ctx *Ctx) {
		h := ctx.Stream(3).Commit(7, 1)
		req, attr := h.req, h.Attr()
		h.Wait()
		h.Wait()
		if h.Attr() != attr || !h.Done() {
			t.Errorf("after Wait: attr %+v, done %v; want %+v, true", h.Attr(), h.Done(), attr)
		}
		h2 := ctx.Stream(3).Commit(8, 1)
		if h2.req != req {
			t.Error("the waited request was not reused")
		}
		h2.Wait()
		if h.Attr() != attr || h2.Attr().SeqStart != attr.SeqStart+1 {
			t.Errorf("attrs %+v then %+v", h.Attr(), h2.Attr())
		}
	})
	c.Run()
}

// TestWaitReportsCutMidWait cuts the initiator while a commit's thread is
// between its delivery and its return (the wake-up after the wait): Wait
// must return stack.ErrServerDown, at the instant the uncut run returns
// nil, and still release the request, so a second Wait returns nil.
func TestWaitReportsCutMidWait(t *testing.T) {
	run := func(cut sim.Time) (ret sim.Time, err, again error) {
		c := NewCluster(Options{Seed: 2})
		defer c.Close()
		c.Go(func(ctx *Ctx) {
			h := ctx.Stream(0).Commit(7, 1)
			err = h.Wait()
			ret = ctx.Now()
			again = h.Wait()
			if h.req != nil {
				t.Error("Wait kept the request")
			}
		})
		if cut > 0 {
			c.Engine().At(cut, func() { c.Fault(InitiatorScope(0)) })
		}
		c.Run()
		return ret, err, again
	}
	ret, err, _ := run(0)
	if ret == 0 || err != nil {
		t.Fatalf("uncut commit: Wait returned at %v with %v, want a return without error", ret, err)
	}
	if got, err, again := run(ret - 1); got != ret || !errors.Is(err, stack.ErrServerDown) || again != nil {
		t.Fatalf("commit cut 1 ns before its return: Wait returned at %v with %v, then %v; want %v with %v, then nil",
			got, err, again, ret, stack.ErrServerDown)
	}
}

func TestOrderlessClusterHasNoAttrs(t *testing.T) {
	c := NewCluster(Options{Ordering: Orderless, Seed: 3})
	defer c.Close()
	c.Go(func(ctx *Ctx) {
		h := ctx.WriteOrderless(5, 1)
		h.Wait()
		if h.Attr().SeqStart != 0 {
			t.Error("orderless write should carry no attribute")
		}
		recs := ctx.Read(5, 1)
		if len(recs) != 1 {
			t.Errorf("read returned %d recs", len(recs))
		}
	})
	c.Run()
}

func TestPowerCutAndRecover(t *testing.T) {
	c := NewCluster(Options{Seed: 4, History: true})
	defer c.Close()
	c.Go(func(ctx *Ctx) {
		s := ctx.Stream(0)
		h := s.Commit(0, 1)
		h.Wait()
		s.Close(1, 1) // in flight at the cut
		c.Fault(ClusterScope())
	})
	c.Run()
	var prefix uint64
	c.Go(func(ctx *Ctx) {
		rep := ctx.Recover()
		prefix = rep.DurablePrefix(0)
		if rep.Timing.OrderRebuild == 0 {
			t.Error("order rebuild should take time")
		}
	})
	c.Run()
	if prefix < 1 {
		t.Fatalf("durable prefix = %d, want >= 1 (group 1 was committed)", prefix)
	}
}

func TestDefaultsApplied(t *testing.T) {
	c := NewCluster(Options{})
	defer c.Close()
	if c.Stack().Config().Streams != 24 {
		t.Fatalf("default streams = %d", c.Stack().Config().Streams)
	}
	if got := c.Stack().Config().Mode.String(); got != "rio" {
		t.Fatalf("default mode = %s", got)
	}
	off := false
	c2 := NewCluster(Options{Merging: &off})
	defer c2.Close()
	if c2.Stack().Config().MergeEnabled {
		t.Fatal("merging override ignored")
	}
}
