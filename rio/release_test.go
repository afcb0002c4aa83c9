package rio

import (
	"fmt"
	"testing"

	"repro/internal/fs"
	"repro/internal/sim"
)

// TestReleasedRequestsOutliveStragglers: RioFS hands every write request
// back to its initiator (D and JM as it submits them, JC after its wait),
// and a released request is reused once it is delivered and no wire
// command lists it any more. On a 3-way set acking at a quorum of 2, a
// straggler member's completion still walks its command's requests after
// they were delivered, on the direct route and over the relay, and a
// member cut and its mid-run recovery (degrade, resync) reach commands of
// released requests too. Recycled records are poisoned: a request
// reclaimed while a command still lists it is never reused, and the first
// consumer it reaches panics. Every write is traced, so the completion
// path walks the requests of every command it handles.
func TestReleasedRequestsOutliveStragglers(t *testing.T) {
	for _, tc := range []struct {
		name       string
		relay, cut bool
	}{
		{"direct", false, false},
		{"relay", true, false},
		{"direct/member-cut", false, true},
		{"relay/member-cut", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCluster(Options{
				Seed:       41,
				Initiators: 2,
				Streams:    4,
				Targets: []TargetSpec{
					{SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}}, {SSDs: []DeviceClass{Optane}},
				},
				Replicas: 3,
				Relay:    tc.relay,
				Trace:    TraceOptions{SampleEvery: 1},
			})
			defer c.Close()
			c.Stack().PoisonRecycled()

			const tenants, writers = 2, 4
			fsyncs := make([]int, tenants)
			fss := make([]*fs.FS, tenants)
			stop := false
			for ten := 0; ten < tenants; ten++ {
				for w := 0; w < writers; w++ {
					c.GoOn(ten, func(ctx *Ctx) {
						p := ctx.Proc()
						if fss[ten] == nil {
							fss[ten] = ctx.FS(serveFSOpts(ten))
						}
						fsys := fss[ten]
						f, err := fsys.Create(p, fmt.Sprintf("log%d", w))
						if err != nil {
							t.Errorf("tenant %d create: %v", ten, err)
							return
						}
						for !stop && ctx.Alive() {
							if err := fsys.Append(p, f, fs.BlockSize); err != nil {
								t.Errorf("tenant %d append: %v", ten, err)
								return
							}
							fsys.Fsync(p, f, w)
							fsyncs[ten]++
						}
					})
				}
			}
			atCut := make([]int, tenants)
			if tc.cut {
				c.Engine().At(sim.Millisecond, func() {
					c.Fault(TargetScope(1))
					copy(atCut, fsyncs)
				})
				c.Engine().At(2*sim.Millisecond, func() {
					c.Go(func(ctx *Ctx) { ctx.Recover(TargetScope(1)) })
				})
			}
			c.RunFor(3 * sim.Millisecond)
			stop = true
			c.Run()

			t.Logf("fsyncs %v, %v of them before the cut", fsyncs, atCut)
			for ten := 0; ten < tenants; ten++ {
				if fsyncs[ten] <= atCut[ten] {
					t.Errorf("tenant %d: %d fsyncs, %d of them before the cut", ten, fsyncs[ten], atCut[ten])
				}
			}
			if tc.cut && !c.InSync(1) {
				t.Error("member 1 not in sync after its recovery")
			}
			if d := c.Stack().ReplicaDivergence(); d != 0 {
				t.Errorf("members diverge on %d blocks", d)
			}
			if v := c.OrderAudit(); v != 0 {
				t.Errorf("order audit: %d violations", v)
			}
		})
	}
}
