package crash

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
)

// plans is how many seeds the tier-1 test runs. The six drivers this harness
// replaced ran 88 schedules between them.
const plans = 96

// TestPlans runs plans 1..N, each against the whole contract, and then holds
// the drawn set to coverage floors: what the crash checks cover is measured
// here, and a change to Draw that silently stops drawing something fails.
func TestPlans(t *testing.T) {
	var drawn []Plan
	count := map[string]int{}
	for seed := int64(1); seed <= plans; seed++ {
		pl, err := Draw(seed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := pl.Run()
		if err != nil {
			t.Fatalf("%v\nplan: %v\nreproduce with: %s", err, pl, pl.Repro())
		}
		drawn = append(drawn, pl)
		for what, hit := range map[string]bool{
			"mode=" + pl.Mode:                 true,
			"cut=" + pl.Cut:                   true,
			"fused":                           out.Fused > 0,
			"queued":                          out.Queued,
			"head cut with capsules relayed":  pl.Cut == "head" && out.Relayed > 0,
			"cached readers with reads":       pl.Cfg.CacheBlocks > 0 && out.Reads > 0,
			"two initiators":                  pl.Cfg.Initiators == 2,
			"strict prefix":                   out.Strict,
			"final cut":                       pl.Final,
			"traced":                          pl.Cfg.Trace.Enabled(),
			"flash device":                    !pl.plp(),
			"commits":                         pl.Commit > 0,
			"stream pinned to one device":     pl.Chunk == 0,
			"replicated over the relay":       pl.Cfg.ReplRelay,
			"replicated by initiator fan-out": pl.Cfg.Replicas > 1 && !pl.Cfg.ReplRelay,
		} {
			if hit {
				count[what]++
			}
		}
	}
	t.Logf("%d plans drew:\n%s", plans, Histogram(drawn))
	floors := map[string]int{
		"mode=rio": 1, "mode=horae": 1, "mode=linux": 1, "mode=orderless": 1,
		"fused": 24, "queued": 8, "head cut with capsules relayed": 6, "cached readers with reads": 6, "two initiators": 12,
		"strict prefix": 12, "final cut": 8, "traced": 24, "flash device": 12, "commits": 24,
		"stream pinned to one device": 12, "replicated over the relay": 12, "replicated by initiator fan-out": 12,
	}
	for _, cut := range dims[0].vals {
		floors["cut="+cut.(string)] = 6
	}
	for _, what := range slices.Sorted(maps.Keys(floors)) {
		t.Logf("%-32s %3d plans (floor %d)", what, count[what], floors[what])
		if count[what] < floors[what] {
			t.Errorf("%s: %d plans, want at least %d", what, count[what], floors[what])
		}
	}
}

// TestSameSeedSamePlan: a seed is a plan and an outcome, however often it is
// drawn and run (cmd/riocrash's test checks the same through the command).
func TestSameSeedSamePlan(t *testing.T) {
	for _, seed := range []int64{3, 58} {
		a, _ := Draw(seed)
		b, _ := Draw(seed)
		if a.String() != b.String() || a.Repro() != fmt.Sprintf("riocrash -seed %d", seed) {
			t.Fatalf("seed %d drew %q then %q (repro %q)", seed, a, b, a.Repro())
		}
		outA, errA := a.Run()
		outB, errB := b.Run()
		if fmt.Sprint(outA, outA.Log, errA) != fmt.Sprint(outB, outB.Log, errB) {
			t.Fatalf("seed %d ran to %v %v, then to %v %v", seed, outA, errA, outB, errB)
		}
	}
}

// TestPinsAndFindings: a pin fixes its dimension and nothing else; pins that
// admit no legal plan, or ask for a recorded finding, are refused with the
// rule; allow= runs the finding, and the oracle is live on it — at head a
// flash-target cut under commits breaks the contract exactly as ROADMAP item
// 1(f) records. A retired finding is the opposite on both counts: its pins
// draw without allow=, and its repro plan holds the whole contract — 1(g), a
// write complete but undelivered at the cut, no request let off any more
// (target, both, every member in turn), 1(j), a Horae commit fused into a
// data command on flash, and 1(k), a follower's ack lost with the relay head
// ("group N never delivered" while the head kept the only record of it).
func TestPinsAndFindings(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		pins string
	}{
		{7, "cut=target final=false"},
		{38, "cut=members inits=1 final=false"},
		{29, "cut=both"},
		{7, "cut=cluster mode=horae devices=fo commit=2 burst=4"},
		{479, "cut=head"},
		{1016, "cut=head"},
		{88, "cut=head final=false"},
	} {
		pl, err := Draw(tc.seed, strings.Fields(tc.pins)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Run(); err != nil {
			t.Errorf("a retired finding is back: %v\nreproduce with: %s", err, pl.Repro())
		}
	}
	pl, err := Draw(7, "cut=initiator", "pmr=64", "at=100")
	if err != nil || pl.Cut != "initiator" || pl.Cfg.Targets[0].SSDs[0].PMRSize != 64<<10 || pl.At != 100 {
		t.Fatalf("pinned draw: %v, %v", pl, err)
	}
	if pl.Repro() != "riocrash -seed 7 -set cut=initiator -set pmr=64 -set at=100" {
		t.Fatalf("repro line %q", pl.Repro())
	}
	for _, tc := range []struct{ want, pins string }{
		{"want name=value", "colour=red"},
		{"a cut is one of", "cut=sideways"},
		{"invalid syntax", "inits=two"},
		{"cut=head needs the relay", "cut=head relay=0"},
		{"stack: replication requires ModeRio", "mode=horae replicas=3"},
		{"stack: ReadAhead requires CacheBlocks > 0", "cache=0 ahead=4"},
		{"ROADMAP item 1(f)", "cut=target devices=ff replicas=1 commit=0"},
		{"ROADMAP item 1(i)", "cut=members inits=2 final=false"},
	} {
		if _, err := Draw(1, strings.Fields(tc.pins)...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Draw(1, %q) = %v, want an error naming %q", tc.pins, err, tc.want)
		}
	}
	pins := strings.Fields("cut=target devices=fo victim=0 chunk=0 commit=2 inits=1 cache=0 allow=1f")
	failed := 0
	for seed := int64(1); seed <= 4; seed++ {
		pl, err := Draw(seed, pins...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Run(); err != nil {
			failed++
			t.Logf("%s: %v", pl.Repro(), err)
		}
	}
	if failed == 0 {
		t.Fatal("four flash-target cuts under commits hold the contract: finding 1(f) is fixed (retire its predicate) or the oracle is blind")
	}
}
