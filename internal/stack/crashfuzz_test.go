package stack_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/crash"
)

// The crash-schedule property tests are plans of the one crash harness
// (internal/crash, whose own test runs the unpinned seeds and holds them to
// coverage floors). What is left here is the schedules earlier PRs committed
// by name: each family is the harness under the pins that defined its driver,
// and each schedule one `riocrash -seed N -set …` line.

func pinned(t *testing.T, name string, seed int64, pins string) {
	t.Run(name, func(t *testing.T) {
		pl, err := crash.Draw(seed, strings.Fields(pins)...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pl.Run(); err != nil {
			t.Fatalf("%v\nplan: %v\nreproduce with: %s", err, pl, pl.Repro())
		}
	})
}

// Whole-cluster cut and full recovery in each of the four stacks.
func TestCrashScheduleFuzzAllModes(t *testing.T) {
	for _, m := range []struct {
		mode  string
		seeds int64
	}{{"orderless", 3}, {"linux", 3}, {"horae", 6}, {"rio", 6}} {
		for seed := int64(1); seed <= m.seeds; seed++ {
			pinned(t, fmt.Sprintf("%s/seed%d", m.mode, seed), seed, "cut=cluster mode="+m.mode)
		}
	}
}

// A target, an initiator, or one of each in the same instant, under two
// initiators, repaired by one recovery run while the survivors keep writing.
func TestCrashScheduleFuzzEntityCuts(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		pinned(t, fmt.Sprintf("seed%d", seed), seed, "inits=2 devices=oo pmr=128 cut="+[]string{"initiator", "target", "both"}[seed%3])
	}
}

// A target cut early in unplugged back-to-back bursts over a chunk-1 stripe:
// the replay set holds vector-fused commands.
func TestCrashScheduleFuzzTargetCutsMergeOn(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4; i++ {
			us := 4 + rng.Int63n(60)
			pinned(t, fmt.Sprintf("seed%d.%d/cut%d.000us", seed, i, us), seed,
				fmt.Sprintf("cut=target devices=oo victim=1 inits=1 chunk=1 burst=6 plug=false commit=0 cache=0 pmr=128 at=%d", us))
		}
	}
}

// A member of a 3-way set: no stall, resync, byte-identical media.
func TestCrashScheduleFuzzMemberCuts(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		pinned(t, fmt.Sprintf("seed%d", seed), seed, "cut=member relay=false cache=0")
	}
}

// The same over the relay, the victim its head or a follower.
func TestCrashScheduleFuzzRelayMemberCuts(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		pinned(t, fmt.Sprintf("seed%d", seed), seed, "relay=true cache=0 cut="+[]string{"head", "member"}[seed%2])
	}
}

// A member cut under cached readers: no stale hit, no lost block.
func TestCrashScheduleFuzzCachedReads(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		pinned(t, fmt.Sprintf("seed%d", seed), seed, "cut=member cache=128 ahead=4")
	}
}

// Commits on a flash device every 2–8 writes, each stream pinned to one
// device, the cut mostly at the first instant barriers queue behind a running
// FLUSH: the whole cluster, an initiator, or the Optane target beside the
// flash one (the flash target itself is ROADMAP finding 1(f)).
func TestCrashScheduleFuzzFlushBarriers(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		pins := fmt.Sprintf("devices=fo victim=1 inits=2 chunk=0 pmr=128 commit=%d cut=%s", 2+seed%7, []string{"cluster", "target", "initiator"}[seed%3])
		if seed%4 != 0 {
			pins += " queued=true"
		}
		pinned(t, fmt.Sprintf("seed%d", seed), seed, pins)
	}
}
