package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// committedBaseline loads the metrics of the committed baseline: the
// BENCH_<N>.json the Makefile names as BASELINE (the one place that names it;
// `make bench-json` regenerates it and `make bench-gate` gates against it).
func committedBaseline(t *testing.T) (string, map[string]float64) {
	t.Helper()
	mk, err := os.ReadFile(filepath.Join("..", "..", "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`(?m)^BASELINE\s*:=\s*(\S+)`).FindSubmatch(mk)
	if name == nil {
		t.Fatal("the Makefile names no BASELINE")
	}
	best := filepath.Join("..", "..", string(name[1]))
	buf, err := os.ReadFile(best)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Quick   bool               `json:"quick"`
		Seed    int64              `json:"seed"`
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("%s: %v", best, err)
	}
	if !rep.Quick || rep.Seed != quick().Seed {
		t.Fatalf("%s was not generated with -quick -seed %d", best, quick().Seed)
	}
	return best, rep.Metrics
}

// TestReplicationMatchesCommittedBaseline is the exact-metric guard for
// the replicated write path: the simulator is deterministic, so a
// behaviour-preserving change to direct fan-out, the relay or head-cut
// repair reproduces every replication.* key of the committed baseline
// bit for bit (the CI benchdiff gate tolerates 10 %; this tolerates 0).
// A change that means to move a number regenerates the baseline with
// `make bench-json` in the same commit.
func TestReplicationMatchesCommittedBaseline(t *testing.T) {
	path, base := committedBaseline(t)
	r, err := Run("replication", quick())
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for k, want := range base {
		if !strings.HasPrefix(k, "replication.") {
			continue
		}
		checked++
		if got, ok := r.Metrics[k]; !ok {
			t.Errorf("%s: in %s but no longer produced", k, path)
		} else if got != want {
			t.Errorf("%s = %v, %s has %v", k, got, path, want)
		}
	}
	if checked == 0 {
		t.Fatalf("%s holds no replication.* keys", path)
	}
	for k := range r.Metrics {
		if _, ok := base[k]; !ok && strings.HasPrefix(k, "replication.") {
			t.Errorf("%s: produced but missing from %s", k, path)
		}
	}
}
