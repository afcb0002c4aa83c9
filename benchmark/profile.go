package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"
)

// profiler CPU-profiles the measure windows of the traced runs, one file
// per window in a temporary directory, and buckets the samples by layer.
type profiler struct {
	dir   string
	files []string
	cur   *os.File
}

func newProfiler() (*profiler, error) {
	dir, err := os.MkdirTemp("", "riobench-prof")
	if err != nil {
		return nil, fmt.Errorf("profile directory: %w", err)
	}
	return &profiler{dir: dir}, nil
}

func (pr *profiler) start() {
	f, err := os.Create(filepath.Join(pr.dir, fmt.Sprintf("cpu%d.prof", len(pr.files))))
	if err != nil {
		return // no profile: host_share.* report 0
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return
	}
	pr.cur = f
	pr.files = append(pr.files, f.Name())
}

func (pr *profiler) stop() {
	if pr.cur != nil {
		pprof.StopCPUProfile()
		pr.cur.Close()
		pr.cur = nil
	}
}

func (pr *profiler) remove() { os.RemoveAll(pr.dir) }

// hostShareNames are the buckets of the profile, in report order.
var hostShareNames = []string{"sim", "stack", "order", "core", "nvmeof", "fabric", "ssd",
	"fs_kv", "runtime_sched", "runtime_alloc_gc", "other"}

// Runtime functions by what they serve: goroutine hand-off (channel
// operations, park/ready, the scheduler) or allocation and collection.
var (
	schedWords = []string{"chan", "park", "ready", "sched", "findRunnable", "runq", "futex",
		"notesleep", "notewakeup", "wakep", "startm", "stopm", "mcall", "execute", "gogo",
		"casgstatus", "lock2", "unlock2", "semasleep", "semawakeup", "usleep", "osyield",
		"stealWork", "pidle", "netpoll", "resetspinning", "mPark", "selectgo", "acquirep",
		"releasep", "handoffp", "globrunq", "injectglist", "timers", "nanotime", "newproc",
		"goexit", "gfget", "gfput", "sudog"}
	allocWords = []string{"malloc", "gc", "GC", "scan", "mark", "sweep", "mcache", "mcentral",
		"mheap", "mspan", "heapBits", "memclr", "newobject", "growslice", "makeslice",
		"nextFree", "wbBuf", "greyobject", "findObject", "bulkBarrier", "wbZero", "wbMove",
		"alloc", "newarray", "makemap", "makechan", "spanOf", "typePointers", "madvise"}
)

// layerOf maps a profiled function to its host_share bucket by package
// path.
func layerOf(fn string) string {
	// The package path ends at the first dot after the last slash of the
	// part before any receiver or type-parameter list.
	head := fn
	if i := strings.IndexAny(head, "(["); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndex(head, "/") + 1
	pkg := head
	if i := strings.Index(head[slash:], "."); i >= 0 {
		pkg = head[:slash+i]
	}
	switch pkg {
	case "repro/internal/sim", "container/heap": // the engine's event queue is the program's only heap
		return "sim"
	case "repro/internal/stack", "repro/internal/order", "repro/internal/core",
		"repro/internal/nvmeof", "repro/internal/fabric", "repro/internal/ssd":
		return strings.TrimPrefix(pkg, "repro/internal/")
	case "repro/internal/fs", "repro/internal/kv":
		return "fs_kv"
	case "runtime":
		name := strings.TrimPrefix(fn, "runtime.")
		for _, w := range schedWords {
			if strings.Contains(name, w) {
				return "runtime_sched"
			}
		}
		for _, w := range allocWords {
			if strings.Contains(name, w) {
				return "runtime_alloc_gc"
			}
		}
	}
	return "other"
}

// shares runs `go tool pprof -top` over the collected profiles and
// returns each bucket's share of the flat samples.
func (pr *profiler) shares() (map[string]float64, error) {
	out := map[string]float64{}
	if len(pr.files) == 0 {
		return out, nil
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=100000", "-nodefraction=0"}, pr.files...)
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+pr.dir)
	text, err := cmd.Output()
	if err != nil {
		return out, fmt.Errorf("go tool pprof -top: %w", err)
	}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(text))
	inTable := false
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			continue
		}
		out[layerOf(strings.Join(f[5:], " "))] += d.Seconds()
		total += d.Seconds()
	}
	if total > 0 {
		for k := range out {
			out[k] /= total
		}
	}
	return out, nil
}
