// Command riofsck builds a file system, crashes it mid-workload, then
// walks the durable on-disk state the way recovery does and prints a
// consistency verdict. The walk has two levels: first the PMR level —
// every target's per-initiator log partitions are swept with the
// ordering engine's scan (order.ScanPartition, the same parser recovery
// uses) and audited for partition ownership via the initiator-id dword
// each persisted attribute carries — then the file-system level:
// superblock, per-journal transaction scan, directory tree. With
// -replicas R the volume stripes over an R-way replica set and the
// durable media of every member is additionally compared block-for-block
// (stack.Cluster.ReplicaDivergence: replica sets must converge
// byte-identically through whole-cluster recovery). It is the
// file-system-level counterpart of cmd/riocrash.
//
// Usage:
//
//	riofsck [-design riofs|horaefs|ext4] [-files 20] [-cut 400] [-seed 5]
//	        [-initiators 1] [-replicas 1] [-v]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/fs"
	"repro/internal/order"
	"repro/internal/sim"
	"repro/internal/stack"
)

// fsckConfig parameterizes one fsck run (flag surface and smoke test).
type fsckConfig struct {
	design     string
	files      int
	cutUS      int64
	seed       int64
	initiators int
	replicas   int
	verbose    bool
}

func main() {
	var cfg fsckConfig
	flag.StringVar(&cfg.design, "design", "riofs", "riofs | horaefs | ext4")
	flag.IntVar(&cfg.files, "files", 20, "files created+fsynced before the cut")
	flag.Int64Var(&cfg.cutUS, "cut", 400, "power cut time (simulated µs)")
	flag.Int64Var(&cfg.seed, "seed", 5, "RNG seed")
	flag.IntVar(&cfg.initiators, "initiators", 1, "initiator servers (each owns PMR log partitions at every target)")
	flag.IntVar(&cfg.replicas, "replicas", 1, "replica-set size (riofs only; targets = replicas)")
	flag.BoolVar(&cfg.verbose, "v", false, "print every recovered inode")
	flag.Parse()

	if bad := run(cfg, os.Stdout); bad > 0 {
		fmt.Printf("fsck: %d inconsistencies\n", bad)
		os.Exit(1)
	}
	fmt.Println("fsck: clean — acknowledged data intact, uncommitted state rolled back")
}

// run executes one build→crash→fsck cycle and returns the number of
// inconsistencies found (0 = clean).
func run(cfg fsckConfig, out io.Writer) int {
	var mode stack.Mode
	var d fs.Design
	switch cfg.design {
	case "ext4":
		mode, d = stack.ModeOrderless, fs.Ext4
	case "horaefs":
		mode, d = stack.ModeHorae, fs.HoraeFS
	case "riofs":
		mode, d = stack.ModeRio, fs.RioFS
	default:
		fmt.Fprintf(os.Stderr, "riofsck: unknown design %q\n", cfg.design)
		os.Exit(2)
	}
	eng := sim.New(cfg.seed)
	targets := []stack.TargetConfig{stack.OptaneTarget()}
	if cfg.replicas > 1 {
		targets = make([]stack.TargetConfig, cfg.replicas)
		for i := range targets {
			targets[i] = stack.OptaneTarget()
		}
	}
	scfg := stack.DefaultConfig(mode, targets...)
	scfg.KeepHistory = true
	if cfg.initiators > 1 {
		scfg.Initiators = cfg.initiators
	}
	if cfg.replicas > 1 {
		scfg.Replicas = cfg.replicas
	}
	c, err := stack.Open(eng, scfg)
	if err != nil { // e.g. -replicas with a design whose stack cannot replicate
		fmt.Fprintln(os.Stderr, "riofsck:", err)
		os.Exit(2)
	}
	fcfg := fs.DefaultOptions(d, 8)
	fcfg.JournalBlocks = 1024
	fcfg.MaxInodes = 1 << 12
	fcfg.DataBlocks = 1 << 16
	fsys := fs.Open(c.Init(0), fcfg)

	type acked struct {
		name string
		size uint64
	}
	var durable []acked
	eng.Go("workload", func(p *sim.Proc) {
		fsys.Mkdir(p, "mail")
		for i := 0; ; i++ {
			name := fmt.Sprintf("mail/m%05d", i)
			f, err := fsys.Create(p, name)
			if err != nil {
				return
			}
			fsys.Append(p, f, 4096*(1+i%3))
			fsys.Fsync(p, f, i%4)
			durable = append(durable, acked{name, f.Size()})
			if len(durable) >= cfg.files {
				// One more file, never fsynced: must vanish.
				nf, _ := fsys.Create(p, "mail/uncommitted")
				fsys.Append(p, nf, 4096)
				return
			}
		}
	})
	cut := sim.Time(cfg.cutUS) * sim.Microsecond
	eng.At(cut, func() { c.PowerCutAll() })
	eng.RunUntil(cut + 10*sim.Millisecond)
	eng.Run()
	fmt.Fprintf(out, "power cut at %v; %d files had acknowledged fsyncs\n", cut, len(durable))

	// Phase 1: PMR partition audit, on the crash evidence BEFORE recovery
	// formats it. Every entry persisted into initiator i's partition must
	// carry i in its initiator-id dword: a mismatch means the partition
	// arithmetic (or the attribute namespace) leaked one initiator's
	// ordering domain into another's log — the corruption per-initiator
	// recovery isolation depends on never happening.
	bad := 0
	bad += auditPartitions(c, out)

	eng.Go("fsck", func(p *sim.Proc) {
		c.RecoverFull(p)
		fs2, st := fs.Remount(p, c.Init(0), fcfg)
		fmt.Fprintf(out, "journal replay: %d committed transactions, %d incomplete discarded, %d inodes alive\n",
			st.Committed, st.Incomplete, st.InodesAlive)

		names, err := fs2.List(p, "mail")
		if err != nil {
			fmt.Fprintln(out, "fsck: mail directory lost:", err)
			bad++
			return
		}
		sort.Strings(names)
		if cfg.verbose {
			for _, n := range names {
				f, _ := fs2.Open(p, "mail/"+n)
				if f != nil {
					fmt.Fprintf(out, "  %-16s %6d bytes\n", n, f.Size())
				}
			}
		}
		// Check 1: every acknowledged fsync survived intact.
		for _, a := range durable {
			f, err := fs2.Open(p, a.name)
			if err != nil {
				fmt.Fprintf(out, "fsck: LOST acknowledged file %s\n", a.name)
				bad++
				continue
			}
			if f.Size() != a.size {
				fmt.Fprintf(out, "fsck: TORN %s: %d bytes, want %d\n", a.name, f.Size(), a.size)
				bad++
			}
		}
		// Check 2: never-fsynced file must be gone.
		if _, err := fs2.Open(p, "mail/uncommitted"); err == nil {
			fmt.Fprintln(out, "fsck: uncommitted file resurrected")
			bad++
		}
		// Check 3: directory entries all resolve to live inodes.
		for _, n := range names {
			if _, err := fs2.Open(p, "mail/"+n); err != nil {
				fmt.Fprintf(out, "fsck: dangling dirent %s\n", n)
				bad++
			}
		}
	})
	eng.Run()

	// Phase 3: replica sets must have converged byte-identically through
	// whole-cluster recovery (replicaRepair re-replicates quorum-only
	// groups inside the durable prefix).
	if n := c.ReplicaDivergence(); n > 0 {
		fmt.Fprintf(out, "fsck: %d blocks differ between the members of a replica set\n", n)
		bad += n
	} else if cfg.replicas > 1 {
		fmt.Fprintf(out, "%d replica sets of %d members byte-identical on durable media\n", c.SetCount(), cfg.replicas)
	}
	return bad
}

// auditPartitions sweeps every target's per-initiator PMR log partitions
// with the ordering engine's scan and verifies partition ownership via
// the initiator-id dword. Returns the number of violations.
func auditPartitions(c *stack.Cluster, out io.Writer) int {
	bad := 0
	inits := c.Initiators()
	for ti := 0; ti < c.Targets(); ti++ {
		t := c.Target(ti)
		for i := 0; i < inits; i++ {
			view := order.ScanPartition(ti, t.SSD(0).HasPLP(), t.PMRPartition(i))
			marks, foreign := 0, 0
			for _, e := range view.Entries {
				if e.EpochMark {
					marks++
				}
				if int(e.Initiator) != i {
					foreign++
				}
			}
			fmt.Fprintf(out, "target %d partition %d: %d attributes (%d epoch marks)\n",
				ti, i, len(view.Entries), marks)
			if foreign > 0 {
				fmt.Fprintf(out, "fsck: %d entries in target %d's partition %d carry a FOREIGN initiator id\n",
					foreign, ti, i)
				bad += foreign
			}
		}
	}
	return bad
}
