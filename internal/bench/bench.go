// Package bench is the experiment harness: one runner per table/figure in
// the paper's evaluation (§6) and per extension this repository gates
// (DESIGN.md §5 is the index). Each runner builds fresh clusters, drives
// the workload from internal/workload, renders the rows/series the paper
// reports with the headline ratios as `note:` lines, and emits the metrics
// `make bench-gate` holds to the committed BENCH_N.json. Runners accept a
// Quick option that shrinks the simulated windows for use from
// `go test -bench`.
package bench

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
	"repro/internal/workload"
)

// orderViolations is what every *.order_violations key counts when a run
// ends: the contract oracle's gate clause (stack.Cluster.Audit: a parked
// command at or below its gate's frontier, on any target — what colliding
// ordering domains would produce), plus, for each Rio initiator the run
// drove, one if no stream's group order ever advanced (the domain wedged) and
// one if no retire watermark of its own ever did (its PMR never recycled).
// Transient holdbacks are not violations: the gate exists to absorb them.
func orderViolations(c *stack.Cluster) int {
	v := c.Audit().Gate
	if c.Config().Mode != stack.ModeRio {
		return v
	}
	for i := 0; i < c.Initiators(); i++ {
		seq := c.Init(i).Sequencer()
		progressed, retired := c.Init(i).Stats().Submitted == 0, false
		for s := 0; s < seq.Streams(); s++ {
			progressed = progressed || seq.Stream(s).FullyDone() > 0
			for t := 0; t < c.Targets(); t++ {
				retired = retired || c.Target(t).RetiredTo(i, uint16(s)) > 0
			}
		}
		if !progressed {
			v++
		}
		if !retired && c.Init(i).Stats().Submitted > 0 {
			v++
		}
	}
	return v
}

// Options tunes a run.
type Options struct {
	Quick bool  // smaller windows and sweeps
	Seed  int64 // base RNG seed
	// TraceSample turns on stage-level request tracing in every cluster
	// an experiment builds (1-in-N sampling; 0 = off) and appends the
	// aggregated stage breakdown to the experiment's output. Tracing
	// records host memory only, so every metric of a seeded run is
	// identical with it on or off.
	TraceSample int
}

func (o Options) seed() int64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

func (o Options) windows() (warmup, measure sim.Time) {
	if o.Quick {
		return 200 * sim.Microsecond, 2 * sim.Millisecond
	}
	return 500 * sim.Microsecond, 6 * sim.Millisecond
}

// Result is the outcome of one experiment.
type Result struct {
	Name   string
	Tables []string
	Notes  []string
	// Metrics are headline numbers for machine consumption (riobench
	// -json writes them to a BENCH_*.json so the perf trajectory is
	// tracked PR-over-PR).
	Metrics map[string]float64
}

// Metric records one headline number.
func (r *Result) Metric(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[key] = v
}

// Render formats the result for the terminal.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== %s ====\n", r.Name)
	for _, t := range r.Tables {
		b.WriteString(t)
		b.WriteString("\n")
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner executes one experiment.
type Runner func(Options) *Result

// Experiments maps experiment IDs (DESIGN.md §5) to runners.
var Experiments = map[string]Runner{
	"fig2":        Fig2Motivation,
	"fig3":        Fig3MergingCPU,
	"fig10a":      func(o Options) *Result { return fig10(o, "fig10a", oneFlash(), []int{1, 2, 4, 8, 12}) },
	"fig10b":      func(o Options) *Result { return fig10(o, "fig10b", oneOptane(), []int{1, 2, 4, 8, 12}) },
	"fig10c":      func(o Options) *Result { return fig10(o, "fig10c", twoSSDOneTarget(), []int{1, 2, 4, 8, 12}) },
	"fig10d":      func(o Options) *Result { return fig10(o, "fig10d", fourSSDTwoTargets(), []int{1, 2, 4, 8, 12}) },
	"fig11":       Fig11WriteSizes,
	"fig12":       Fig12BatchSizes,
	"fig13":       Fig13Filesystem,
	"fig14":       Fig14Breakdown,
	"fig15a":      Fig15aVarmail,
	"fig15b":      Fig15bRocksDB,
	"policy":      PolicySweep,
	"read":        ReadSweep,
	"recovery":    RecoveryTimes,
	"replication": ReplicationSweep,
	"satload":     SatLoadSweep,
	"scale":       ScaleSweep,
	"serve":       ServeSweep,
	"trace":       TraceSweep,
}

// Names returns the experiment IDs in order.
func Names() []string {
	out := make([]string, 0, len(Experiments))
	for k := range Experiments {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes the named experiment. With Options.TraceSample > 0 the
// aggregated stage breakdown of every cluster the experiment built is
// appended to its tables.
func Run(name string, o Options) (*Result, error) {
	r, ok := Experiments[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
	}
	if o.TraceSample > 0 {
		tracedTracers = nil
	}
	res := r(o)
	if o.TraceSample > 0 {
		if agg := gatherTraces(); agg.Sampled > 0 {
			res.Tables = append(res.Tables, agg.Table(fmt.Sprintf(
				"%s stage breakdown (1-in-%d sampled)", name, o.TraceSample)))
		}
	}
	return res, nil
}

// Cluster topologies of §6.1.

func oneFlash() []stack.TargetConfig { return []stack.TargetConfig{stack.FlashTarget()} }

func oneOptane() []stack.TargetConfig { return []stack.TargetConfig{stack.OptaneTarget()} }

func twoSSDOneTarget() []stack.TargetConfig {
	return []stack.TargetConfig{{SSDs: []ssd.Config{ssd.FlashConfig(), ssd.OptaneConfig()}}}
}

func fourSSDTwoTargets() []stack.TargetConfig {
	return []stack.TargetConfig{
		{SSDs: []ssd.Config{ssd.FlashConfig(), ssd.OptaneConfig()}},
		{SSDs: []ssd.Config{ssd.FlashConfig(), ssd.OptaneConfig()}},
	}
}

// system is one line in a block-bench figure.
type system struct {
	label   string
	mode    stack.Mode
	ordered bool
	noMerge bool
}

var blockSystems = []system{
	{"linux", stack.ModeLinux, true, false},
	{"horae", stack.ModeHorae, true, false},
	{"rio", stack.ModeRio, true, false},
	{"orderless", stack.ModeOrderless, false, false},
}

var blockSystemsWithAblation = append(append([]system{}, blockSystems...),
	system{"rio-nomerge", stack.ModeRio, true, true})

// runBlockPoint builds a fresh cluster and measures one configuration.
func runBlockPoint(o Options, sys system, targets []stack.TargetConfig,
	job workload.BlockJob) workload.BlockResult {

	eng := sim.New(o.seed())
	cfg := stack.DefaultConfig(sys.mode, targets...)
	if sys.noMerge {
		cfg.MergeEnabled = false
	}
	c := o.newCluster(eng, cfg)
	job.Ordered = sys.ordered
	warm, meas := o.windows()
	res := workload.RunBlock(eng, c, job, warm, meas)
	eng.Shutdown()
	return res
}

// Fig2Motivation reproduces the motivation experiment: the journaling
// write pattern on flash and Optane for NVMe-oF (Linux), Horae and the
// orderless upper bound.
func Fig2Motivation(o Options) *Result {
	res := &Result{Name: "Figure 2: motivation — cost of storage order"}
	threads := []int{4, 8, 12}
	for _, dev := range []struct {
		label   string
		targets []stack.TargetConfig
	}{
		{"(a) flash SSD", oneFlash()},
		{"(b) optane SSD", oneOptane()},
	} {
		systems := []system{
			{"NVMe-oF", stack.ModeLinux, true, false},
			{"HORAE", stack.ModeHorae, true, false},
			{"orderless", stack.ModeOrderless, false, false},
		}
		var series []metrics.Series
		for _, sys := range systems {
			s := metrics.Series{Label: sys.label}
			for _, th := range threads {
				r := runBlockPoint(o, sys, dev.targets,
					workload.BlockJob{Threads: th, Pattern: workload.PatternJournal})
				s.Add(float64(th), r.KIOPS())
			}
			series = append(series, s)
		}
		res.Tables = append(res.Tables,
			metrics.Table("Fig 2"+dev.label+" — throughput (KIOPS)", "threads", series...))
		res.Notes = append(res.Notes, fmt.Sprintf("%s: orderless/NVMe-oF ratio = %.1fx",
			dev.label, metrics.GeoMeanRatio(series[2].Y, series[0].Y)))
	}
	return res
}

// Fig3MergingCPU reproduces the merging motivation: CPU utilization of the
// orderless stack, single thread, sequential 4 KB, with and without block
// merging, versus batch size.
func Fig3MergingCPU(o Options) *Result {
	res := &Result{Name: "Figure 3: motivation for merging consecutive data blocks"}
	batches := []int{1, 2, 4, 8, 16}
	for _, dev := range []struct {
		label   string
		targets []stack.TargetConfig
	}{
		{"(a) flash SSD", oneFlash()},
		{"(b) optane SSD", oneOptane()},
	} {
		var initOn, initOff, tgtOn, tgtOff metrics.Series
		initOn.Label, initOff.Label = "initiator w/ merging", "initiator w/o merging"
		tgtOn.Label, tgtOff.Label = "target w/ merging", "target w/o merging"
		for _, b := range batches {
			for _, merge := range []bool{true, false} {
				eng := sim.New(o.seed())
				cfg := stack.DefaultConfig(stack.ModeOrderless, dev.targets...)
				cfg.MergeEnabled = merge
				c := o.newCluster(eng, cfg)
				warm, meas := o.windows()
				r := workload.RunBlock(eng, c, workload.BlockJob{
					Threads: 1, Pattern: workload.PatternBatch, Batch: b,
				}, warm, meas)
				eng.Shutdown()
				if merge {
					initOn.Add(float64(b), 100*r.InitUtil)
					tgtOn.Add(float64(b), 100*r.TgtUtil)
				} else {
					initOff.Add(float64(b), 100*r.InitUtil)
					tgtOff.Add(float64(b), 100*r.TgtUtil)
				}
			}
		}
		res.Tables = append(res.Tables, metrics.Table(
			"Fig 3"+dev.label+" — CPU utilization (%)", "batch",
			initOff, tgtOff, initOn, tgtOn))
	}
	return res
}

// fig10 runs one block-device performance subfigure: 4 KB random ordered
// writes, five systems, with throughput plus normalized CPU efficiency.
func fig10(o Options, name string, targets []stack.TargetConfig, threads []int) *Result {
	res := &Result{Name: "Figure 10 " + name + ": block device performance (4 KB random ordered write)"}
	var tput []metrics.Series
	var effI []metrics.Series
	var effT []metrics.Series
	type point struct{ kiops, effInit, effTgt float64 }
	byLabel := map[string][]point{}
	for _, sys := range blockSystemsWithAblation {
		st := metrics.Series{Label: sys.label}
		for _, th := range threads {
			r := runBlockPoint(o, sys, targets,
				workload.BlockJob{Threads: th, Pattern: workload.PatternRandom4K})
			st.Add(float64(th), r.KIOPS())
			byLabel[sys.label] = append(byLabel[sys.label], point{
				r.KIOPS(), r.Efficiency(r.InitUtil), r.Efficiency(r.TgtUtil),
			})
		}
		tput = append(tput, st)
	}
	// Normalize efficiency to the orderless system.
	base := byLabel["orderless"]
	for _, sys := range blockSystemsWithAblation {
		si := metrics.Series{Label: sys.label}
		stg := metrics.Series{Label: sys.label}
		for i, pt := range byLabel[sys.label] {
			normI, normT := 0.0, 0.0
			if base[i].effInit > 0 {
				normI = pt.effInit / base[i].effInit
			}
			if base[i].effTgt > 0 {
				normT = pt.effTgt / base[i].effTgt
			}
			si.Add(float64(threads[i]), normI)
			stg.Add(float64(threads[i]), normT)
		}
		effI = append(effI, si)
		effT = append(effT, stg)
	}
	res.Tables = append(res.Tables,
		metrics.Table("throughput (K ops/s)", "threads", tput...),
		metrics.Table("initiator CPU efficiency (normalized to orderless)", "threads", effI...),
		metrics.Table("target CPU efficiency (normalized to orderless)", "threads", effT...))
	rio := seriesByLabel(tput, "rio")
	res.Notes = append(res.Notes,
		fmt.Sprintf("rio/linux throughput = %.1fx (geomean)", metrics.GeoMeanRatio(rio.Y, seriesByLabel(tput, "linux").Y)),
		fmt.Sprintf("rio/horae throughput = %.1fx (geomean)", metrics.GeoMeanRatio(rio.Y, seriesByLabel(tput, "horae").Y)),
		fmt.Sprintf("rio/orderless throughput = %.2fx (geomean)", metrics.GeoMeanRatio(rio.Y, seriesByLabel(tput, "orderless").Y)))
	return res
}

func seriesByLabel(ss []metrics.Series, label string) metrics.Series {
	for _, s := range ss {
		if s.Label == label {
			return s
		}
	}
	return metrics.Series{}
}

// Fig11WriteSizes: single thread, 4-64 KB writes, random and sequential,
// on the 4-SSD/2-target volume.
func Fig11WriteSizes(o Options) *Result {
	res := &Result{Name: "Figure 11: performance with varying write sizes (1 thread, 4 SSDs)"}
	sizesKB := []uint32{4, 8, 16, 32, 64}
	for _, seq := range []bool{false, true} {
		kind := "(a) random"
		if seq {
			kind = "(b) sequential"
		}
		var series []metrics.Series
		for _, sys := range blockSystems {
			s := metrics.Series{Label: sys.label}
			for _, kb := range sizesKB {
				r := runBlockPoint(o, sys, fourSSDTwoTargets(), workload.BlockJob{
					Threads: 1, Pattern: workload.PatternSize,
					WriteBlocks: kb / 4, Sequential: seq,
				})
				s.Add(float64(kb), r.GBps())
			}
			series = append(series, s)
		}
		res.Tables = append(res.Tables,
			metrics.Table("Fig 11"+kind+" — bandwidth (GB/s)", "write KB", series...))
		res.Notes = append(res.Notes, fmt.Sprintf("%s: rio/horae = %.1fx, rio/linux = %.0fx",
			kind,
			metrics.GeoMeanRatio(seriesByLabel(series, "rio").Y, seriesByLabel(series, "horae").Y),
			metrics.GeoMeanRatio(seriesByLabel(series, "rio").Y, seriesByLabel(series, "linux").Y)))
	}
	return res
}

// Fig12BatchSizes: mergeable batches on the 4-SSD volume with 1 and 12
// threads, including the rio-w/o-merge ablation.
func Fig12BatchSizes(o Options) *Result {
	res := &Result{Name: "Figure 12: performance with varying batch sizes (4 SSDs)"}
	batches := []int{2, 4, 8, 12, 16}
	for _, th := range []int{1, 12} {
		var series []metrics.Series
		var effs []metrics.Series
		for _, sys := range blockSystemsWithAblation {
			s := metrics.Series{Label: sys.label}
			e := metrics.Series{Label: sys.label}
			for _, b := range batches {
				r := runBlockPoint(o, sys, fourSSDTwoTargets(), workload.BlockJob{
					Threads: th, Pattern: workload.PatternBatch, Batch: b,
				})
				s.Add(float64(b), r.GBps())
				e.Add(float64(b), r.Efficiency(r.InitUtil))
			}
			series = append(series, s)
			effs = append(effs, e)
		}
		// Normalize efficiency to orderless (snapshot the base first: the
		// series share slices, and the base itself gets normalized too).
		base := append([]float64(nil), seriesByLabel(effs, "orderless").Y...)
		for i := range effs {
			for j := range effs[i].Y {
				if base[j] > 0 {
					effs[i].Y[j] /= base[j]
				}
			}
		}
		res.Tables = append(res.Tables,
			metrics.Table(fmt.Sprintf("bandwidth (GB/s), %d thread(s)", th), "batch", series...),
			metrics.Table(fmt.Sprintf("initiator CPU efficiency (normalized), %d thread(s)", th), "batch", effs...))
		res.Notes = append(res.Notes, fmt.Sprintf("%d threads: rio vs rio-nomerge bandwidth = %.2fx",
			th, metrics.GeoMeanRatio(seriesByLabel(series, "rio").Y, seriesByLabel(series, "rio-nomerge").Y)))
	}
	return res
}

// fsDesigns are the three file systems of §6.3-6.4.
var fsDesigns = []struct {
	label  string
	mode   stack.Mode
	design fs.Design
}{
	{"ext4", stack.ModeOrderless, fs.Ext4},
	{"horaefs", stack.ModeHorae, fs.HoraeFS},
	{"riofs", stack.ModeRio, fs.RioFS},
}

func newFS(o Options, mode stack.Mode, design fs.Design, targets []stack.TargetConfig) (*sim.Engine, *fs.FS) {
	eng := sim.New(o.seed())
	cfg := stack.DefaultConfig(mode, targets...)
	c := o.newCluster(eng, cfg)
	fcfg := fs.DefaultOptions(design, 24)
	fcfg.JournalBlocks = 4096
	fcfg.MaxInodes = 1 << 14
	fcfg.DataBlocks = 1 << 20
	return eng, fs.Open(c.Init(0), fcfg)
}

// Fig13Filesystem: 4 KB append+fsync, threads 1..16, on a remote Optane
// SSD; reports average and 99th-percentile latency against throughput.
func Fig13Filesystem(o Options) *Result {
	res := &Result{Name: "Figure 13: file system performance (fsync append, Optane)"}
	threads := []int{1, 2, 4, 8, 12, 16}
	if o.Quick {
		threads = []int{1, 4, 16}
	}
	var tput, avg, p99 []metrics.Series
	for _, d := range fsDesigns {
		ts := metrics.Series{Label: d.label}
		as := metrics.Series{Label: d.label}
		ps := metrics.Series{Label: d.label}
		for _, th := range threads {
			eng, fsys := newFS(o, d.mode, d.design, oneOptane())
			warm, meas := o.windows()
			r := workload.RunFioFsync(eng, fsys, th, warm, meas)
			eng.Shutdown()
			ts.Add(float64(th), r.KIOPS())
			as.Add(float64(th), float64(r.Lat.Mean())/1000)
			ps.Add(float64(th), float64(r.Lat.P99())/1000)
		}
		tput = append(tput, ts)
		avg = append(avg, as)
		p99 = append(p99, ps)
	}
	res.Tables = append(res.Tables,
		metrics.Table("fsync throughput (KIOPS)", "threads", tput...),
		metrics.Table("average latency (us)", "threads", avg...),
		metrics.Table("99th percentile latency (us)", "threads", p99...))
	res.Notes = append(res.Notes, fmt.Sprintf("riofs/ext4 throughput = %.1fx, riofs/horaefs = %.1fx",
		metrics.GeoMeanRatio(seriesByLabel(tput, "riofs").Y, seriesByLabel(tput, "ext4").Y),
		metrics.GeoMeanRatio(seriesByLabel(tput, "riofs").Y, seriesByLabel(tput, "horaefs").Y)))
	return res
}

// Fig14Breakdown: the fsync latency breakdown table for HoraeFS and RioFS.
func Fig14Breakdown(o Options) *Result {
	res := &Result{Name: "Figure 14: fsync latency breakdown (1 thread, Optane)"}
	var rows []string
	rows = append(rows, fmt.Sprintf("%-10s%10s%10s%10s%12s%12s",
		"system", "D(ns)", "JM(ns)", "JC(ns)", "waitIO(ns)", "fsync(ns)"))
	for _, d := range fsDesigns {
		if d.design == fs.Ext4 {
			continue // the paper's table compares HoraeFS and RioFS
		}
		eng, fsys := newFS(o, d.mode, d.design, oneOptane())
		warm, meas := o.windows()
		r := workload.RunFioFsync(eng, fsys, 1, warm, meas)
		eng.Shutdown()
		dd, jm, jc, wait := r.Traces.Mean()
		rows = append(rows, fmt.Sprintf("%-10s%10d%10d%10d%12d%12d",
			d.label, dd, jm, jc, wait, int64(dd+jm+jc+wait)))
	}
	res.Tables = append(res.Tables, strings.Join(rows, "\n")+"\n")
	res.Notes = append(res.Notes,
		"paper: HoraeFS 5861/19327/16658/34899 -> 76745ns; RioFS 5861/1440/1107/34796 -> 43204ns")
	return res
}

// Fig15aVarmail: the Varmail personality across thread counts.
func Fig15aVarmail(o Options) *Result {
	res := &Result{Name: "Figure 15(a): Filebench Varmail"}
	threads := []int{1, 4, 8, 16, 24, 32, 40}
	if o.Quick {
		threads = []int{1, 8, 24}
	}
	var series []metrics.Series
	for _, d := range fsDesigns {
		s := metrics.Series{Label: d.label}
		for _, th := range threads {
			eng, fsys := newFS(o, d.mode, d.design, oneOptane())
			warm, meas := o.windows()
			r := workload.RunVarmail(eng, fsys, th, warm, meas)
			eng.Shutdown()
			s.Add(float64(th), r.KIOPS())
		}
		series = append(series, s)
	}
	res.Tables = append(res.Tables, metrics.Table("throughput (K ops/s)", "threads", series...))
	res.Notes = append(res.Notes, fmt.Sprintf("riofs/ext4 = %.1fx, riofs/horaefs = %.1fx (paper: 2.3x, 1.3x)",
		metrics.GeoMeanRatio(seriesByLabel(series, "riofs").Y, seriesByLabel(series, "ext4").Y),
		metrics.GeoMeanRatio(seriesByLabel(series, "riofs").Y, seriesByLabel(series, "horaefs").Y)))
	return res
}

// Fig15bRocksDB: db_bench fillsync across thread counts.
func Fig15bRocksDB(o Options) *Result {
	res := &Result{Name: "Figure 15(b): RocksDB fillsync"}
	threads := []int{1, 4, 8, 16, 24, 36}
	if o.Quick {
		threads = []int{1, 8, 24}
	}
	var series []metrics.Series
	for _, d := range fsDesigns {
		s := metrics.Series{Label: d.label}
		for _, th := range threads {
			eng, fsys := newFS(o, d.mode, d.design, oneOptane())
			warm, meas := o.windows()
			r := workload.RunFillsync(eng, fsys, th, warm, meas)
			eng.Shutdown()
			s.Add(float64(th), r.KIOPS())
		}
		series = append(series, s)
	}
	res.Tables = append(res.Tables, metrics.Table("throughput (K ops/s)", "threads", series...))
	res.Notes = append(res.Notes, fmt.Sprintf("riofs/ext4 = %.1fx, riofs/horaefs = %.1fx (paper: 1.9x, 1.5x)",
		metrics.GeoMeanRatio(seriesByLabel(series, "riofs").Y, seriesByLabel(series, "ext4").Y),
		metrics.GeoMeanRatio(seriesByLabel(series, "riofs").Y, seriesByLabel(series, "horaefs").Y)))
	return res
}

// RecoveryTimes reproduces §6.5: 36 threads write continuously, a random
// error crashes the targets, and recovery is timed (order rebuild + data
// recovery), averaged over trials, for Rio and Horae.
func RecoveryTimes(o Options) *Result {
	res := &Result{Name: "§6.5: recovery time (36 threads, 2 targets / 4 SSDs)"}
	trials := 30
	if o.Quick {
		trials = 5
	}
	for _, mode := range []stack.Mode{stack.ModeRio, stack.ModeHorae} {
		var orderMS, dataMS []float64
		discarded := 0
		for tr := 0; tr < trials; tr++ {
			eng := sim.New(o.seed() + int64(tr))
			cfg := stack.DefaultConfig(mode, fourSSDTwoTargets()...)
			cfg.Streams = 36
			cfg.QPs = 36
			c := o.newCluster(eng, cfg)
			stopped := false
			for th := 0; th < 36; th++ {
				th := th
				eng.Go(fmt.Sprintf("rec/wl%d", th), func(p *sim.Proc) {
					lba := uint64(th) << 22
					// "each issues 4 KB ordered write requests continuously
					// without explicitly waiting" (§6.5): in-flight depth
					// grows until the crash, so the PMR logs hold tens of
					// thousands of live attributes.
					for i := 0; !stopped; i++ {
						c.Init(0).OrderedWrite(p, th, lba+uint64(i), 1, 0, nil, true, false, false)
						p.Sleep(sim.Microsecond)
					}
				})
			}
			cut := sim.Time(1000+eng.Rand().Int63n(1000)) * sim.Microsecond
			eng.At(cut, func() { c.PowerCutAll(); stopped = true })
			eng.RunUntil(cut + sim.Millisecond)
			var tm stack.RecoveryTiming
			eng.Go("recover", func(p *sim.Proc) { _, tm = c.RecoverFull(p) })
			eng.Run()
			eng.Shutdown()
			orderMS = append(orderMS, tm.OrderRebuild.Seconds()*1e3)
			dataMS = append(dataMS, tm.DataRecovery.Seconds()*1e3)
			discarded += tm.Discarded
		}
		res.Tables = append(res.Tables, fmt.Sprintf(
			"%-8s order rebuild: %7.1f ms   data recovery: %7.1f ms   (avg of %d trials, %d entries discarded)\n",
			mode, mean(orderMS), mean(dataMS), trials, discarded))
	}
	res.Notes = append(res.Notes,
		"paper: Rio 55 ms order rebuild + 125 ms data recovery; Horae 38 ms + 101 ms")
	return res
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
