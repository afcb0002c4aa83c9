// Package bench is the experiment harness: one runner per table/figure in
// the paper's evaluation (§6) and per extension this repository gates
// (DESIGN.md §5 is the index). Each runner builds fresh clusters, drives
// the workload from internal/workload, returns the rows/series the paper
// reports as typed tables with the headline ratios as `note:` lines, and
// names its headline metrics; Run keys every table cell besides, and
// `make bench-gate` holds them all to the committed BENCH_N.json. Runners accept a
// Quick option that shrinks the simulated windows (`riobench -quick`).
package bench

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"

	"repro/internal/fs"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/ssd"
	"repro/internal/stack"
	"repro/internal/trace"
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
	// Digest turns on every point's schedule digest (sim.Engine.Digest),
	// listed in Result.Digests in the order the points ran.
	Digest bool

	traces  *[]*trace.Tracer // set by Run: the tracer of every cluster built
	digests *[]PointDigest   // set by Run with Digest: every point's digest
}

// PointDigest is one experiment point's schedule digest: Point names it by
// its place among the experiment's points and its cluster's shape.
type PointDigest struct {
	Point string
	Sum   uint64
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

// Table is one panel of an experiment as data: series over shared x values
// or, with Rows set, over one labelled row each (systems, stages). Render is
// the only place a Table becomes text, and Run keys every cell it holds.
type Table struct {
	Title  string
	XName  string
	Rows   []string // row labels printed, and keyed, in place of x; nil for numeric x
	Series []metrics.Series
	// Text is a table rendered elsewhere, printed as is and keyed by
	// nothing; only the trace stage breakdown (trace.Stats.Table) is one.
	Text string
}

// Result is the outcome of one experiment.
type Result struct {
	Name   string
	Tables []Table
	Notes  []string
	// Metrics are numbers for machine consumption (riobench -json writes
	// them to a BENCH_*.json so the perf trajectory is tracked
	// PR-over-PR): the headlines a runner names, and one per table cell.
	Metrics map[string]float64
	// Digests are the points' schedule digests with Options.Digest, nil
	// without: never a metric, so the byte-gated file does not carry them.
	Digests []PointDigest
}

// Metric records one number. A key is written once: a second write would
// silently replace a number, so it panics.
func (r *Result) Metric(key string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	if _, dup := r.Metrics[key]; dup {
		panic("bench: metric " + key + " written twice")
	}
	r.Metrics[key] = v
}

// plot appends a table of series over shared x values.
func (r *Result) plot(title, xName string, series ...metrics.Series) {
	r.Tables = append(r.Tables, Table{Title: title, XName: xName, Series: series})
}

var nonSlug = regexp.MustCompile(`[^a-z0-9]+`)

// slug is s lowercased, each run of characters outside [a-z0-9] one '_',
// no '_' at either end: the form a label takes in a metric key.
func slug(s string) string {
	return strings.Trim(nonSlug.ReplaceAllString(strings.ToLower(s), "_"), "_")
}

// deriveMetrics keys every numeric cell of r's tables as
// <exp>.<table>.<series>.x<X>, or <exp>.<table>.<series>.<row> in a
// row-labelled table, each label slugged and X printed by %g. An n/a (NaN)
// cell has no key: it counts into <exp>.na_cells.
func (r *Result) deriveMetrics(exp string) {
	na := 0
	for _, t := range r.Tables {
		for _, s := range t.Series {
			for i, y := range s.Y {
				if math.IsNaN(y) {
					na++
					continue
				}
				cell := fmt.Sprintf("x%g", s.X[i])
				if t.Rows != nil {
					cell = slug(t.Rows[i])
				}
				r.Metric(exp+"."+slug(t.Title)+"."+slug(s.Label)+"."+cell, y)
			}
		}
	}
	r.Metric(exp+".na_cells", float64(na))
}

// Render formats the result for the terminal.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "==== %s ====\n", r.Name)
	for _, t := range r.Tables {
		if t.Text != "" {
			b.WriteString(t.Text)
		} else {
			b.WriteString(metrics.Table(t.Title, t.XName, t.Rows, t.Series...))
		}
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
	"ablation":    Ablations,
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
	"tcp":         TCPTransport,
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

// Run executes the named experiment and derives a metric from every cell
// of its tables (deriveMetrics). With Options.TraceSample > 0 the
// aggregated stage breakdown of every cluster the experiment built is
// appended to its tables.
func Run(name string, o Options) (*Result, error) {
	r, ok := Experiments[name]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", name, Names())
	}
	var traces []*trace.Tracer
	var digests []PointDigest
	o.traces = &traces
	if o.Digest {
		o.digests = &digests
	}
	res := r(o)
	res.deriveMetrics(name)
	res.Digests = digests
	var agg trace.Stats
	for _, tr := range traces {
		s := tr.Stats()
		agg.Merge(&s)
	}
	if agg.Sampled > 0 {
		// Text, not data: riotrace prints the same renderer, and the
		// trace.rio.* metrics already carry the numbers a gate reads.
		res.Tables = append(res.Tables, Table{Text: agg.Table(fmt.Sprintf(
			"%s stage breakdown (1-in-%d sampled)", name, o.TraceSample))})
	}
	return res, nil
}

// Cluster topologies of §6.1.

func oneFlash() []stack.TargetConfig { return []stack.TargetConfig{stack.FlashTarget()} }

func oneOptane() []stack.TargetConfig { return []stack.TargetConfig{stack.OptaneTarget()} }

// optaneTargets builds n target servers of ssds Optane SSDs each.
func optaneTargets(n, ssds int) []stack.TargetConfig {
	out := make([]stack.TargetConfig, n)
	for i := range out {
		for range ssds {
			out[i].SSDs = append(out[i].SSDs, ssd.OptaneConfig())
		}
	}
	return out
}

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

func labels(systems []system) []string {
	out := make([]string, len(systems))
	for i, sys := range systems {
		out[i] = sys.label
	}
	return out
}

// cell is one figure cell measured over window r: v, or NaN — which
// metrics.Table prints "n/a" and GeoMeanRatio skips — when the window
// completed no operation, so a system too slow for the window never reads
// as a measured zero that then feeds a ratio.
func cell(r workload.BlockResult, v float64) float64 {
	if r.Requests == 0 {
		return math.NaN()
	}
	return v
}

// The columns block figures read of a point, each a cell.
var (
	kiopsCol   = func(r workload.BlockResult) float64 { return cell(r, r.KIOPS()) }
	gbpsCol    = func(r workload.BlockResult) float64 { return cell(r, r.GBps()) }
	effInitCol = func(r workload.BlockResult) float64 { return cell(r, r.Efficiency(r.InitUtil)) }
	effTgtCol  = func(r workload.BlockResult) float64 { return cell(r, r.Efficiency(r.TgtUtil)) }
)

// ratio formats a note's headline ratio: the geometric mean of a[i]/b[i]
// with prec decimals, and how many of the points it averages (a point where
// either side measured nothing is left out).
func ratio(prec int, a, b []float64) string {
	r, n := metrics.GeoMeanRatio(a, b)
	return fmt.Sprintf("%.*fx (geomean, %d of %d points)", prec, r, n, len(a))
}

// pointRun drives a point's cluster over the warm-up and measure windows
// and reads what the point reports.
type pointRun[R any] func(eng *sim.Engine, c *stack.Cluster, warm, meas sim.Time) R

// point runs one experiment point: a fresh engine on the run's seed, a
// cluster of cfg, then run, which reads what it reports from the cluster
// before the engine shuts down. Points share nothing, so their order
// within an experiment is free.
func point[R any](o Options, cfg stack.Config, run pointRun[R]) R {
	eng := sim.New(o.seed())
	if o.digests != nil {
		eng.TrackDigest()
	}
	c := o.newCluster(eng, cfg)
	warm, meas := o.windows()
	r := run(eng, c, warm, meas)
	if o.digests != nil {
		shape := fmt.Sprintf("#%d %v targets=%d R=%d", len(*o.digests), cfg.Mode, len(cfg.Targets), max(cfg.Replicas, 1))
		if cfg.ReplRelay {
			shape += " relay"
		}
		*o.digests = append(*o.digests, PointDigest{shape, eng.Digest()})
	}
	eng.Shutdown()
	return r
}

// audited is point plus the finished cluster's orderViolations.
func audited[R any](o Options, cfg stack.Config, run pointRun[R]) (R, int) {
	v := 0
	r := point(o, cfg, func(eng *sim.Engine, c *stack.Cluster, warm, meas sim.Time) R {
		r := run(eng, c, warm, meas)
		v = orderViolations(c)
		return r
	})
	return r, v
}

// drive binds a workload driver to its job.
func drive[J, R any](run func(*sim.Engine, *stack.Cluster, J, sim.Time, sim.Time) R, job J) pointRun[R] {
	return func(eng *sim.Engine, c *stack.Cluster, warm, meas sim.Time) R { return run(eng, c, job, warm, meas) }
}

// blockPoint measures job on a fresh cluster of cfg.
func blockPoint(o Options, cfg stack.Config, job workload.BlockJob) workload.BlockResult {
	return point(o, cfg, drive(workload.RunBlock, job))
}

// sweep runs one point per line and x, line by line, and returns
// out[k][i]: column k of line i, a series labelled labels[i] holding, in x
// order, what cols[k] reads of each of the line's points.
func sweep[R any](labels []string, xs []int, run func(line, x int) R, cols ...func(R) float64) [][]metrics.Series {
	out := make([][]metrics.Series, len(cols))
	for k := range out {
		out[k] = make([]metrics.Series, len(labels))
	}
	for i, label := range labels {
		for k := range cols {
			out[k][i].Label = label
		}
		for _, x := range xs {
			r := run(i, x)
			for k, col := range cols {
				out[k][i].Add(float64(x), col(r))
			}
		}
	}
	return out
}

// normalized divides every series pointwise by the one labelled base; a
// point whose base is not positive has no normalized value (NaN, which
// metrics.Table prints "n/a").
func normalized(ss []metrics.Series, base string) []metrics.Series {
	b := seriesByLabel(ss, base).Y
	out := make([]metrics.Series, len(ss))
	for i, s := range ss {
		out[i].Label = s.Label
		for j, y := range s.Y {
			v := math.NaN()
			if b[j] > 0 {
				v = y / b[j]
			}
			out[i].Add(s.X[j], v)
		}
	}
	return out
}

func seriesByLabel(ss []metrics.Series, label string) metrics.Series {
	for _, s := range ss {
		if s.Label == label {
			return s
		}
	}
	return metrics.Series{}
}

// blockSweep is the sweep of a block figure: one line per system on
// targets, each point the system's default config (merging off on a
// no-merge line) driving job(x), ordered as the system is.
func blockSweep(o Options, systems []system, targets []stack.TargetConfig, xs []int,
	job func(x int) workload.BlockJob, cols ...func(workload.BlockResult) float64) [][]metrics.Series {

	return sweep(labels(systems), xs, func(i, x int) workload.BlockResult {
		cfg := stack.DefaultConfig(systems[i].mode, targets...)
		cfg.MergeEnabled = !systems[i].noMerge
		j := job(x)
		j.Ordered = systems[i].ordered
		return blockPoint(o, cfg, j)
	}, cols...)
}

// random4K is the 4 KB random write job at th threads.
func random4K(th int) workload.BlockJob {
	return workload.BlockJob{Threads: th, Pattern: workload.PatternRandom4K}
}

// device is one panel of Figs. 2 and 3.
type device struct {
	label   string
	targets []stack.TargetConfig
}

func motivationDevices() []device {
	return []device{{"(a) flash SSD", oneFlash()}, {"(b) optane SSD", oneOptane()}}
}

// Fig2Motivation reproduces the motivation experiment: the journaling
// write pattern on flash and Optane for NVMe-oF (Linux), Horae and the
// orderless upper bound.
func Fig2Motivation(o Options) *Result {
	res := &Result{Name: "Figure 2: motivation — cost of storage order"}
	systems := []system{
		{"NVMe-oF", stack.ModeLinux, true, false},
		{"HORAE", stack.ModeHorae, true, false},
		{"orderless", stack.ModeOrderless, false, false},
	}
	for _, dev := range motivationDevices() {
		series := blockSweep(o, systems, dev.targets, []int{4, 8, 12}, func(th int) workload.BlockJob {
			return workload.BlockJob{Threads: th, Pattern: workload.PatternJournal}
		}, kiopsCol)[0]
		res.plot("Fig 2"+dev.label+" — throughput (KIOPS)", "threads", series...)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: orderless/NVMe-oF ratio = %s",
			dev.label, ratio(1, series[2].Y, series[0].Y)))
	}
	return res
}

// Fig3MergingCPU reproduces the merging motivation: CPU utilization of the
// orderless stack, single thread, sequential 4 KB, with and without block
// merging, versus batch size.
func Fig3MergingCPU(o Options) *Result {
	res := &Result{Name: "Figure 3: motivation for merging consecutive data blocks"}
	systems := []system{
		{"w/o merging", stack.ModeOrderless, false, true},
		{"w/ merging", stack.ModeOrderless, false, false},
	}
	for _, dev := range motivationDevices() {
		ss := blockSweep(o, systems, dev.targets, []int{1, 2, 4, 8, 16}, func(b int) workload.BlockJob {
			return workload.BlockJob{Threads: 1, Pattern: workload.PatternBatch, Batch: b}
		}, func(r workload.BlockResult) float64 { return 100 * r.InitUtil },
			func(r workload.BlockResult) float64 { return 100 * r.TgtUtil })
		for i := range systems {
			ss[0][i].Label = "initiator " + ss[0][i].Label
			ss[1][i].Label = "target " + ss[1][i].Label
		}
		res.plot(
			"Fig 3"+dev.label+" — CPU utilization (%)", "batch",
			ss[0][0], ss[1][0], ss[0][1], ss[1][1])
	}
	return res
}

// fig10 runs one block-device performance subfigure: 4 KB random ordered
// writes, five systems, with throughput plus normalized CPU efficiency.
func fig10(o Options, name string, targets []stack.TargetConfig, threads []int) *Result {
	res := &Result{Name: "Figure 10 " + name + ": block device performance (4 KB random ordered write)"}
	ss := blockSweep(o, blockSystemsWithAblation, targets, threads, random4K, kiopsCol, effInitCol, effTgtCol)
	tput := ss[0]
	res.plot("throughput (K ops/s)", "threads", tput...)
	res.plot("initiator CPU efficiency (normalized to orderless)", "threads", normalized(ss[1], "orderless")...)
	res.plot("target CPU efficiency (normalized to orderless)", "threads", normalized(ss[2], "orderless")...)
	rio := seriesByLabel(tput, "rio")
	res.Notes = append(res.Notes,
		"rio/linux throughput = "+ratio(1, rio.Y, seriesByLabel(tput, "linux").Y),
		"rio/horae throughput = "+ratio(1, rio.Y, seriesByLabel(tput, "horae").Y),
		"rio/orderless throughput = "+ratio(2, rio.Y, seriesByLabel(tput, "orderless").Y))
	return res
}

// Fig11WriteSizes: single thread, 4-64 KB writes, random and sequential,
// on the 4-SSD/2-target volume.
func Fig11WriteSizes(o Options) *Result {
	res := &Result{Name: "Figure 11: performance with varying write sizes (1 thread, 4 SSDs)"}
	for _, seq := range []bool{false, true} {
		kind := "(a) random"
		if seq {
			kind = "(b) sequential"
		}
		series := blockSweep(o, blockSystems, fourSSDTwoTargets(), []int{4, 8, 16, 32, 64}, func(kb int) workload.BlockJob {
			return workload.BlockJob{Threads: 1, Pattern: workload.PatternSize, WriteBlocks: uint32(kb / 4), Sequential: seq}
		}, gbpsCol)[0]
		res.plot("Fig 11"+kind+" — bandwidth (GB/s)", "write KB", series...)
		res.Notes = append(res.Notes, fmt.Sprintf("%s: rio/horae = %s, rio/linux = %s",
			kind,
			ratio(1, seriesByLabel(series, "rio").Y, seriesByLabel(series, "horae").Y),
			ratio(0, seriesByLabel(series, "rio").Y, seriesByLabel(series, "linux").Y)))
	}
	return res
}

// Fig12BatchSizes: mergeable batches on the 4-SSD volume with 1 and 12
// threads, including the rio-w/o-merge ablation.
func Fig12BatchSizes(o Options) *Result {
	res := &Result{Name: "Figure 12: performance with varying batch sizes (4 SSDs)"}
	for _, th := range []int{1, 12} {
		ss := blockSweep(o, blockSystemsWithAblation, fourSSDTwoTargets(), []int{2, 4, 8, 12, 16}, func(b int) workload.BlockJob {
			return workload.BlockJob{Threads: th, Pattern: workload.PatternBatch, Batch: b}
		}, gbpsCol, effInitCol)
		series := ss[0]
		res.plot(fmt.Sprintf("bandwidth (GB/s), %d thread(s)", th), "batch", series...)
		res.plot(fmt.Sprintf("initiator CPU efficiency (normalized), %d thread(s)", th), "batch", normalized(ss[1], "orderless")...)
		res.Notes = append(res.Notes, fmt.Sprintf("%d threads: rio vs rio-nomerge bandwidth = %s",
			th, ratio(2, seriesByLabel(series, "rio").Y, seriesByLabel(series, "rio-nomerge").Y)))
	}
	return res
}

// fsDesign is one line of a file-system figure.
type fsDesign struct {
	label  string
	mode   stack.Mode
	design fs.Design
}

// fsDesigns are the three file systems of §6.3-6.4.
var fsDesigns = []fsDesign{
	{"ext4", stack.ModeOrderless, fs.Ext4},
	{"horaefs", stack.ModeHorae, fs.HoraeFS},
	{"riofs", stack.ModeRio, fs.RioFS},
}

// fsSweep is the sweep of a file-system figure: one line per design, each
// point drive at x threads on a fresh file system over one remote Optane
// SSD.
func fsSweep(o Options, designs []fsDesign, threads []int,
	drive func(*sim.Engine, *fs.FS, int, sim.Time, sim.Time) workload.FsResult,
	cols ...func(workload.FsResult) float64) [][]metrics.Series {

	labels := make([]string, len(designs))
	for i, d := range designs {
		labels[i] = d.label
	}
	return sweep(labels, threads, func(i, th int) workload.FsResult {
		cfg := stack.DefaultConfig(designs[i].mode, oneOptane()...)
		return point(o, cfg, func(eng *sim.Engine, c *stack.Cluster, warm, meas sim.Time) workload.FsResult {
			fcfg := fs.DefaultOptions(designs[i].design, 24)
			fcfg.JournalBlocks = 4096
			fcfg.MaxInodes = 1 << 14
			fcfg.DataBlocks = 1 << 20
			return drive(eng, fs.Open(c.Init(0), fcfg), th, warm, meas)
		})
	}, cols...)
}

func fsKIOPS(r workload.FsResult) float64 { return r.KIOPS() }

// Fig13Filesystem: 4 KB append+fsync, threads 1..16, on a remote Optane
// SSD; reports average and 99th-percentile latency against throughput.
func Fig13Filesystem(o Options) *Result {
	res := &Result{Name: "Figure 13: file system performance (fsync append, Optane)"}
	threads := []int{1, 2, 4, 8, 12, 16}
	if o.Quick {
		threads = []int{1, 4, 16}
	}
	ss := fsSweep(o, fsDesigns, threads, workload.RunFioFsync, fsKIOPS,
		func(r workload.FsResult) float64 { return float64(r.Lat.Mean()) / 1000 },
		func(r workload.FsResult) float64 { return float64(r.Lat.P99()) / 1000 })
	tput := ss[0]
	res.plot("fsync throughput (KIOPS)", "threads", tput...)
	res.plot("average latency (us)", "threads", ss[1]...)
	res.plot("99th percentile latency (us)", "threads", ss[2]...)
	res.Notes = append(res.Notes, fmt.Sprintf("riofs/ext4 throughput = %s, riofs/horaefs = %s",
		ratio(1, seriesByLabel(tput, "riofs").Y, seriesByLabel(tput, "ext4").Y),
		ratio(1, seriesByLabel(tput, "riofs").Y, seriesByLabel(tput, "horaefs").Y)))
	return res
}

// Fig14Breakdown: the fsync latency breakdown table for HoraeFS and RioFS
// (the paper's table leaves ext4 out).
func Fig14Breakdown(o Options) *Result {
	res := &Result{Name: "Figure 14: fsync latency breakdown (1 thread, Optane)"}
	stage := func(k int) func(workload.FsResult) float64 {
		return func(r workload.FsResult) float64 {
			d, jm, jc, wait := r.Traces.Mean()
			return float64([]sim.Time{d, jm, jc, wait, d + jm + jc + wait}[k])
		}
	}
	ss := fsSweep(o, fsDesigns[1:], []int{1}, workload.RunFioFsync, stage(0), stage(1), stage(2), stage(3), stage(4))
	// The sweep's one point per (stage, design): a series per stage, a row
	// per design.
	t := Table{Title: "fsync latency breakdown (ns)", XName: "system"}
	for k, label := range []string{"D(ns)", "JM(ns)", "JC(ns)", "waitIO(ns)", "fsync(ns)"} {
		s := metrics.Series{Label: label}
		for i, design := range ss[k] {
			s.Add(float64(i), design.Y[0])
			if k == 0 {
				t.Rows = append(t.Rows, design.Label)
			}
		}
		t.Series = append(t.Series, s)
	}
	res.Tables = append(res.Tables, t)
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
	series := fsSweep(o, fsDesigns, threads, workload.RunVarmail, fsKIOPS)[0]
	res.plot("throughput (K ops/s)", "threads", series...)
	res.Notes = append(res.Notes, fmt.Sprintf("riofs/ext4 = %s, riofs/horaefs = %s (paper: 2.3x, 1.3x)",
		ratio(1, seriesByLabel(series, "riofs").Y, seriesByLabel(series, "ext4").Y),
		ratio(1, seriesByLabel(series, "riofs").Y, seriesByLabel(series, "horaefs").Y)))
	return res
}

// Fig15bRocksDB: db_bench fillsync across thread counts.
func Fig15bRocksDB(o Options) *Result {
	res := &Result{Name: "Figure 15(b): RocksDB fillsync"}
	threads := []int{1, 4, 8, 16, 24, 36}
	if o.Quick {
		threads = []int{1, 8, 24}
	}
	series := fsSweep(o, fsDesigns, threads, workload.RunFillsync, fsKIOPS)[0]
	res.plot("throughput (K ops/s)", "threads", series...)
	res.Notes = append(res.Notes, fmt.Sprintf("riofs/ext4 = %s, riofs/horaefs = %s (paper: 1.9x, 1.5x)",
		ratio(1, seriesByLabel(series, "riofs").Y, seriesByLabel(series, "ext4").Y),
		ratio(1, seriesByLabel(series, "riofs").Y, seriesByLabel(series, "horaefs").Y)))
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
	t := Table{Title: fmt.Sprintf("recovery time (avg of %d trials)", trials), XName: "system"}
	order := metrics.Series{Label: "order rebuild (ms)"}
	data := metrics.Series{Label: "data recovery (ms)"}
	discarded := metrics.Series{Label: "entries discarded"}
	for i, mode := range []stack.Mode{stack.ModeRio, stack.ModeHorae} {
		var orderMS, dataMS, n float64
		for tr := 0; tr < trials; tr++ {
			cfg := stack.DefaultConfig(mode, fourSSDTwoTargets()...)
			cfg.Streams = 36
			cfg.QPs = 36
			trial := o
			trial.Seed = o.seed() + int64(tr)
			tm := point(trial, cfg, func(eng *sim.Engine, c *stack.Cluster, _, _ sim.Time) (tm stack.RecoveryTiming) {
				stopped := false
				for th := 0; th < 36; th++ {
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
				eng.Go("recover", func(p *sim.Proc) { _, tm = c.RecoverFull(p) })
				eng.Run()
				return tm
			})
			orderMS += tm.OrderRebuild.Seconds() * 1e3
			dataMS += tm.DataRecovery.Seconds() * 1e3
			n += float64(tm.Discarded)
		}
		t.Rows = append(t.Rows, mode.String())
		order.Add(float64(i), orderMS/float64(trials))
		data.Add(float64(i), dataMS/float64(trials))
		discarded.Add(float64(i), n)
	}
	t.Series = []metrics.Series{order, data, discarded}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"paper: Rio 55 ms order rebuild + 125 ms data recovery; Horae 38 ms + 101 ms")
	return res
}
