// Package crash is the one crash harness. Draw(seed) rejection-samples a legal
// configuration, a traffic shape and a cut schedule; Plan.Run drives them
// through one phase sequence and checks the whole recovery contract
// (DESIGN.md §7) with the stack's oracle. cmd/riocrash and the tests run the
// same plans, so a failure anywhere is one `riocrash -seed N` line.
//
// The harness is a package of its own, not part of stack, so that riocrash
// can import it and its lines are not the data path's; the two things it needs
// that no Config can say — recycle poisoning and flush-combiner occupancy —
// are the test hooks Cluster.PoisonRecycled and Target.BarriersQueued.
package crash

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"

	"repro/internal/stack"
	"repro/internal/trace"
)

// Plan is one drawn crash schedule. Every field down to Allow is a dimension:
// Draw takes it from dims, and `-set name=value` pins it instead (the name is
// the field's, in lower case).
type Plan struct {
	Cut      string // cluster, target, initiator, both (a target and an initiator in one instant), member, head (the relay's), members (every member in turn, 50 µs apart)
	Mode     string // rio, horae, linux, orderless
	Inits    int    // initiator servers
	Devices  string // one target per letter: o = Optane (PLP), f = flash
	Replicas int
	Relay    bool
	Chunk    int    // stripe chunk in blocks; 0 pins every stream to one device
	Burst    int    // writes per burst, drawn 1..Burst each time; 1 never fuses
	Plug     bool   // bursts go under a plug, each a group per write or one group of all
	Commit   int    // every n-th write of a stream carries the FLUSH
	PMR      int    // KiB per device: the recovery scan sweeps all of it
	Cache    int    // read-cache blocks; with a cache, one reader per stream
	Ahead    int    // read-ahead blocks
	Trace    int    // sample every n-th request
	Queued   bool   // cut at the first instant barriers wait behind a running FLUSH, searched from 5 × At
	Final    bool   // then a whole-cluster cut, FinalAt after the first recovery
	At       int    // µs
	FinalAt  int    // µs
	Victim   int    // the target (set member) the cut takes, or starts at
	VInit    int    // the initiator "initiator" and "both" cut
	Allow    string // recorded findings to let through, by item: "1d,1f"

	Seed int64
	Cfg  stack.Config
	pins []string

	// Masked counts, per findings row, the candidate draws that row's
	// predicate refused before this plan was drawn, and Redrawn the
	// candidates any row refused (a candidate can hit several rows).
	Masked  []int
	Redrawn int
}

type dim struct {
	name   string
	vals   []any
	lo, hi int
}

// dims is what each dimension is drawn from, a repeated value that much more
// often; lo/hi draw a number instead. To add a dimension: a field of Plan, a
// row here, and the line of legal that applies it. The cut comes first: it is
// drawn once and the rest redrawn until the plan is legal, so every kind of
// cut gets an equal share of the seeds.
var dims = []dim{
	{name: "Cut", vals: []any{"cluster", "cluster", "target", "initiator", "both", "member", "head", "members"}}, // cluster twice: it is split four ways by mode
	{name: "Mode", vals: []any{"rio", "rio", "horae", "linux", "linux", "orderless"}},
	{name: "Inits", vals: []any{1, 2}},
	{name: "Devices", vals: []any{"oo", "of", "fo", "ff", "ooo"}},
	{name: "Replicas", vals: []any{1, 1, 3}},
	{name: "Relay", vals: []any{false, true}},
	{name: "Chunk", vals: []any{1, 4, 8, 0}},
	{name: "Burst", vals: []any{1, 4, 6}},
	{name: "Plug", vals: []any{false, true}},
	{name: "Commit", vals: []any{0, 0, 2, 4, 8}},
	{name: "PMR", vals: []any{64, 64, 128, 128, 128, 256, 256, 2048}},
	{name: "Cache", vals: []any{0, 0, 128}},
	{name: "Ahead", vals: []any{0, 4}},
	{name: "Trace", vals: []any{0, 1}},
	{name: "Queued", vals: []any{false, true, true, true, true}},
	{name: "Final", vals: []any{false, true}},
	{name: "At", lo: 20, hi: 450},
	{name: "FinalAt", lo: 30, hi: 230},
	{name: "Victim", vals: []any{0, 1, 2}},
	{name: "VInit", vals: []any{0, 1}},
	{name: "Allow", vals: []any{""}},
}

// region is each (initiator, stream)'s share of the volume, in blocks: writers
// never overwrite, and 8 regions fit the smallest volume drawn (one device).
const region = 1 << 19

var modes = map[string]stack.Mode{"orderless": stack.ModeOrderless, "linux": stack.ModeLinux, "horae": stack.ModeHorae, "rio": stack.ModeRio}

// findings are the plans that violate the contract at head for a recorded
// reason (ROADMAP item 1). Draw keeps them out, by name; `-set allow=<item>`
// runs one anyway, which is how the item's repro line stays runnable. One
// finding no predicate over plans can name is kept out in run.go instead, and
// let through the same way: 1h, by the state of the evidence (check).
var findings = []struct {
	item, what string
	hit        func(pl *Plan) bool
}{
	{"1d", "a commit on a stream striped over several devices, one non-PLP: the FLUSH certifies only the device it lands on",
		func(pl *Plan) bool { return pl.Commit > 0 && pl.striped() && !pl.plp() }},
	{"1f", "a target-only cut of a non-PLP device: plain writes acknowledged from its cache are lost and nothing re-sends them",
		func(pl *Plan) bool { return pl.targetOnly() && pl.Devices[pl.Victim] == 'f' }},
	{"1i", "every member of a set cut in turn under two initiators with several writes outstanding per stream: no recovery ever completes",
		func(pl *Plan) bool { return pl.Cut == "members" && pl.Inits > 1 }},
}

func (pl *Plan) plp() bool        { return !strings.Contains(pl.Devices, "f") } // every device has power-loss protection
func (pl *Plan) targetOnly() bool { return pl.Cut == "target" || pl.Cut == "both" }
func (pl *Plan) striped() bool    { return pl.Chunk > 0 && len(pl.Devices) > pl.Replicas } // a stream's blocks land on several sets
func (pl *Plan) allows(item string) bool {
	return slices.Contains(strings.Split(pl.Allow, ","), item)
}

// Draw returns plan number seed: a legal configuration and schedule drawn
// from dims, with every `name=value` of set pinned instead of drawn. It fails
// only when the pins admit no legal plan, and then says which rule refused
// the draw that got furthest.
func Draw(seed int64, set ...string) (Plan, error) {
	pl := Plan{Seed: seed, pins: set, Masked: make([]int, len(findings))}
	field, pinned := map[string]reflect.Value{}, map[string]reflect.Value{}
	for _, d := range dims {
		field[d.name] = reflect.ValueOf(&pl).Elem().FieldByName(d.name)
	}
	for _, kv := range set {
		name, val, _ := strings.Cut(kv, "=")
		i := slices.IndexFunc(dims, func(d dim) bool { return strings.EqualFold(d.name, name) })
		if i < 0 {
			return pl, fmt.Errorf("crash: -set %q: want name=value, the name one of\n%s", kv, Histogram(nil))
		}
		var v any = val
		var err error
		switch field[dims[i].name].Kind() {
		case reflect.Int:
			v, err = strconv.Atoi(val)
		case reflect.Bool:
			v, err = strconv.ParseBool(val)
		}
		if err != nil {
			return pl, fmt.Errorf("crash: -set %q: %v", kv, err)
		}
		pinned[dims[i].name] = reflect.ValueOf(v)
	}
	rng := rand.New(rand.NewSource(seed))
	var refused error
	for try, furthest := 0, -1; try < 20000; try++ {
		for i, d := range dims {
			if v, ok := pinned[d.name]; ok {
				field[d.name].Set(v)
			} else if d.vals == nil {
				field[d.name].SetInt(int64(d.lo + rng.Intn(d.hi-d.lo)))
			} else if i > 0 || try == 0 {
				field[d.name].Set(reflect.ValueOf(d.vals[rng.Intn(len(d.vals))]))
			}
		}
		// Outside Rio mode the span is what ran before this harness and no wider
		// — one initiator, no replication, one whole-cluster cut — so what lies
		// beyond it is not drawn (legal refuses a pin that asks for it). A
		// pinned mode other than rio draws the cut inside that span too.
		span := map[string]any{"Inits": 1, "Replicas": 1, "Relay": false, "Final": false}
		if m, ok := pinned["Mode"]; ok && m.String() != "rio" {
			span["Cut"] = "cluster"
		} else if pl.Cut != "cluster" {
			span = map[string]any{"Mode": "rio"}
		}
		for name, v := range span {
			if _, ok := pinned[name]; !ok && (pl.Mode != "rio" || name == "Mode") {
				field[name].Set(reflect.ValueOf(v))
			}
		}
		stage, err := pl.legal()
		if err == nil {
			return pl, nil
		}
		if stage > furthest {
			furthest, refused = stage, err
		}
	}
	return pl, fmt.Errorf("crash: no legal plan for seed %d under %v: %w", seed, set, refused)
}

// legal builds the plan's configuration, or says which rule makes the plan
// illegal and how far it got: Validate, then what the schedule needs of the
// configuration in the order written, last the recorded findings.
func (pl *Plan) legal() (stage int, err error) {
	var targets []stack.TargetConfig
	for _, d := range pl.Devices {
		tc := stack.OptaneTarget()
		if d == 'f' {
			tc = stack.FlashTarget()
		}
		tc.SSDs[0].PMRSize = pl.PMR << 10
		targets = append(targets, tc)
	}
	cfg := stack.DefaultConfig(modes[pl.Mode], targets...)
	cfg.Streams, cfg.QPs, cfg.InitiatorCores, cfg.TargetCores = 4, 4, 8, 8
	cfg.KeepHistory, cfg.Seed = true, pl.Seed
	cfg.Initiators, cfg.Replicas, cfg.ReplRelay = pl.Inits, pl.Replicas, pl.Relay
	cfg.CacheBlocks, cfg.ReadAhead, cfg.Trace = pl.Cache, pl.Ahead, trace.Config{SampleEvery: pl.Trace}
	if cfg.ChunkBlocks = pl.Chunk; pl.Chunk == 0 {
		cfg.ChunkBlocks = region
	}
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	pl.Cfg = cfg
	// Replica sets too are drawn as the one shape that ran before this harness,
	// a single set of PLP devices (ROADMAP item 9(b) lists what is left to widen).
	rio, member := pl.Mode == "rio", slices.Contains([]string{"member", "head", "members"}, pl.Cut)
	for i, rule := range []struct {
		broken bool
		what   string
	}{
		{modes[pl.Mode].String() != pl.Mode || strings.Trim(pl.Devices, "of") != "" || pl.Burst < 1 || !slices.Contains(dims[0].vals, any(pl.Cut)),
			"a cut is one of " + fmt.Sprint(dims[0].vals...) + "; a mode rio, horae, linux or orderless; devices one o or f per target; a burst at least 1"},
		{pl.Victim >= len(targets) || pl.VInit >= pl.Inits || pl.Victim < 0 || pl.VInit < 0, "the victim is one of the targets, vinit one of the initiators"},
		{!rio && (pl.Cut != "cluster" || pl.Final || pl.Inits > 1), pl.Mode + " mode is drawn with one initiator and one whole-cluster cut only"},
		{member && pl.Replicas < 2, "cut=" + pl.Cut + " needs a replica set"},
		{pl.targetOnly() && pl.Replicas > 1, "a target of a replicated cluster is cut as cut=member"},
		{pl.Cut == "head" && (!pl.Relay || pl.Victim != 0), "cut=head needs the relay, whose head is member 0"},
		{pl.Replicas > 1 && (!pl.plp() || len(targets) != pl.Replicas), "replication is drawn as one set of PLP devices"},
		{pl.Queued && (pl.Commit == 0 || pl.plp()), "queued needs commits on a flash device"},
		{pl.Mode == "linux" && pl.Plug, "linux mode submits synchronously: no plug"},
	} {
		if rule.broken {
			return 1 + i, errors.New("crash: " + rule.what)
		}
	}
	for i, f := range findings {
		if f.hit(pl) && !pl.allows(f.item) {
			pl.Masked[i]++
			if err == nil {
				err = fmt.Errorf("crash: recorded finding, ROADMAP item 1(%s): %s (-set allow=%s runs it)", f.item[1:], f.what, f.item)
			}
		}
	}
	if err != nil {
		pl.Redrawn++
	}
	return 100, err
}

// Repro is the command line that runs exactly this plan.
func (pl Plan) Repro() string {
	return fmt.Sprintf("riocrash -seed %d%s", pl.Seed, strings.Join(append([]string{""}, pl.pins...), " -set "))
}

// String is the plan in full: every dimension's value.
func (pl Plan) String() string {
	var b strings.Builder
	for _, d := range dims {
		fmt.Fprintf(&b, "%s=%v ", strings.ToLower(d.name), reflect.ValueOf(pl).FieldByName(d.name))
	}
	return strings.TrimSpace(b.String())
}

// MaskTable sums, over plans, the candidate draws each recorded finding's
// predicate refused, then the candidates redrawn in all (a candidate can hit
// several findings): the share of the space the findings keep out, which
// closing one wins back. One line, in the histogram's layout.
func MaskTable(plans []Plan) string {
	var b strings.Builder
	b.WriteString("masked   ")
	for i, f := range findings {
		n := 0
		for _, pl := range plans {
			n += pl.Masked[i]
		}
		fmt.Fprintf(&b, " %s:%d", f.item, n)
	}
	total := 0
	for _, pl := range plans {
		total += pl.Redrawn
	}
	fmt.Fprintf(&b, " all:%d\n", total)
	return b.String()
}

// Histogram counts, per dimension, how many of the plans drew each value
// (without plans: the dimensions and their values).
func Histogram(plans []Plan) string {
	var b strings.Builder
	for _, d := range dims {
		fmt.Fprintf(&b, "%-9s", strings.ToLower(d.name))
		if d.vals == nil {
			fmt.Fprintf(&b, " %d..%d", d.lo, d.hi-1)
		}
		for i, val := range d.vals {
			if slices.Index(d.vals, val) < i {
				continue // a repeated value: counted at its first
			}
			n := 0
			for _, pl := range plans {
				if reflect.ValueOf(pl).FieldByName(d.name).Interface() == val {
					n++
				}
			}
			if fmt.Fprintf(&b, " %v", val); plans != nil {
				fmt.Fprint(&b, ":", n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
