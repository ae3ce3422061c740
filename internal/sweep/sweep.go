// Package sweep is the declarative experiment core: it turns a
// cross-product grid specification — topology instances × fault plans ×
// routing policies × traffic patterns/motifs × offered loads — into a
// deterministic cell sequence, executes it over a worker pool while
// memoizing the routing tables, simulator prototypes and rank mappings
// its cells share, and streams one Result per cell, in cell order, to
// the caller.
//
// Every experiment driver in internal/exp and the public
// spectralfly.Sweep API are thin presets over this package: they
// declare axes and reduce the streamed results into their exhibit's
// rows. Per-cell seeds derive from one canonical key scheme — the
// stable cell, plan and schedule identities below — and results are
// delivered in cell order, so a grid's output is bit-identical for
// every worker count.
//
// Grids with a fault axis follow the performance-under-failure
// lifecycle of the resilience study: per (instance, fault axis), the
// sampled plans are applied, the instance's intact routing table is
// repaired incrementally (never rebuilt) and memoized, the damaged
// cells run, and the damaged tables are released —
// so peak memory holds one fault group at a time, not the whole sweep.
package sweep

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Instance is one topology axis entry: a built instance plus its
// endpoint concentration.
type Instance struct {
	Name          string
	Inst          *topo.Instance
	Concentration int
}

// Endpoints returns the simulated endpoint count of the instance.
func (i Instance) Endpoints() int { return i.Inst.G.N() * i.Concentration }

// Measure selects what every cell of a grid measures.
type Measure int

const (
	// MeasureLoad runs one open-loop offered-load point per cell
	// (patterns × loads axes apply).
	MeasureLoad Measure = iota
	// MeasureMotif runs one Ember-motif schedule per cell (motif axis
	// applies).
	MeasureMotif
	// MeasureSaturation bisects for the saturation knee (one cell per
	// instance/fault point; pattern, load and policy axes are unused).
	MeasureSaturation
)

func (m Measure) String() string {
	switch m {
	case MeasureLoad:
		return "load"
	case MeasureMotif:
		return "motif"
	case MeasureSaturation:
		return "saturation"
	}
	return fmt.Sprintf("measure(%d)", int(m))
}

// FaultAxis is one damage model on the fault axis: a (kind, fraction)
// pair sampled Trials times into independent deterministic plans.
type FaultAxis struct {
	Kind       fault.Kind
	Fraction   float64
	RegionSize int // chassis size for region plans; <= 0 defaults to 8
	Trials     int // independent plans; <= 0 defaults to 1
}

func (f FaultAxis) trials() int {
	if f.Trials <= 0 {
		return 1
	}
	return f.Trials
}

// ScheduleAxis is one live-reconfiguration model on the schedule axis:
// cells run with a timed topology-event schedule (fault.Schedule)
// applied mid-run on the intact instance. By default the schedule is a
// churn pattern sampled per trial (the ChurnSpec fields below); Make
// overrides the sampler entirely — e.g. a planned fault.Rewiring
// sequence — receiving the instance graph and the trial's derived seed.
type ScheduleAxis struct {
	// Name identifies the axis entry in cells and keys (required).
	Name string
	// ChurnSpec sampling parameters, used when Make is nil.
	Kind       fault.Kind
	Fraction   float64
	RegionSize int
	Period     int64
	Outage     int64
	Repeats    int
	// Trials samples independent schedules; <= 0 defaults to 1.
	Trials int
	// Make overrides the churn sampler.
	Make func(g *graph.Graph, seed int64) (fault.Schedule, error)
}

func (s ScheduleAxis) trials() int {
	if s.Trials <= 0 {
		return 1
	}
	return s.Trials
}

func (s ScheduleAxis) sample(g *graph.Graph, seed int64) (fault.Schedule, error) {
	if s.Make != nil {
		return s.Make(g, seed)
	}
	return fault.ChurnSpec{
		Kind:       s.Kind,
		Fraction:   s.Fraction,
		RegionSize: s.RegionSize,
		Period:     s.Period,
		Outage:     s.Outage,
		Repeats:    s.Repeats,
		Seed:       seed,
	}.Schedule(g)
}

// Cell is one point of the expanded grid. Fault is "none" on intact
// cells (Fraction 0, Trial 0); on damaged cells it names the
// fault.Kind.
type Cell struct {
	Index    int
	Topology string
	Instance int // index into Grid.Instances
	Fault    string
	Fraction float64
	Trial    int
	// Schedule names the ScheduleAxis entry of a reconfiguration cell
	// (empty on static cells, so static grids' JSON is unchanged).
	Schedule string `json:",omitempty"`
	Policy   routing.Policy
	Pattern  traffic.Pattern
	Motif    traffic.Motif `json:"-"`
	MotifTag string        `json:",omitempty"` // Motif.Name() on motif cells
	Load     float64
}

// Result pairs a cell with its measurement. Err reports a per-cell
// failure; the stream continues past it.
type Result struct {
	Cell
	Stats      simnet.Stats
	Saturation float64
	Err        error
}

// cellKey is a cell's stable identity: its simulation seed derives
// from it (unless Grid.SeedOf overrides) and error messages name it.
func cellKey(c *Cell) string {
	switch {
	case c.Schedule != "":
		return fmt.Sprintf("sweep/%s/reconfig/%s/%d/%s/%s/%v",
			c.Topology, c.Schedule, c.Trial, c.Policy, c.Pattern, c.Load)
	case c.Motif != nil:
		return fmt.Sprintf("sweep/%s/%s/%v/%d/%s/motif/%s",
			c.Topology, c.Fault, c.Fraction, c.Trial, c.Policy, c.Motif.Name())
	case c.Load > 0:
		return fmt.Sprintf("sweep/%s/%s/%v/%d/%s/%s/%v",
			c.Topology, c.Fault, c.Fraction, c.Trial, c.Policy, c.Pattern, c.Load)
	}
	return fmt.Sprintf("sweep/%s/%s/%v/%d/saturation",
		c.Topology, c.Fault, c.Fraction, c.Trial)
}

// planKey is the stable identity a fault plan's sampling seed derives
// from.
func planKey(topology string, f FaultAxis, trial int) string {
	return fmt.Sprintf("sweep/plan/%s/%s/%v/%d", topology, f.Kind, f.Fraction, trial)
}

// scheduleKey is the stable identity a sampled schedule's seed derives
// from.
func scheduleKey(topology string, s ScheduleAxis, trial int) string {
	return fmt.Sprintf("sweep/schedule/%s/%s/%d", topology, s.Name, trial)
}

// Grid is a declarative cross-product experiment: instances × faults ×
// policies × (patterns × loads | motifs). The zero values of the
// optional axes mean "single default entry" (see normalize); Measure
// selects which axes are live.
type Grid struct {
	Instances []Instance
	// Faults adds damaged copies of every instance to the grid; empty
	// means intact only. Fractions must be positive — an intact
	// baseline is expressed by OmitIntact = false, not fraction 0.
	Faults []FaultAxis
	// Schedules adds live-reconfiguration copies of every instance: the
	// intact topology run under a timed topology-event schedule
	// (MeasureLoad grids only). Schedule cells run after the instance's
	// fault groups, one group per axis entry.
	Schedules []ScheduleAxis
	// OmitIntact drops the intact cells, leaving only the fault axis
	// (used when the intact baseline was measured by a previous grid on
	// the same engine).
	OmitIntact bool
	Policies   []routing.Policy
	Patterns   []traffic.Pattern
	Motifs     []traffic.Motif
	Loads      []float64
	Measure    Measure

	// Ranks is the MPI job size of load and motif cells, mapped onto
	// the instance's endpoints with Seed. MsgsPerRank is the message
	// count per rank (load cells) or per endpoint (the uniform traffic
	// of saturation cells).
	Ranks       int
	MsgsPerRank int
	// ShiftPeriod and ShiftPatterns make every Load cell's workload
	// time-varying: the traffic rotates through ShiftPatterns every
	// ShiftPeriod cycles, and the Patterns axis' value is ignored by the
	// simulation (it still labels cells). Zero means the usual static
	// patterns.
	ShiftPeriod   int64
	ShiftPatterns []traffic.Pattern
	// LatencyFactor and Tol parameterize saturation cells.
	LatencyFactor float64
	Tol           float64
	// Layout, when its Mode is set, runs every cell with a per-port
	// wire-latency table derived from a machine-room placement of its
	// instance (see the Layout type); the zero value keeps the uniform
	// wire model and byte-identical historical outputs.
	Layout Layout
	// Tenants, when its spec list is nonempty, replaces every Load
	// cell's single mapped workload with a multi-tenant one: the specs
	// are placed on disjoint endpoint sets per instance
	// (traffic.Tenants.Place) and zero-load specs draw their load from
	// the cell's Loads-axis value. Tenant cells carry per-tenant
	// accounting in Stats.Tenants; Ranks/MappingSeed are unused by them.
	Tenants traffic.Tenants

	// Seed is the base seed: rank→endpoint mappings use it directly;
	// cells, fault plans and schedules derive theirs from it via their
	// stable keys.
	Seed int64
	// SeedOf overrides the per-cell simulation seed (default:
	// runner.DeriveSeed(Seed, key)). The Fig8 preset pins both policy
	// legs to the same seed so the ratio isolates the routing effect.
	SeedOf func(c *Cell, key string) int64
}

// Options tunes one execution of a Grid.
type Options struct {
	// Parallel sizes the worker pool (0 = GOMAXPROCS, 1 = serial);
	// results are bit-identical for every value.
	Parallel int
	// Workers splits each cell's simulation into that many router
	// shards (simnet.Config.Workers). When Workers >= 2 and Parallel is
	// 0, the cell pool is sized GOMAXPROCS / Workers (at least 1) so
	// cells × shards never oversubscribe the machine. Cell statistics do
	// not depend on the shard count, so a grid's output — and its cache
	// keys — are bit-identical for every Parallel and Workers value.
	Workers int
	// Tables selects the routing-table storage backend for tables the
	// run builds.
	Tables routing.TableOptions
	// Memo shares memoized tables, simulator prototypes and mappings
	// across runs (the scale preset's degraded grid repairs the table
	// its saturation grid built); nil gives the run a private one.
	Memo *Memo
	// OnTableBytes, when set, is called with the memo's current
	// routing-table footprint at every batch and repair boundary; scale
	// sweeps track their peak memory with it.
	OnTableBytes func(bytes int64)
	// OnSimBytes, when set, observes Stats.MemoryBytes of every
	// completed simulation cell — the run loop's peak working set
	// (event scheduler + packet arena + latency digest + port state).
	// Saturation cells report nothing (their Stats are empty); scale
	// sweeps track the peak simulator footprint with it. Cells replayed
	// from the cache report their recorded footprint, so a warm run's
	// observations match a cold one's.
	OnSimBytes func(bytes int64)
	// Cache, when set, short-circuits every cell whose content key
	// (Grid.ContentKeys) is already stored and stores each newly
	// computed cell before it is emitted — so an interrupted run keeps
	// its completed cells. A group whose selected cells all hit skips
	// its fault-plan sampling and table repair entirely: a fully warm
	// grid runs zero simulations and builds zero tables. Failed cells
	// (Result.Err != nil) are never cached. Grids with opaque schedule
	// Make funcs reject caching (see ContentKeys).
	Cache CellCache
}

// normalize returns the live axes with absent optional axes collapsed
// to a single neutral entry, so the cross product is well defined.
func (g *Grid) axes() (pols []routing.Policy, pats []traffic.Pattern, motifs []traffic.Motif, loads []float64) {
	pols = g.Policies
	if len(pols) == 0 {
		pols = []routing.Policy{routing.Minimal}
	}
	pats = g.Patterns
	if len(pats) == 0 {
		pats = []traffic.Pattern{traffic.Random}
	}
	motifs = g.Motifs
	loads = g.Loads
	switch g.Measure {
	case MeasureMotif:
		pats = pats[:1]
		loads = []float64{0}
	case MeasureSaturation:
		pols = pols[:1]
		pats = pats[:1]
		loads = []float64{0}
	}
	return pols, pats, motifs, loads
}

// validate rejects grids whose live axes are empty or whose fault axis
// is malformed.
func (g *Grid) validate() error {
	if len(g.Instances) == 0 {
		return fmt.Errorf("sweep: grid has no instances")
	}
	for i, inst := range g.Instances {
		if inst.Inst == nil || inst.Inst.G == nil {
			return fmt.Errorf("sweep: instance %d (%s) has no graph", i, inst.Name)
		}
	}
	switch g.Measure {
	case MeasureLoad:
		if len(g.Loads) == 0 {
			return fmt.Errorf("sweep: load grid needs a Loads axis")
		}
		for _, l := range g.Loads {
			if l <= 0 || l > 1 {
				return fmt.Errorf("sweep: offered load %v out of (0,1]", l)
			}
		}
	case MeasureMotif:
		if len(g.Motifs) == 0 {
			return fmt.Errorf("sweep: motif grid needs a Motifs axis")
		}
	case MeasureSaturation:
		// No extra axes.
	default:
		return fmt.Errorf("sweep: unknown measure %d", int(g.Measure))
	}
	for _, p := range g.Policies {
		if !p.Valid() {
			return fmt.Errorf("sweep: unknown policy %d", int(p))
		}
	}
	if g.OmitIntact && len(g.Faults) == 0 && len(g.Schedules) == 0 {
		return fmt.Errorf("sweep: OmitIntact with no fault or schedule axis leaves an empty grid")
	}
	for _, f := range g.Faults {
		if f.Fraction <= 0 || f.Fraction > 1 {
			return fmt.Errorf("sweep: fault fraction %v out of (0,1] (an intact baseline is the OmitIntact=false cells' job)", f.Fraction)
		}
	}
	if len(g.Schedules) > 0 && g.Measure != MeasureLoad {
		return fmt.Errorf("sweep: schedule axis requires MeasureLoad (motif runs have no global clock; saturation would replay the schedule per probe)")
	}
	seen := make(map[string]bool, len(g.Schedules))
	for i, s := range g.Schedules {
		if s.Name == "" {
			return fmt.Errorf("sweep: schedule axis entry %d needs a Name", i)
		}
		if seen[s.Name] {
			return fmt.Errorf("sweep: duplicate schedule axis name %q", s.Name)
		}
		seen[s.Name] = true
	}
	if g.ShiftPeriod > 0 {
		if g.Measure != MeasureLoad {
			return fmt.Errorf("sweep: ShiftPeriod requires MeasureLoad")
		}
		if len(g.ShiftPatterns) == 0 {
			return fmt.Errorf("sweep: ShiftPeriod needs a ShiftPatterns rotation")
		}
	}
	if g.Layout.enabled() {
		switch g.Layout.Mode {
		case "qap", "faq", "sequential":
		default:
			return fmt.Errorf("sweep: unknown layout mode %q (want qap, faq or sequential)", g.Layout.Mode)
		}
	}
	if len(g.Tenants.Specs) > 0 {
		if g.Measure != MeasureLoad {
			return fmt.Errorf("sweep: tenant axis requires MeasureLoad")
		}
		if g.ShiftPeriod > 0 {
			return fmt.Errorf("sweep: tenants and shifting traffic are mutually exclusive")
		}
	}
	return nil
}

// pointCells enumerates the measurement cells of one (instance, fault
// point): policy → pattern/motif → load, in deterministic order.
func (g *Grid) pointCells(ii int, faultName string, fraction float64, trial int, start int) []Cell {
	pols, pats, motifs, loads := g.axes()
	inst := g.Instances[ii]
	var cells []Cell
	add := func(c Cell) {
		c.Index = start + len(cells)
		c.Topology = inst.Name
		c.Instance = ii
		c.Fault = faultName
		c.Fraction = fraction
		c.Trial = trial
		cells = append(cells, c)
	}
	switch g.Measure {
	case MeasureSaturation:
		add(Cell{})
	case MeasureMotif:
		for _, pol := range pols {
			for _, m := range motifs {
				add(Cell{Policy: pol, Motif: m, MotifTag: m.Name()})
			}
		}
	default: // MeasureLoad
		for _, pol := range pols {
			for _, pat := range pats {
				for _, load := range loads {
					add(Cell{Policy: pol, Pattern: pat, Load: load})
				}
			}
		}
	}
	return cells
}

// schedCells enumerates one schedule axis entry's cells for an
// instance: the intact-topology cell block with the axis name stamped
// on every cell.
func (g *Grid) schedCells(ii int, s ScheduleAxis, trial, start int) []Cell {
	cells := g.pointCells(ii, "none", 0, trial, start)
	for i := range cells {
		cells[i].Schedule = s.Name
	}
	return cells
}

// Cells returns the full expanded grid in execution order. A grid
// without fault or schedule axes is one instance-major batch of intact
// cells. Otherwise cells interleave per instance — intact cells first,
// then each fault axis entry's damaged cells trial by trial, then each
// schedule axis entry's reconfiguration cells — so an instance's
// routing tables live only for its own section of the sweep (the
// per-instance memory lifecycle Run documents). Result delivery
// follows exactly this order.
func (g *Grid) Cells() []Cell {
	var out []Cell
	for ii := range g.Instances {
		if !g.OmitIntact {
			out = append(out, g.pointCells(ii, "none", 0, 0, len(out))...)
		}
		for _, f := range g.Faults {
			for trial := 0; trial < f.trials(); trial++ {
				out = append(out, g.pointCells(ii, f.Kind.String(), f.Fraction, trial, len(out))...)
			}
		}
		for _, s := range g.Schedules {
			for trial := 0; trial < s.trials(); trial++ {
				out = append(out, g.schedCells(ii, s, trial, len(out))...)
			}
		}
	}
	return out
}

// seedOf resolves the simulation seed of a cell.
func (g *Grid) seedOf(c *Cell, key string) int64 {
	if g.SeedOf != nil {
		return g.SeedOf(c, key)
	}
	return runner.DeriveSeed(g.Seed, key)
}

// damagedPoint is one sampled fault plan applied to an instance: the
// damaged topology (vertex ids preserved), whose incrementally
// repaired routing table is already memoized, and its dead routers.
type damagedPoint struct {
	g    *graph.Graph
	dead []bool
}

// Run executes the grid and streams one Result per cell, in the order
// of Cells(), to emit. The stream stops early when ctx is cancelled
// (returning ctx.Err(); cells already delivered stay delivered) or
// when emit returns an error. Per-cell failures ride in Result.Err and
// do not stop the stream.
func (g *Grid) Run(ctx context.Context, opts Options, emit func(Result) error) error {
	return g.run(ctx, opts, 0, -1, emit)
}

// RunRange executes only the cells with Index in [lo, hi), streaming
// their Results in cell order — the distributed worker's unit of
// execution. Groups with no cell in range are skipped entirely: no
// fault-plan sampling, no table repair. hi < 0 means the end of the
// grid. Results are bit-identical to the same cells' Results from a
// full Run, for every range partition.
func (g *Grid) RunRange(ctx context.Context, opts Options, lo, hi int, emit func(Result) error) error {
	return g.run(ctx, opts, lo, hi, emit)
}

func (g *Grid) run(ctx context.Context, opts Options, lo, hi int, emit func(Result) error) error {
	if err := g.validate(); err != nil {
		return err
	}
	d := g.deriver()
	var keys []string
	if opts.Cache != nil {
		var err error
		if keys, err = g.contentKeys(d); err != nil {
			return err
		}
	}
	if lo < 0 {
		lo = 0
	}
	x := &executor{grid: g, memo: opts.Memo, tables: opts.Tables, workers: opts.Workers}
	if x.memo == nil {
		x.memo = &Memo{}
	}
	pool := poolSize(opts)
	probe := func() {
		if opts.OnTableBytes != nil {
			opts.OnTableBytes(x.memo.tableBytes())
		}
	}

	inRange := func(i int) bool { return i >= lo && (hi < 0 || i < hi) }

	// runBatch streams one batch of cells: the intact cells (prep nil),
	// one fault group's cells across all its trials, or one schedule
	// group's cells. Cache hits enter the stream as completed slots.
	// prep supplies the group's execution context — points[c.Trial] is
	// a fault cell's damaged instance, scheds[c.Trial] a
	// reconfiguration cell's timed schedule — and runs only when a
	// selected cell misses the cache, so ranges and warm caches skip a
	// group's sampling and table repair along with its simulations.
	// executed reports whether any cell ran (the caller releases the
	// group's tables only then).
	runBatch := func(cells []Cell, prep func() ([]damagedPoint, []fault.Schedule, error)) (executed bool, err error) {
		sel := cells[:0:0]
		for _, c := range cells {
			if inRange(c.Index) {
				sel = append(sel, c)
			}
		}
		if len(sel) == 0 {
			return false, nil
		}
		if err := ctx.Err(); err != nil {
			return false, err
		}
		results := make([]Result, len(sel))
		hit := make([]bool, len(sel))
		if opts.Cache != nil {
			// A corrupt or undecodable entry just demotes to a miss.
			for i := range sel {
				if b, ok := opts.Cache.Get(keys[sel[i].Index]); ok {
					if p, err := DecodePayload(b); err == nil {
						results[i] = Result{Cell: sel[i], Stats: p.Stats, Saturation: p.Saturation}
						hit[i] = true
					}
				}
			}
		}
		tasks := make([]task, len(sel))
		if executed = slices.Contains(hit, false); executed {
			var points []damagedPoint
			var scheds []fault.Schedule
			if prep != nil {
				if points, scheds, err = prep(); err != nil {
					return true, err
				}
			}
			for i := range sel {
				if hit[i] {
					continue
				}
				c := &sel[i]
				t := &tasks[i]
				t.cell, t.key = c, cellKey(c)
				t.seed = g.seedOf(c, t.key)
				t.g = g.Instances[c.Instance].Inst.G
				if points != nil {
					t.g, t.dead = points[c.Trial].g, points[c.Trial].dead
				}
				if scheds != nil {
					t.sched = scheds[c.Trial]
				}
				// Layout and tenant artifacts derive from the instance (and,
				// for latency tables, the concrete — possibly damaged — graph);
				// the deriver memoizes them across the grid's cells.
				if t.lats, err = d.latencies(c.Instance, t.g); err != nil {
					return true, err
				}
				if t.ten, err = d.assignment(c.Instance); err != nil {
					return true, err
				}
			}
		}
		return executed, stream(ctx, pool, hit,
			func(i int) { results[i] = x.exec(&tasks[i]) },
			func(i int) error {
				out := results[i]
				if out.Err == nil {
					if opts.OnSimBytes != nil && out.Stats.MemoryBytes > 0 {
						opts.OnSimBytes(out.Stats.MemoryBytes)
					}
					// Store before emitting, so a run killed mid-emit still
					// keeps the cell for its resume.
					if opts.Cache != nil && !hit[i] {
						if b, err := EncodePayload(out); err == nil {
							opts.Cache.Put(keys[out.Index], b)
						}
					}
				}
				return emit(out)
			})
	}

	next := 0 // running cell index, mirroring Cells() order

	// Without fault or schedule axes the whole grid is one batch: every
	// cell is independent, so cross-instance parallelism is free.
	if len(g.Faults) == 0 && len(g.Schedules) == 0 {
		var intact []Cell
		for ii := range g.Instances {
			cells := g.pointCells(ii, "none", 0, 0, next)
			next += len(cells)
			intact = append(intact, cells...)
		}
		executed, err := runBatch(intact, nil)
		if err != nil {
			return err
		}
		if executed {
			probe()
		}
		return nil
	}

	// With a fault or schedule axis, instances run one at a time —
	// intact cells, then the fault groups, then the schedule groups — so
	// at any moment the memo holds at most one instance's intact table
	// plus one group's damaged tables.
	for ii, inst := range g.Instances {
		if !g.OmitIntact {
			cells := g.pointCells(ii, "none", 0, 0, next)
			next += len(cells)
			executed, err := runBatch(cells, nil)
			if err != nil {
				return err
			}
			if executed {
				probe()
			}
		}
		for fi, f := range g.Faults {
			if err := ctx.Err(); err != nil {
				return err
			}
			var points []damagedPoint
			prep := func() ([]damagedPoint, []fault.Schedule, error) {
				// Sample this group's plans and repair the intact table
				// incrementally for each — never a full rebuild.
				base := x.memo.table(inst.Inst.G, opts.Tables)
				points = make([]damagedPoint, f.trials())
				for trial := range points {
					plan := fault.Plan{
						Kind:       f.Kind,
						Fraction:   f.Fraction,
						RegionSize: f.RegionSize,
						Seed:       runner.DeriveSeed(g.Seed, planKey(inst.Name, f, trial)),
					}
					out := plan.Apply(inst.Inst.G)
					repaired := base.Repair(out.Removed)
					x.memo.register(repaired.G, repaired)
					points[trial] = damagedPoint{g: repaired.G, dead: out.DeadRouters}
				}
				// The repair window — intact and repaired tables briefly
				// memoized together — is where table memory peaks.
				probe()
				if fi == len(g.Faults)-1 && len(g.Schedules) == 0 {
					// The intact table has served its purpose (intact cells,
					// repair source): drop it before the last group's cells
					// run so only the damaged tables stay memoized. Schedule
					// groups still need it, so with a schedule axis it lives
					// until the instance's section ends.
					x.memo.release(inst.Inst.G)
				}
				return points, nil, nil
			}
			var group []Cell
			for trial := 0; trial < f.trials(); trial++ {
				cells := g.pointCells(ii, f.Kind.String(), f.Fraction, trial, next)
				next += len(cells)
				group = append(group, cells...)
			}
			executed, err := runBatch(group, prep)
			if executed {
				// Each trial's table and simulator prototype are only
				// reachable through the memo: release them as soon as the
				// group's cells are done, so peak memory holds one fault
				// group, not the whole sweep.
				for _, p := range points {
					x.memo.release(p.g)
				}
				probe()
			}
			if err != nil {
				return err
			}
		}
		for _, s := range g.Schedules {
			if err := ctx.Err(); err != nil {
				return err
			}
			prep := func() ([]damagedPoint, []fault.Schedule, error) {
				// Sample this group's schedules deterministically from their
				// stable keys — like fault plans, a schedule is a pure value
				// of (axis, instance, trial), so the grid's output is
				// bit-identical for every worker count.
				scheds := make([]fault.Schedule, s.trials())
				for trial := range scheds {
					seed := runner.DeriveSeed(g.Seed, scheduleKey(inst.Name, s, trial))
					sched, err := s.sample(inst.Inst.G, seed)
					if err != nil {
						return nil, nil, fmt.Errorf("sweep: schedule axis %q on %s: %w", s.Name, inst.Name, err)
					}
					scheds[trial] = sched
				}
				return nil, scheds, nil
			}
			var group []Cell
			for trial := 0; trial < s.trials(); trial++ {
				cells := g.schedCells(ii, s, trial, next)
				next += len(cells)
				group = append(group, cells...)
			}
			executed, err := runBatch(group, prep)
			if err != nil {
				return err
			}
			if executed {
				probe()
			}
		}
		if len(g.Schedules) > 0 && len(g.Faults) > 0 {
			// With both axes the intact table was kept alive for the
			// schedule groups (see above); the instance's section is over.
			// Releasing a never-built table (all groups skipped) is a no-op.
			x.memo.release(inst.Inst.G)
		}
	}
	return nil
}

// Collect runs the grid and returns every Result in cell order — the
// non-streaming convenience the exp presets reduce from.
func (g *Grid) Collect(ctx context.Context, opts Options) ([]Result, error) {
	out := make([]Result, 0, len(g.Cells()))
	if err := g.Run(ctx, opts, func(res Result) error {
		out = append(out, res)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}
