package sweep

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/graph"
	"repro/internal/runner"
	"repro/internal/simnet"
	"repro/internal/traffic"
	"repro/internal/version"
)

// CellCache is the content-addressed result store consulted by
// Grid.Run when Options.Cache is set. Keys are the per-cell content
// keys of ContentKeys; values are EncodePayload documents. Both
// methods must be safe for concurrent use; Put is best-effort (a
// store that drops writes only costs recomputation, never
// correctness). *service.Cache implements it.
type CellCache interface {
	Get(key string) ([]byte, bool)
	Put(key string, payload []byte)
}

// Payload is the cached measurement of one successfully completed
// cell — everything Result carries beyond the cell identity itself.
// Failed cells are never cached, so a Payload always reflects a clean
// run.
type Payload struct {
	Stats      simnet.Stats `json:"stats"`
	Saturation float64      `json:"saturation,omitempty"`
}

// EncodePayload serializes a successful Result for the cache or the
// coordinator wire. JSON keeps payloads diffable and — because Go's
// encoder emits the shortest float representation that round-trips —
// decoding reproduces every statistic bit for bit.
func EncodePayload(res Result) ([]byte, error) {
	if res.Err != nil {
		return nil, fmt.Errorf("sweep: refusing to encode a failed cell: %w", res.Err)
	}
	return json.Marshal(Payload{Stats: res.Stats, Saturation: res.Saturation})
}

// DecodePayload parses an EncodePayload document.
func DecodePayload(b []byte) (Payload, error) {
	var p Payload
	err := json.Unmarshal(b, &p)
	return p, err
}

// cacheable reports whether the grid's results are a pure function of
// its serializable description. Schedule axes with an opaque Make
// func are not: the closure's behavior cannot enter a content key, so
// caching such a grid could replay stale results after the closure
// changes.
func (g *Grid) cacheable() error {
	for _, s := range g.Schedules {
		if s.Make != nil {
			return fmt.Errorf("sweep: schedule axis %q has an opaque Make func; content-addressed caching needs value-derived (ChurnSpec) schedules", s.Name)
		}
	}
	return nil
}

// graphDigest hashes a topology instance's exact structure: vertex
// count plus the edge list in its canonical order. Two instances with
// the same name but different wiring (a regenerated random topology,
// a different construction) therefore never share cell keys.
func graphDigest(g *graph.Graph) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(g.N()))
	h.Write(buf[:])
	for _, e := range g.Edges() {
		binary.LittleEndian.PutUint32(buf[:4], uint32(e[0]))
		binary.LittleEndian.PutUint32(buf[4:], uint32(e[1]))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// motifDigest hashes a motif's full message schedule. Motif names are
// display labels and not unique — the quick and full variants of an
// Ember motif share one — so only the rounds themselves identify the
// workload.
func motifDigest(m traffic.Motif) string {
	h := sha256.New()
	var buf [8]byte
	for _, round := range m.Rounds() {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(round)))
		h.Write(buf[:])
		for _, msg := range round {
			binary.LittleEndian.PutUint32(buf[:4], uint32(msg[0]))
			binary.LittleEndian.PutUint32(buf[4:], uint32(msg[1]))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sharedKeyHeader is the per-grid prefix of every cell content key:
// the code version stamp plus every knob that shapes all cells alike.
func (g *Grid) sharedKeyHeader() string {
	var b strings.Builder
	fmt.Fprintf(&b, "spectralfly-cell-v1\nversion=%s\nmeasure=%s\nseed=%d\nranks=%d\nmsgs=%d\n",
		version.Stamp(), g.Measure, g.Seed, g.Ranks, g.MsgsPerRank)
	switch g.Measure {
	case MeasureSaturation:
		fmt.Fprintf(&b, "latf=%v\ntol=%v\n", g.LatencyFactor, g.Tol)
	case MeasureLoad:
		if g.ShiftPeriod > 0 {
			fmt.Fprintf(&b, "shift=%d", g.ShiftPeriod)
			for _, p := range g.ShiftPatterns {
				fmt.Fprintf(&b, ":%s", p)
			}
			b.WriteByte('\n')
		}
	}
	// The layout and tenant axes append only when active, so grids that
	// never use them keep the keys they had before those axes existed.
	if g.Layout.enabled() {
		fmt.Fprintf(&b, "layout=%s:%v:%d\n", g.Layout.Mode, g.Layout.cyclesPerNs(), g.Layout.Seed)
	}
	if len(g.Tenants.Specs) > 0 {
		fmt.Fprintf(&b, "tenants=%s:%d\n", g.Tenants.Policy, g.Tenants.Seed)
		for _, sp := range g.Tenants.Specs {
			if sp.Motif != nil {
				fmt.Fprintf(&b, "tenant=%s:motif:%s:%d:%v\n", sp.Name, motifDigest(sp.Motif), sp.Ranks, sp.Load)
			} else {
				fmt.Fprintf(&b, "tenant=%s:%s:%d:%v\n", sp.Name, sp.Pattern, sp.Ranks, sp.Load)
			}
		}
	}
	return b.String()
}

// latencyDigest hashes a derived per-port latency table entry by
// entry. The table is a pure function of inputs the keys already
// commit to (graph, layout mode/knob/seed), but the wire-model
// constants live in code the version stamp may not cover in dev
// builds — hashing the concrete table means a model change can never
// replay a stale cell.
func latencyDigest(t *simnet.LinkLatencies) string {
	h := sha256.New()
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(t.NIC))
	h.Write(buf[:])
	for _, row := range t.Port {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(row)))
		h.Write(buf[:])
		for _, v := range row {
			binary.LittleEndian.PutUint64(buf[:], uint64(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// contentKey builds one cell's content-addressed key. extra carries
// the cell's group context — the fault-plan or schedule parameters
// that the default cell identity strings do not fully capture (e.g.
// FaultAxis.RegionSize changes the sampled plan but not the cell key).
func (g *Grid) contentKey(shared string, digests []string, c *Cell, extra string) string {
	ck := cellKey(c)
	h := sha256.New()
	io.WriteString(h, shared)
	fmt.Fprintf(h, "graph=%s\nconc=%d\n", digests[c.Instance], g.Instances[c.Instance].Concentration)
	// The cell identity string, plus the fields it derives from spelled
	// out explicitly — the identity names a motif by its display label,
	// and a key collision must cost a cache miss, never a wrong result.
	fmt.Fprintf(h, "cell=%s\nsimseed=%d\npolicy=%s\n", ck, g.seedOf(c, ck), c.Policy)
	switch g.Measure {
	case MeasureMotif:
		fmt.Fprintf(h, "motif=%s:%s\n", c.MotifTag, motifDigest(c.Motif))
	case MeasureLoad:
		fmt.Fprintf(h, "pattern=%s\nload=%v\n", c.Pattern, c.Load)
	}
	if extra != "" {
		io.WriteString(h, extra)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// ContentKeys returns one content-addressed cache key per cell, in
// Cells() order. A key commits to everything the cell's measurement
// depends on: the code version stamp, the grid's shared workload
// knobs, the instance's exact graph and concentration, the cell
// identity and its derived simulation seed, and the cell's sampled
// fault-plan or schedule parameters. Two overlapping grids (say,
// differing only in an extra fault axis) share keys for the cells they
// have in common, so a cache warmed by one serves the other. Results
// do not depend on how the run is executed (Options), so neither do
// keys: a cache warmed at one worker count serves every other.
func (g *Grid) ContentKeys() ([]string, error) {
	if err := g.validate(); err != nil {
		return nil, err
	}
	return g.contentKeys(g.deriver())
}

// contentKeys is ContentKeys with a caller-supplied deriver, so Run
// shares one set of memoized placements between key computation and
// task construction instead of optimizing every placement twice.
func (g *Grid) contentKeys(d *deriver) ([]string, error) {
	if err := g.cacheable(); err != nil {
		return nil, err
	}
	shared := g.sharedKeyHeader()
	digests := make([]string, len(g.Instances))
	for i := range g.Instances {
		digests[i] = graphDigest(g.Instances[i].Inst.G)
		if g.Layout.enabled() {
			// Commit each instance's intact latency table. Damaged cells'
			// tables are re-derived from the same placement, pinned by the
			// fault-plan parameters their group context already carries.
			t, err := d.latencies(i, g.Instances[i].Inst.G)
			if err != nil {
				return nil, err
			}
			digests[i] += "+lat:" + latencyDigest(t)
		}
	}
	var keys []string
	addGroup := func(cells []Cell, extra string) {
		for i := range cells {
			keys = append(keys, g.contentKey(shared, digests, &cells[i], extra))
		}
	}
	next := 0
	for ii := range g.Instances {
		inst := g.Instances[ii]
		if !g.OmitIntact {
			cells := g.pointCells(ii, "none", 0, 0, next)
			next += len(cells)
			addGroup(cells, "")
		}
		for _, f := range g.Faults {
			for trial := 0; trial < f.trials(); trial++ {
				cells := g.pointCells(ii, f.Kind.String(), f.Fraction, trial, next)
				next += len(cells)
				planSeed := runner.DeriveSeed(g.Seed, planKey(inst.Name, f, trial))
				addGroup(cells, fmt.Sprintf("fault=%s:%v:%d:%d", f.Kind, f.Fraction, f.RegionSize, planSeed))
			}
		}
		for _, s := range g.Schedules {
			for trial := 0; trial < s.trials(); trial++ {
				cells := g.schedCells(ii, s, trial, next)
				next += len(cells)
				schedSeed := runner.DeriveSeed(g.Seed, scheduleKey(inst.Name, s, trial))
				addGroup(cells, fmt.Sprintf("sched=%s:%v:%d:%d:%d:%d:%d",
					s.Kind, s.Fraction, s.RegionSize, s.Period, s.Outage, s.Repeats, schedSeed))
			}
		}
	}
	return keys, nil
}

// Fingerprint returns the full grid identity: a digest over the code
// version stamp, every axis (instances with their exact graphs,
// faults, schedules, policies, patterns, motifs, loads) and every
// shared knob — no execution option. Distributed runs use it as the
// coordinator/worker compatibility check and the journal name —
// unlike the per-cell keys of ContentKeys, which deliberately exclude
// unrelated axes, the fingerprint pins the whole grid.
func (g *Grid) Fingerprint() (string, error) {
	if err := g.validate(); err != nil {
		return "", err
	}
	if err := g.cacheable(); err != nil {
		return "", err
	}
	h := sha256.New()
	io.WriteString(h, "spectralfly-grid-v1\n")
	io.WriteString(h, g.sharedKeyHeader())
	fmt.Fprintf(h, "omitintact=%v\nshift=%d", g.OmitIntact, g.ShiftPeriod)
	for _, p := range g.ShiftPatterns {
		fmt.Fprintf(h, ":%s", p)
	}
	fmt.Fprintf(h, "\nlatf=%v\ntol=%v\n", g.LatencyFactor, g.Tol)
	d := g.deriver()
	for i := range g.Instances {
		inst := g.Instances[i]
		fmt.Fprintf(h, "inst=%s:%d:%s", inst.Name, inst.Concentration, graphDigest(inst.Inst.G))
		if g.Layout.enabled() {
			t, err := d.latencies(i, inst.Inst.G)
			if err != nil {
				return "", err
			}
			fmt.Fprintf(h, ":lat=%s", latencyDigest(t))
		}
		h.Write([]byte{'\n'})
	}
	for _, f := range g.Faults {
		fmt.Fprintf(h, "fault=%s:%v:%d:%d\n", f.Kind, f.Fraction, f.RegionSize, f.trials())
	}
	for _, s := range g.Schedules {
		fmt.Fprintf(h, "sched=%s:%s:%v:%d:%d:%d:%d:%d\n",
			s.Name, s.Kind, s.Fraction, s.RegionSize, s.Period, s.Outage, s.Repeats, s.trials())
	}
	for _, p := range g.Policies {
		fmt.Fprintf(h, "policy=%s\n", p)
	}
	for _, p := range g.Patterns {
		fmt.Fprintf(h, "pattern=%s\n", p)
	}
	for _, m := range g.Motifs {
		fmt.Fprintf(h, "motif=%s:%s\n", m.Name(), motifDigest(m))
	}
	for _, l := range g.Loads {
		fmt.Fprintf(h, "load=%v\n", l)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
