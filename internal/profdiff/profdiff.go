// Package profdiff is the cross-run comparison engine: it aligns two
// archived performance profiles (profstore.Record) structurally — phase
// summaries by (type path, machine), bottlenecks by (type path, resource,
// kind), issues by (kind, target) — computes the deltas, classifies the run
// pair as improved/regressed/neutral against a configurable makespan
// threshold, and localizes the dominant regression to a leaf phase-type
// path and the resource whose evidence (blocking, bottleneck time,
// attributed consumption) grew the most.
//
// Everything is deterministic: records are built from the deterministic
// pipeline output, every ranking has a total order, and both renderings
// (text and JSON) are byte-identical across -parallelism settings.
package profdiff

import (
	"fmt"
	"sort"

	"grade10/internal/explain"
	"grade10/internal/profstore"
)

// DefaultThreshold is the makespan fraction separating neutral from
// improved and regressed when the caller gives none.
const DefaultThreshold = 0.05

// Reporting floors and caps.
const (
	// minDeltaNS is the noise floor: common phase and bottleneck rows with a
	// smaller absolute delta are omitted from the ranked lists.
	minDeltaNS = 1_000_000
	// minIssueImpactDelta suppresses issue rows whose impact moved by less
	// than this fraction.
	minIssueImpactDelta = 0.01
	// maxPhaseRows caps the ranked phase table; the omitted count is
	// reported.
	maxPhaseRows = 24
)

// Verdict classifies a run pair.
type Verdict string

const (
	Improved  Verdict = "improved"
	Regressed Verdict = "regressed"
	Neutral   Verdict = "neutral"
)

// Row statuses for aligned elements.
const (
	StatusCommon      = "common"
	StatusAdded       = "added"
	StatusRemoved     = "removed"
	StatusAppeared    = "appeared"
	StatusDisappeared = "disappeared"
	StatusChanged     = "changed"
)

// RunRef identifies one side of the diff.
type RunRef struct {
	ID         string `json:"id"`
	Label      string `json:"label,omitempty"`
	Engine     string `json:"engine"`
	Job        string `json:"job"`
	Workers    int    `json:"workers"`
	MakespanNS int64  `json:"makespan_ns"`
}

// PhaseDelta compares one (type path, machine) phase summary across runs.
type PhaseDelta struct {
	TypePath string `json:"type_path"`
	Machine  int    `json:"machine"`
	Leaf     bool   `json:"leaf"`
	Status   string `json:"status"` // common | added | removed
	ACount   int    `json:"a_count"`
	BCount   int    `json:"b_count"`
	ATotalNS int64  `json:"a_total_ns"`
	BTotalNS int64  `json:"b_total_ns"`
	DeltaNS  int64  `json:"delta_ns"`
	// RelChange is DeltaNS over ATotalNS (0 for added phases).
	RelChange float64 `json:"rel_change"`
}

// BottleneckDelta compares one (type path, resource, kind) bottleneck row.
type BottleneckDelta struct {
	TypePath string `json:"type_path"`
	Resource string `json:"resource"`
	Kind     string `json:"kind"`
	Status   string `json:"status"` // appeared | disappeared | changed
	ATotalNS int64  `json:"a_total_ns"`
	BTotalNS int64  `json:"b_total_ns"`
	DeltaNS  int64  `json:"delta_ns"`
	// ExplainQuery is a ready-to-paste provenance query (grade10 -explain /
	// GET /explain) that derives this bottleneck's attributed time.
	ExplainQuery string `json:"explain_query"`
}

// IssueDelta compares one (kind, target) issue's estimated impact.
type IssueDelta struct {
	Kind        string  `json:"kind"`
	Target      string  `json:"target"`
	Status      string  `json:"status"` // appeared | disappeared | changed
	AImpact     float64 `json:"a_impact"`
	BImpact     float64 `json:"b_impact"`
	DeltaImpact float64 `json:"delta_impact"`
}

// BenchDelta compares one wall-clock bench stage configuration. Host
// dependent — reported for trajectory reading, never part of the verdict.
type BenchDelta struct {
	Stage    string  `json:"stage"`
	Config   string  `json:"config"`
	ANsPerOp float64 `json:"a_ns_per_op"`
	BNsPerOp float64 `json:"b_ns_per_op"`
	Ratio    float64 `json:"ratio"` // b/a; >1 is slower
}

// Localization names the leaf phase-type path and resource that explain the
// largest makespan movement, with the per-resource evidence that picked the
// resource (all in seconds; attribution normalized by resource capacity).
type Localization struct {
	TypePath string `json:"type_path"`
	Resource string `json:"resource"`
	// Machine is the hardest-hit machine for the phase type (-1 unbound).
	Machine   int     `json:"machine"`
	DeltaNS   int64   `json:"delta_ns"`
	RelChange float64 `json:"rel_change"`
	// Evidence components for Resource, in seconds (capacity-seconds for
	// the attribution term).
	BlockedDeltaSeconds    float64 `json:"blocked_delta_seconds"`
	BottleneckDeltaSeconds float64 `json:"bottleneck_delta_seconds"`
	AttributedDeltaCapSec  float64 `json:"attributed_delta_cap_seconds"`
	// ExplainQuery is a ready-to-paste provenance query (grade10 -explain /
	// GET /explain) that derives the blamed cell on either run.
	ExplainQuery string `json:"explain_query"`
}

// Report is the full structural diff of two archived runs.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	A             RunRef `json:"a"`
	B             RunRef `json:"b"`

	Verdict           Verdict `json:"verdict"`
	MakespanDeltaNS   int64   `json:"makespan_delta_ns"`
	MakespanRelChange float64 `json:"makespan_rel_change"`
	RegressThreshold  float64 `json:"regress_threshold"`
	ImproveThreshold  float64 `json:"improve_threshold"`

	// Notes flags structural caveats (different engines, jobs, ...).
	Notes []string `json:"notes,omitempty"`

	// TopRegression / TopImprovement localize the dominant movements; nil
	// when no leaf phase moved in that direction.
	TopRegression  *Localization `json:"top_regression,omitempty"`
	TopImprovement *Localization `json:"top_improvement,omitempty"`

	// Phases ranked by |delta| (descending); rows below the noise floor
	// (minDeltaNS) are dropped and counted in PhasesOmitted.
	Phases        []PhaseDelta `json:"phases"`
	PhasesOmitted int          `json:"phases_omitted"`

	Bottlenecks []BottleneckDelta `json:"bottlenecks"`
	Issues      []IssueDelta      `json:"issues"`
	Bench       []BenchDelta      `json:"bench,omitempty"`
}

// Diff aligns and compares two records. The pair is regressed when the
// makespan grows by more than threshold (a fraction) and improved when it
// shrinks by more than threshold; a zero threshold takes DefaultThreshold.
func Diff(a, b *profstore.Record, threshold float64) (*Report, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("profdiff: nil record")
	}
	if threshold == 0 {
		threshold = DefaultThreshold
	}
	rep := &Report{
		SchemaVersion:    profstore.Version,
		A:                runRef(a),
		B:                runRef(b),
		RegressThreshold: threshold,
		ImproveThreshold: threshold,
	}
	if a.Engine != b.Engine {
		rep.Notes = append(rep.Notes, fmt.Sprintf("engines differ: %s vs %s", a.Engine, b.Engine))
	}
	if a.Job != b.Job {
		rep.Notes = append(rep.Notes, fmt.Sprintf("jobs differ: %s vs %s", a.Job, b.Job))
	}
	if a.Workers != b.Workers {
		rep.Notes = append(rep.Notes, fmt.Sprintf("worker counts differ: %d vs %d", a.Workers, b.Workers))
	}

	rep.MakespanDeltaNS = b.MakespanNS - a.MakespanNS
	rep.MakespanRelChange = safeRel(a.MakespanNS, b.MakespanNS)
	switch {
	case rep.MakespanRelChange > threshold:
		rep.Verdict = Regressed
	case rep.MakespanRelChange < -threshold:
		rep.Verdict = Improved
	default:
		rep.Verdict = Neutral
	}

	phases := diffPhases(a, b)
	rep.TopRegression = localize(a, b, phases, +1)
	rep.TopImprovement = localize(a, b, phases, -1)
	rep.Phases, rep.PhasesOmitted = rankPhases(phases)
	rep.Bottlenecks = diffBottlenecks(a, b)
	rep.Issues = diffIssues(a, b)
	rep.Bench = diffBench(a, b)
	return rep, nil
}

func runRef(r *profstore.Record) RunRef {
	return RunRef{ID: r.ID, Label: r.Label, Engine: r.Engine, Job: r.Job,
		Workers: r.Workers, MakespanNS: r.MakespanNS}
}

// safeRel returns (b-a)/a, or 0 when a is 0 (no baseline to compare).
func safeRel(a, b int64) float64 {
	if a == 0 {
		return 0
	}
	return float64(b-a) / float64(a)
}

type phaseKey struct {
	tp      string
	machine int
}

// diffPhases aligns phase summaries by (type path, machine) and produces
// one delta row per key present in either run.
func diffPhases(a, b *profstore.Record) []PhaseDelta {
	index := func(r *profstore.Record) map[phaseKey]*profstore.PhaseSummary {
		m := make(map[phaseKey]*profstore.PhaseSummary, len(r.Phases))
		for i := range r.Phases {
			ps := &r.Phases[i]
			m[phaseKey{ps.TypePath, ps.Machine}] = ps
		}
		return m
	}
	am, bm := index(a), index(b)
	keys := make([]phaseKey, 0, len(am)+len(bm))
	for k := range am {
		keys = append(keys, k)
	}
	for k := range bm {
		if _, ok := am[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].tp != keys[j].tp {
			return keys[i].tp < keys[j].tp
		}
		return keys[i].machine < keys[j].machine
	})

	out := make([]PhaseDelta, 0, len(keys))
	for _, k := range keys {
		pa, inA := am[k]
		pb, inB := bm[k]
		d := PhaseDelta{TypePath: k.tp, Machine: k.machine}
		switch {
		case inA && inB:
			d.Status = StatusCommon
			d.Leaf = pa.Leaf || pb.Leaf
			d.ACount, d.BCount = pa.Count, pb.Count
			d.ATotalNS, d.BTotalNS = pa.TotalNS, pb.TotalNS
		case inA:
			d.Status = StatusRemoved
			d.Leaf = pa.Leaf
			d.ACount, d.ATotalNS = pa.Count, pa.TotalNS
		default:
			d.Status = StatusAdded
			d.Leaf = pb.Leaf
			d.BCount, d.BTotalNS = pb.Count, pb.TotalNS
		}
		d.DeltaNS = d.BTotalNS - d.ATotalNS
		d.RelChange = safeRel(d.ATotalNS, d.BTotalNS)
		out = append(out, d)
	}
	return out
}

// rankPhases orders rows by descending |delta| (ties broken by type path
// then machine), drops common rows under the noise floor, and caps the list.
func rankPhases(all []PhaseDelta) (rows []PhaseDelta, omitted int) {
	kept := make([]PhaseDelta, 0, len(all))
	for _, d := range all {
		if d.Status == StatusCommon && abs64(d.DeltaNS) < minDeltaNS {
			omitted++
			continue
		}
		kept = append(kept, d)
	}
	sort.SliceStable(kept, func(i, j int) bool {
		ai, aj := abs64(kept[i].DeltaNS), abs64(kept[j].DeltaNS)
		if ai != aj {
			return ai > aj
		}
		if kept[i].TypePath != kept[j].TypePath {
			return kept[i].TypePath < kept[j].TypePath
		}
		return kept[i].Machine < kept[j].Machine
	})
	if len(kept) > maxPhaseRows {
		omitted += len(kept) - maxPhaseRows
		kept = kept[:maxPhaseRows]
	}
	return kept, omitted
}

// localize finds the leaf phase type whose total duration moved the most in
// the given direction (+1 regression, -1 improvement), then blames the
// resource with the largest same-direction evidence: blocking-time delta,
// bottleneck-time delta, and capacity-normalized attributed-consumption
// delta, all in seconds. Returns nil when no leaf moved that way.
func localize(a, b *profstore.Record, phases []PhaseDelta, dir int64) *Localization {
	// Aggregate leaf deltas across machines per type path, remembering the
	// hardest-hit machine.
	type agg struct {
		delta      int64
		aTotal     int64
		worstM     int
		worstDelta int64
	}
	byTP := map[string]*agg{}
	order := []string{}
	for _, d := range phases {
		if !d.Leaf {
			continue
		}
		g, ok := byTP[d.TypePath]
		if !ok {
			g = &agg{worstM: d.Machine, worstDelta: d.DeltaNS}
			byTP[d.TypePath] = g
			order = append(order, d.TypePath)
		}
		g.delta += d.DeltaNS
		g.aTotal += d.ATotalNS
		if d.DeltaNS*dir > g.worstDelta*dir {
			g.worstM, g.worstDelta = d.Machine, d.DeltaNS
		}
	}
	best := ""
	for _, tp := range order {
		if byTP[tp].delta*dir <= 0 {
			continue
		}
		if best == "" || byTP[tp].delta*dir > byTP[best].delta*dir ||
			(byTP[tp].delta == byTP[best].delta && tp < best) {
			best = tp
		}
	}
	if best == "" {
		return nil
	}
	g := byTP[best]
	loc := &Localization{TypePath: best, Machine: g.worstM, DeltaNS: g.delta,
		RelChange: safeRel(g.aTotal, g.aTotal+g.delta)}
	loc.Resource, loc.BlockedDeltaSeconds, loc.BottleneckDeltaSeconds,
		loc.AttributedDeltaCapSec = blameResource(a, b, best, dir)
	loc.ExplainQuery = explainQuery(loc.TypePath, loc.Resource)
	return loc
}

// blameResource scores every resource touching the phase type and returns
// the one with the largest same-direction evidence, with its components.
func blameResource(a, b *profstore.Record, tp string, dir int64) (res string, blocked, btl, attr float64) {
	fdir := float64(dir)
	blockedDelta := map[string]float64{}
	addBlocked := func(r *profstore.Record, sign float64) {
		for i := range r.Phases {
			ps := &r.Phases[i]
			if ps.TypePath != tp {
				continue
			}
			for res, ns := range ps.BlockedNS {
				blockedDelta[res] += sign * float64(ns) / 1e9
			}
		}
	}
	addBlocked(b, 1)
	addBlocked(a, -1)

	btlDelta := map[string]float64{}
	addBtl := func(rows []profstore.BottleneckSummary, sign float64) {
		for _, row := range rows {
			if row.TypePath == tp {
				btlDelta[row.Resource] += sign * float64(row.TotalNS) / 1e9
			}
		}
	}
	addBtl(b.Bottlenecks, 1)
	addBtl(a.Bottlenecks, -1)

	// Capacity per resource (for unit·s → capacity·s normalization), taken
	// from whichever record knows the resource.
	capacity := map[string]float64{}
	for _, r := range [][]profstore.ResourceSummary{b.Resources, a.Resources} {
		for _, rs := range r {
			if _, ok := capacity[rs.Resource]; !ok && rs.Capacity > 0 {
				capacity[rs.Resource] = rs.Capacity
			}
		}
	}
	attrDelta := map[string]float64{}
	addAttr := func(cells []profstore.AttributionCell, sign float64) {
		for _, c := range cells {
			if c.TypePath != tp {
				continue
			}
			units := c.UnitSeconds
			if cap := capacity[c.Resource]; cap > 0 {
				units /= cap
			}
			attrDelta[c.Resource] += sign * units
		}
	}
	addAttr(b.Attribution, 1)
	addAttr(a.Attribution, -1)

	resources := map[string]bool{}
	for r := range blockedDelta {
		resources[r] = true
	}
	for r := range btlDelta {
		resources[r] = true
	}
	for r := range attrDelta {
		resources[r] = true
	}
	names := make([]string, 0, len(resources))
	for r := range resources {
		names = append(names, r)
	}
	sort.Strings(names)

	bestScore := 0.0
	for _, r := range names {
		score := max0(fdir*blockedDelta[r]) + max0(fdir*btlDelta[r]) + max0(fdir*attrDelta[r])
		if score > bestScore {
			bestScore = score
			res = r
		}
	}
	if res == "" {
		return "", 0, 0, 0
	}
	return res, blockedDelta[res], btlDelta[res], attrDelta[res]
}

func diffBottlenecks(a, b *profstore.Record) []BottleneckDelta {
	type key struct{ tp, res, kind string }
	index := func(rows []profstore.BottleneckSummary) map[key]profstore.BottleneckSummary {
		m := make(map[key]profstore.BottleneckSummary, len(rows))
		for _, row := range rows {
			m[key{row.TypePath, row.Resource, row.Kind}] = row
		}
		return m
	}
	am, bm := index(a.Bottlenecks), index(b.Bottlenecks)
	keys := map[key]bool{}
	for k := range am {
		keys[k] = true
	}
	for k := range bm {
		keys[k] = true
	}
	out := make([]BottleneckDelta, 0, len(keys))
	for k := range keys {
		ra, inA := am[k]
		rb, inB := bm[k]
		d := BottleneckDelta{TypePath: k.tp, Resource: k.res, Kind: k.kind,
			ATotalNS: ra.TotalNS, BTotalNS: rb.TotalNS,
			ExplainQuery: explainQuery(k.tp, k.res)}
		d.DeltaNS = d.BTotalNS - d.ATotalNS
		switch {
		case inA && inB:
			d.Status = StatusChanged
			if abs64(d.DeltaNS) < minDeltaNS {
				continue
			}
		case inB:
			d.Status = StatusAppeared
		default:
			d.Status = StatusDisappeared
		}
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool {
		ai, aj := abs64(out[i].DeltaNS), abs64(out[j].DeltaNS)
		if ai != aj {
			return ai > aj
		}
		if out[i].TypePath != out[j].TypePath {
			return out[i].TypePath < out[j].TypePath
		}
		if out[i].Resource != out[j].Resource {
			return out[i].Resource < out[j].Resource
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

func diffIssues(a, b *profstore.Record) []IssueDelta {
	type key struct{ kind, target string }
	index := func(rows []profstore.IssueSummary) map[key]profstore.IssueSummary {
		m := make(map[key]profstore.IssueSummary, len(rows))
		for _, row := range rows {
			m[key{row.Kind, row.Target}] = row
		}
		return m
	}
	am, bm := index(a.Issues), index(b.Issues)
	keys := map[key]bool{}
	for k := range am {
		keys[k] = true
	}
	for k := range bm {
		keys[k] = true
	}
	out := make([]IssueDelta, 0, len(keys))
	for k := range keys {
		ia, inA := am[k]
		ib, inB := bm[k]
		d := IssueDelta{Kind: k.kind, Target: k.target,
			AImpact: ia.Impact, BImpact: ib.Impact}
		d.DeltaImpact = d.BImpact - d.AImpact
		switch {
		case inA && inB:
			d.Status = StatusChanged
			if absf(d.DeltaImpact) < minIssueImpactDelta {
				continue
			}
		case inB:
			d.Status = StatusAppeared
		default:
			d.Status = StatusDisappeared
		}
		out = append(out, d)
	}
	sort.SliceStable(out, func(i, j int) bool {
		ai, aj := absf(out[i].DeltaImpact), absf(out[j].DeltaImpact)
		if ai != aj {
			return ai > aj
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		return out[i].Target < out[j].Target
	})
	return out
}

func diffBench(a, b *profstore.Record) []BenchDelta {
	if len(a.Bench) == 0 || len(b.Bench) == 0 {
		return nil
	}
	index := func(stages []profstore.BenchStage) map[string]profstore.BenchStage {
		m := make(map[string]profstore.BenchStage, len(stages))
		for _, s := range stages {
			m[s.Name] = s
		}
		return m
	}
	bm := index(b.Bench)
	var out []BenchDelta
	for _, sa := range a.Bench {
		sb, ok := bm[sa.Name]
		if !ok {
			continue
		}
		cfgs := make([]string, 0, len(sa.NsPerOp))
		for c := range sa.NsPerOp {
			if _, ok := sb.NsPerOp[c]; ok {
				cfgs = append(cfgs, c)
			}
		}
		sort.Strings(cfgs)
		for _, c := range cfgs {
			d := BenchDelta{Stage: sa.Name, Config: c,
				ANsPerOp: sa.NsPerOp[c], BNsPerOp: sb.NsPerOp[c]}
			if d.ANsPerOp > 0 {
				d.Ratio = d.BNsPerOp / d.ANsPerOp
			}
			out = append(out, d)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Config < out[j].Config
	})
	return out
}

// explainQuery renders the canonical provenance query for a (type path,
// resource) pair, ready to paste into `grade10 -explain` or GET /explain on
// either run of the pair.
func explainQuery(typePath, resource string) string {
	q := explain.Query{Phase: typePath, Resource: resource}
	return q.String()
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func max0(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}
