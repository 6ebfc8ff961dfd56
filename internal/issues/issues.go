package issues

import (
	"fmt"
	"sort"

	"grade10/internal/attribution"
	"grade10/internal/bottleneck"
	"grade10/internal/core"
	"grade10/internal/obs"
	"grade10/internal/par"
	"grade10/internal/vtime"
)

// IssueKind classifies detected performance issues.
type IssueKind int

const (
	// BottleneckImpact estimates the makespan gain from removing every
	// bottleneck on one resource.
	BottleneckImpact IssueKind = iota
	// ImbalanceImpact estimates the gain from perfectly balancing concurrent
	// phases of one type.
	ImbalanceImpact
)

// String implements fmt.Stringer.
func (k IssueKind) String() string {
	switch k {
	case BottleneckImpact:
		return "bottleneck"
	case ImbalanceImpact:
		return "imbalance"
	default:
		return "unknown"
	}
}

// Issue is one detected performance issue with its estimated impact.
type Issue struct {
	Kind IssueKind
	// Resource is set for BottleneckImpact.
	Resource string
	// PhaseType is set for ImbalanceImpact.
	PhaseType string
	// Original is the replayed makespan of the recorded trace; Optimistic
	// the makespan with the issue hypothetically fixed.
	Original   vtime.Duration
	Optimistic vtime.Duration
	// Impact is 1 − Optimistic/Original: the paper's upper bound on the
	// achievable makespan reduction.
	Impact float64
	// Trail is the replay-delta evidence: which leaf phase types had their
	// hypothetical durations changed by the what-if replay behind this
	// issue, aggregated per type, largest savings first (capped at
	// maxTrailEntries).
	Trail []TrailEntry
}

// TrailEntry aggregates the replay deltas of one leaf phase type.
type TrailEntry struct {
	// TypePath identifies the leaf phase type.
	TypePath string
	// Phases counts the phase instances whose duration the what-if replay
	// changed.
	Phases int
	// DeltaNS is the summed duration change in virtual nanoseconds
	// (negative = the hypothesis shortens these phases).
	DeltaNS int64
}

// maxTrailEntries caps an issue's trail; the untruncated evidence is
// reachable through the explain engine.
const maxTrailEntries = 8

// Describe renders a one-line summary.
func (i Issue) Describe() string {
	switch i.Kind {
	case BottleneckImpact:
		return fmt.Sprintf("removing %s bottlenecks could reduce makespan by up to %.1f%% (%v → %v)",
			i.Resource, i.Impact*100, i.Original, i.Optimistic)
	case ImbalanceImpact:
		return fmt.Sprintf("balancing %s phases could reduce makespan by up to %.1f%% (%v → %v)",
			i.PhaseType, i.Impact*100, i.Original, i.Optimistic)
	default:
		return "unknown issue"
	}
}

// Outlier is a straggler within a set of same-worker sibling phases: the
// §IV-D signature that exposed PowerGraph's synchronization bug.
type Outlier struct {
	// Phase is the straggling phase.
	Phase *core.Phase
	// Ratio is the phase duration over the mean of its siblings.
	Ratio float64
	// StepSlowdown is the concurrency group's max duration over the max
	// duration excluding outliers: how much the whole step is delayed.
	StepSlowdown float64
}

// Detection thresholds (§III-F).
const (
	// MinImpact suppresses issues below this makespan fraction.
	MinImpact = 0.01
	// OutlierFactor: a phase is an outlier if it exceeds the mean of its
	// same-parent siblings by this factor.
	OutlierFactor = 2.0
	// BottleneckFloor is the minimum per-slice time fraction left after
	// removing a bottleneck (the next-limiting-resource estimate cannot
	// shrink a slice below this).
	BottleneckFloor = 0.05
	// UnderutilizationThreshold is the utilization fraction below which an
	// active slice counts as underutilized.
	UnderutilizationThreshold = 0.5
)

// Config tunes issue detection.
type Config struct {
	// MinOutlierGroupDuration ignores groups whose longest member is shorter
	// than this (the paper analyzes "non-trivial processing steps" >1s).
	// Default 1s.
	MinOutlierGroupDuration vtime.Duration
	// Parallelism is the worker count for the per-candidate replay
	// simulations (one replay per bottleneck-removal or imbalance
	// hypothesis). 0 takes par.Default(); 1 runs serially. The report is
	// identical for every value.
	Parallelism int
	// Tracer receives one self-trace span per candidate replay. Nil
	// disables tracing at zero cost.
	Tracer *obs.Tracer
}

func (c *Config) fill() {
	if c.MinOutlierGroupDuration == 0 {
		c.MinOutlierGroupDuration = vtime.Second
	}
}

// Report is the issue-detection result.
type Report struct {
	// Issues sorted by descending impact.
	Issues []Issue
	// Outliers sorted by descending step slowdown.
	Outliers []Outlier
	// Underutilization summarizes slices where work ran without pressuring
	// any resource.
	Underutilization Underutilization
	// Burstiness per resource instance, sorted by descending variability.
	Burstiness []Burstiness
	// Original is the replayed makespan of the unmodified trace.
	Original vtime.Duration
}

// Analyze runs all §III-F detectors: per-resource bottleneck removal,
// per-type imbalance, and straggler detection. The candidate-issue replays
// are independent of each other — each perturbs its own Durations copy and
// re-simulates the trace — so they run on cfg.Parallelism workers; results
// land in a pre-sized slice indexed by candidate and are filtered in order,
// keeping the report identical to a serial run.
func Analyze(prof *attribution.Profile, btl *bottleneck.Report, cfg Config) *Report {
	tr := prof.Trace
	leaves := tr.Leaves()
	rep := &Report{Original: Replay(tr, nil)}

	groups := Groups(tr)
	resources := bottleneckResources(prof, btl)
	typePaths := groupTypePaths(groups)

	type candidate struct {
		kind IssueKind
		name string // resource or type path
	}
	cands := make([]candidate, 0, len(resources)+len(typePaths))
	for _, res := range resources {
		cands = append(cands, candidate{BottleneckImpact, res})
	}
	for _, tp := range typePaths {
		cands = append(cands, candidate{ImbalanceImpact, tp})
	}

	results := make([]Issue, len(cands))
	par.DoWithWorker(len(cands), cfg.Parallelism, func(worker, i int) {
		c := cands[i]
		span := cfg.Tracer.StartSpan("issue-replay", worker)
		if cfg.Tracer.Enabled() {
			span.SetDetail(c.kind.String() + ":" + c.name)
		}
		issue := Issue{Kind: c.kind, Original: rep.Original}
		var durs Durations
		switch c.kind {
		case BottleneckImpact:
			issue.Resource = c.name
			durs = removeBottleneck(prof, btl, leaves, c.name)
		case ImbalanceImpact:
			issue.PhaseType = c.name
			durs = balanceType(groups, c.name)
		}
		issue.Optimistic = Replay(tr, durs)
		issue.Impact = impact(rep.Original, issue.Optimistic)
		issue.Trail = trailOf(durs)
		results[i] = issue
		span.End()
	})
	rep.Issues = make([]Issue, 0, len(results))
	for _, issue := range results {
		if issue.Impact >= MinImpact {
			rep.Issues = append(rep.Issues, issue)
		}
	}

	rep.Outliers = DetectOutliers(tr, cfg)
	rep.Underutilization = DetectUnderutilization(prof)
	rep.Burstiness = DetectBurstiness(prof)

	sort.Slice(rep.Issues, func(i, j int) bool { return rep.Issues[i].Impact > rep.Issues[j].Impact })
	return rep
}

// trailOf aggregates a what-if replay's duration deltas per leaf phase
// type: the evidence of which work the hypothesis actually shortened.
// Deterministic: sorted by delta ascending (largest savings first), then
// type path, and capped at maxTrailEntries.
func trailOf(durs Durations) []TrailEntry {
	byType := map[string]*TrailEntry{}
	for leaf, newDur := range durs {
		tp := "(untyped)"
		if leaf.Type != nil {
			tp = leaf.Type.Path()
		}
		e := byType[tp]
		if e == nil {
			e = &TrailEntry{TypePath: tp}
			byType[tp] = e
		}
		e.Phases++
		e.DeltaNS += int64(newDur - Intrinsic(leaf))
	}
	out := make([]TrailEntry, 0, len(byType))
	for _, e := range byType {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].DeltaNS != out[j].DeltaNS {
			return out[i].DeltaNS < out[j].DeltaNS
		}
		return out[i].TypePath < out[j].TypePath
	})
	if len(out) > maxTrailEntries {
		out = out[:maxTrailEntries]
	}
	return out
}

func impact(orig, opt vtime.Duration) float64 {
	if orig <= 0 {
		return 0
	}
	f := 1 - float64(opt)/float64(orig)
	if f < 0 {
		return 0
	}
	return f
}

// bottleneckResources lists resource names with at least one bottleneck,
// sorted.
func bottleneckResources(prof *attribution.Profile, btl *bottleneck.Report) []string {
	seen := map[string]bool{}
	for _, b := range btl.Bottlenecks {
		seen[b.Resource] = true
	}
	out := make([]string, 0, len(seen))
	for r := range seen {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}

// removeBottleneck computes optimistic leaf durations with all bottlenecks
// on resource res eliminated: blocking time on res vanishes, and slices
// where the phase was bottlenecked on res shrink to what the next-limiting
// resource allows (§III-F, "how much shorter a phase could become until
// another resource becomes bottlenecked").
func removeBottleneck(prof *attribution.Profile, btl *bottleneck.Report,
	leaves []*core.Phase, res string) Durations {
	durs := Durations{}
	slices := prof.Slices
	for _, leaf := range leaves {
		newDur := Intrinsic(leaf)
		// Blocking bottlenecks on res disappear entirely — including stalls
		// inherited from ancestors (a GC pause logged on the worker phase
		// stalls every thread under it). Waits already stripped as elastic
		// must not be subtracted twice.
		removable := leaf.BlockedWithin(res, leaf.Start, leaf.End)
		if leaf.Type != nil && (leaf.Type.SyncGroup || leaf.Type.ElasticWaits) {
			removable -= leaf.BlockedTime(res)
		}
		if removable > 0 {
			newDur -= removable
		}
		// Consumable bottlenecks: shrink affected slices.
		for _, b := range btl.ForPhase(leaf) {
			if b.Resource != res || b.Kind == bottleneck.Blocking {
				continue
			}
			for _, k := range b.Slices {
				t0, t1 := slices.Bounds(k)
				active := leaf.ActiveTime(t0, t1)
				if active <= 0 {
					continue
				}
				limit := nextLimit(prof, leaf, res, k)
				if limit < BottleneckFloor {
					limit = BottleneckFloor
				}
				saved := vtime.Duration(float64(active) * (1 - limit))
				newDur -= saved
			}
		}
		if newDur < 0 {
			newDur = 0
		}
		if newDur != Intrinsic(leaf) {
			durs[leaf] = newDur
		}
	}
	return durs
}

// nextLimit estimates, for a phase bottlenecked on res during slice k, the
// utilization fraction of the most-loaded *other* resource the phase uses in
// that slice — the fraction of the slice the phase would still need if res
// were infinitely fast.
func nextLimit(prof *attribution.Profile, leaf *core.Phase, res string, k int) float64 {
	maxUtil := 0.0
	for _, ip := range prof.Instances {
		if ip.Instance.Resource.Name == res {
			continue
		}
		if ip.Instance.Resource.PerMachine && ip.Instance.Machine != leaf.Machine {
			continue
		}
		rule := prof.Rules.Get(leaf.Type.Path(), ip.Instance.Resource.Name)
		if rule.Kind == core.RuleNone {
			continue
		}
		if u := ip.Consumption[k] / ip.Instance.Resource.Capacity; u > maxUtil {
			maxUtil = u
		}
	}
	if maxUtil > 1 {
		maxUtil = 1
	}
	return maxUtil
}

func groupTypePaths(groups []Group) []string {
	seen := map[string]bool{}
	var out []string
	for _, g := range groups {
		if len(g.Members) > 1 && !seen[g.TypePath] {
			seen[g.TypePath] = true
			out = append(out, g.TypePath)
		}
	}
	sort.Strings(out)
	return out
}

// balanceType sets every member of each concurrency group of the given type
// to the group's mean intrinsic duration, preserving total work (§III-F).
func balanceType(groups []Group, typePath string) Durations {
	durs := Durations{}
	for _, g := range groups {
		if g.TypePath != typePath || len(g.Members) < 2 {
			continue
		}
		var total vtime.Duration
		for _, m := range g.Members {
			total += Intrinsic(m)
		}
		mean := total / vtime.Duration(len(g.Members))
		for _, m := range g.Members {
			durs[m] = mean
		}
	}
	return durs
}

// DetectOutliers finds stragglers: members of a concurrency group whose
// duration exceeds OutlierFactor × the mean of their same-parent siblings
// (thread-level outliers within one worker, as in the paper's Figure 6).
// StepSlowdown compares the group maximum against the maximum with outliers
// excluded.
func DetectOutliers(tr *core.ExecutionTrace, cfg Config) []Outlier {
	cfg.fill()
	var out []Outlier
	for _, g := range Groups(tr) {
		if len(g.Members) < 2 || g.MaxDuration() < cfg.MinOutlierGroupDuration {
			continue
		}
		// Sub-group members by parent (per-worker threads).
		byParent := map[*core.Phase][]*core.Phase{}
		for _, m := range g.Members {
			byParent[m.Parent] = append(byParent[m.Parent], m)
		}
		var outliers []*core.Phase
		isOutlier := map[*core.Phase]bool{}
		for _, sibs := range byParent {
			if len(sibs) < 2 {
				continue
			}
			var total vtime.Duration
			for _, s := range sibs {
				total += s.Duration()
			}
			for _, s := range sibs {
				others := (total - s.Duration()) / vtime.Duration(len(sibs)-1)
				if others > 0 && float64(s.Duration()) > OutlierFactor*float64(others) {
					outliers = append(outliers, s)
					isOutlier[s] = true
				}
			}
		}
		if len(outliers) == 0 {
			continue
		}
		var maxAll, maxClean vtime.Duration
		for _, m := range g.Members {
			if d := m.Duration(); d > maxAll {
				maxAll = d
			}
			if !isOutlier[m] {
				if d := m.Duration(); d > maxClean {
					maxClean = d
				}
			}
		}
		slowdown := 1.0
		if maxClean > 0 {
			slowdown = float64(maxAll) / float64(maxClean)
		}
		for _, o := range outliers {
			var total vtime.Duration
			sibs := byParent[o.Parent]
			for _, s := range sibs {
				total += s.Duration()
			}
			mean := (total - o.Duration()) / vtime.Duration(len(sibs)-1)
			ratio := 0.0
			if mean > 0 {
				ratio = float64(o.Duration()) / float64(mean)
			}
			out = append(out, Outlier{
				Phase: o, Ratio: ratio, StepSlowdown: slowdown,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].StepSlowdown != out[j].StepSlowdown {
			return out[i].StepSlowdown > out[j].StepSlowdown
		}
		return out[i].Phase.Path < out[j].Phase.Path
	})
	return out
}
