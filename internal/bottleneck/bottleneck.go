// Package bottleneck implements Grade10's resource-bottleneck identification
// (§III-E of the paper). Three bottleneck classes are detected:
//
//   - Blocking: a phase stalled on a blocking resource (GC, message queue,
//     barrier) — read directly from the blocking events in the trace.
//   - Saturation: a consumable resource at full utilization; every phase
//     consuming it during those timeslices is bottlenecked.
//   - ExactLimit: a phase pinned at its own Exact demand while the resource
//     still has headroom — the paper's "least understood" case, where a
//     configuration cap (e.g. a thread limited to one core) is the limiter.
package bottleneck

import (
	"cmp"
	"slices"
	"sort"
	"strings"

	"grade10/internal/attribution"
	"grade10/internal/core"
	"grade10/internal/vtime"
)

// Kind classifies a bottleneck.
type Kind int

const (
	// Blocking: stalled on a blocking resource.
	Blocking Kind = iota
	// Saturation: competing for a fully-utilized consumable resource.
	Saturation
	// ExactLimit: pinned at the phase's own Exact demand below saturation.
	ExactLimit
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Blocking:
		return "blocking"
	case Saturation:
		return "saturation"
	case ExactLimit:
		return "exact-limit"
	default:
		return "unknown"
	}
}

// SaturationThreshold is the utilization fraction of capacity at or above
// which a consumable resource counts as saturated (§III-E), and the
// threshold internal/explain flags saturated cells against.
const SaturationThreshold = 0.99

// ExactTolerance is the fraction of a phase's Exact demand that must be
// attributed to it for the phase to count as pinned.
const ExactTolerance = 0.95

// PhaseBottleneck records one (phase, resource) bottleneck.
type PhaseBottleneck struct {
	Phase *core.Phase
	// Resource is the resource name; Machine the instance (GlobalMachine for
	// blocking and global resources).
	Resource string
	Machine  int
	Kind     Kind
	// Time is the total bottlenecked duration within the phase.
	Time vtime.Duration
	// Slices lists the affected timeslices (consumable kinds only).
	Slices []int
	// Intervals, EvStart and EvEnd summarize the triggering evidence: the
	// number of contiguous evidence intervals (stalls for Blocking, slice
	// runs for consumable kinds) and the virtual-time bounds of the first
	// and last of them. Explain queries over [EvStart, EvEnd) reproduce the
	// verdict's inputs.
	Intervals int
	EvStart   vtime.Time
	EvEnd     vtime.Time
}

// Row aggregates the bottlenecks of one (phase type, resource, kind): the
// one table the text report, the archive record, the live fold and the issue
// detectors read.
type Row struct {
	TypePath string
	Resource string
	Kind     Kind
	// Phases counts the bottlenecked phases; Time sums their bottlenecked
	// durations.
	Phases int
	Time   vtime.Duration
	// Intervals, EvStart and EvEnd summarize the evidence across the phases:
	// the total evidence interval count and the bounds of the earliest and
	// latest.
	Intervals int
	EvStart   vtime.Time
	EvEnd     vtime.Time
}

// Report is the detection result.
type Report struct {
	// Bottlenecks, sorted by phase path then resource then kind.
	Bottlenecks []*PhaseBottleneck
	// Rows aggregates Bottlenecks by (type path, resource, kind), ordered by
	// Time descending, then type path, resource and kind.
	Rows []Row
	// Saturated maps a resource instance key to its saturated slice indices.
	Saturated map[string][]int

	byPhase map[*core.Phase][]*PhaseBottleneck
}

// ForPhase returns the bottlenecks of one phase.
func (r *Report) ForPhase(p *core.Phase) []*PhaseBottleneck { return r.byPhase[p] }

// Detect runs all three detectors over an attribution profile: a whole run
// (grade10.Characterize) or one live window (attribution.AttributeWindow)
// alike. No bottleneck has zero time.
func Detect(prof *attribution.Profile) *Report {
	rep := &Report{Saturated: map[string][]int{}, byPhase: map[*core.Phase][]*PhaseBottleneck{}}

	detectBlocking(prof, rep)
	detectConsumable(prof, rep)

	// Order by phase path, then resource and kind. A phase has one
	// bottleneck per (resource, kind), so the key is unique: sorting the
	// distinct phases and then each phase's few entries gives the total
	// order without comparing paths across every pair of bottlenecks.
	phases := make([]*core.Phase, 0, len(rep.byPhase))
	for p := range rep.byPhase {
		phases = append(phases, p)
	}
	slices.SortFunc(phases, func(a, b *core.Phase) int { return strings.Compare(a.Path, b.Path) })
	out := rep.Bottlenecks[:0]
	for _, p := range phases {
		bs := rep.byPhase[p]
		slices.SortFunc(bs, func(a, b *PhaseBottleneck) int {
			if c := strings.Compare(a.Resource, b.Resource); c != 0 {
				return c
			}
			return cmp.Compare(a.Kind, b.Kind)
		})
		out = append(out, bs...)
	}
	rep.Bottlenecks = out
	rep.Rows = aggregate(rep.Bottlenecks)
	return rep
}

// add records one bottleneck.
func (rep *Report) add(b *PhaseBottleneck) {
	rep.Bottlenecks = append(rep.Bottlenecks, b)
	rep.byPhase[b.Phase] = append(rep.byPhase[b.Phase], b)
}

// aggregate groups per-phase bottlenecks into rows, in the Rows order.
func aggregate(bs []*PhaseBottleneck) []Row {
	type key struct {
		tp, res string
		kind    Kind
	}
	index := map[key]int{}
	var rows []Row
	for _, b := range bs {
		k := key{b.Phase.Type.Path(), b.Resource, b.Kind}
		i, ok := index[k]
		if !ok {
			i = len(rows)
			index[k] = i
			rows = append(rows, Row{TypePath: k.tp, Resource: k.res, Kind: k.kind})
		}
		r := &rows[i]
		r.Phases++
		r.Time += b.Time
		r.Intervals += b.Intervals
		if b.EvEnd > b.EvStart {
			if r.EvEnd <= r.EvStart || b.EvStart < r.EvStart {
				r.EvStart = b.EvStart
			}
			if b.EvEnd > r.EvEnd {
				r.EvEnd = b.EvEnd
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.Time != b.Time {
			return a.Time > b.Time
		}
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Kind < b.Kind
	})
	return rows
}

// detectBlocking turns blocking events into bottlenecks: any time a phase is
// blocked, the blocking resource delays it (§III-E). A phase's own stalls
// count, clipped to the profile's slice span, so a live window charges a
// stall to the windows it overlaps and a whole run charges all of it.
func detectBlocking(prof *attribution.Profile, rep *Report) {
	w0, w1 := prof.Slices.Start, prof.Slices.End
	var names []string // one phase's distinct stall resources, reused
	prof.Trace.Root.Walk(func(p *core.Phase) {
		if p == prof.Trace.Root || len(p.Blocked) == 0 {
			return
		}
		names = names[:0]
		for _, b := range p.Blocked {
			if !slices.Contains(names, b.Resource) {
				names = append(names, b.Resource)
			}
		}
		slices.Sort(names)
		for _, name := range names {
			t := p.BlockedTime(name, w0, w1)
			if t <= 0 {
				continue
			}
			b := &PhaseBottleneck{
				Phase: p, Resource: name, Machine: core.GlobalMachine,
				Kind: Blocking, Time: t,
			}
			b.Intervals, b.EvStart, b.EvEnd = stallEvidence(p, name, w0, w1)
			rep.add(b)
		}
	})
}

// stallEvidence counts the phase's stall intervals on one resource clipped
// to [t0, t1) and returns the time bounds of the first and last of them.
func stallEvidence(p *core.Phase, resource string, t0, t1 vtime.Time) (n int, start, end vtime.Time) {
	for _, b := range p.Blocked {
		if b.Resource != resource {
			continue
		}
		s, e := vtime.Max(b.Start, t0), vtime.Min(b.End, t1)
		if e <= s {
			continue
		}
		if n == 0 || s < start {
			start = s
		}
		if e > end {
			end = e
		}
		n++
	}
	return n, start, end
}

// sliceEvidence summarizes a sorted evidence-slice list: the number of
// contiguous slice runs and the virtual-time bounds of the whole set.
func sliceEvidence(slices core.Timeslices, ks []int) (runs int, start, end vtime.Time) {
	if len(ks) == 0 {
		return 0, 0, 0
	}
	start, _ = slices.Bounds(ks[0])
	_, end = slices.Bounds(ks[len(ks)-1])
	runs = 1
	for i := 1; i < len(ks); i++ {
		if ks[i] != ks[i-1]+1 {
			runs++
		}
	}
	return runs, start, end
}

// detectConsumable finds saturation and exact-limit bottlenecks from the
// upsampled per-slice consumption and per-phase attribution. A phase's
// activity comes from its usage row of the profile's activity table.
func detectConsumable(prof *attribution.Profile, rep *Report) {
	ts := prof.Slices
	var rules core.RuleMemo
	for _, ip := range prof.Instances {
		capacity := ip.Instance.Resource.Capacity
		satLevel := SaturationThreshold * capacity

		var saturated []int
		for k := 0; k < ts.Count; k++ {
			if ip.Consumption[k] >= satLevel {
				saturated = append(saturated, k)
			}
		}
		if len(saturated) > 0 {
			rep.Saturated[ip.Instance.Key()] = saturated
		}

		rules.Reset()
		for _, usage := range ip.Usage {
			rule := rules.Get(prof.Rules, usage.Phase.Type, ip.Instance.Resource.Name)
			var satSlices, exactSlices []int
			var satTime, exactTime vtime.Duration
			for i, rate := range usage.Rates {
				k := usage.First + i
				if rate <= 0 {
					continue
				}
				active := usage.Active[i]
				if active <= 0 {
					continue
				}
				if ip.Consumption[k] >= satLevel {
					satSlices = append(satSlices, k)
					satTime += active
					continue
				}
				if rule.Kind == core.RuleExact {
					t0, t1 := ts.Bounds(k)
					demand := rule.Amount * (active.Seconds() / t1.Sub(t0).Seconds())
					if demand > 0 && rate >= ExactTolerance*demand {
						exactSlices = append(exactSlices, k)
						exactTime += active
					}
				}
			}
			if len(satSlices) > 0 {
				b := &PhaseBottleneck{
					Phase: usage.Phase, Resource: ip.Instance.Resource.Name,
					Machine: ip.Instance.Machine, Kind: Saturation,
					Time: satTime, Slices: satSlices,
				}
				b.Intervals, b.EvStart, b.EvEnd = sliceEvidence(ts, satSlices)
				rep.add(b)
			}
			if len(exactSlices) > 0 {
				b := &PhaseBottleneck{
					Phase: usage.Phase, Resource: ip.Instance.Resource.Name,
					Machine: ip.Instance.Machine, Kind: ExactLimit,
					Time: exactTime, Slices: exactSlices,
				}
				b.Intervals, b.EvStart, b.EvEnd = sliceEvidence(ts, exactSlices)
				rep.add(b)
			}
		}
	}
}
