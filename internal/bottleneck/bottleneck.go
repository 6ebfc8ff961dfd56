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
	"sort"

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

// Report is the detection result.
type Report struct {
	// Bottlenecks, sorted by phase path then resource then kind.
	Bottlenecks []*PhaseBottleneck
	// Saturated maps a resource instance key to its saturated slice indices.
	Saturated map[string][]int

	byPhase map[*core.Phase][]*PhaseBottleneck
}

// ForPhase returns the bottlenecks of one phase.
func (r *Report) ForPhase(p *core.Phase) []*PhaseBottleneck { return r.byPhase[p] }

// Detect runs all three detectors over an attribution profile.
func Detect(prof *attribution.Profile) *Report {
	return detect(prof, false)
}

// DetectWindow runs the same detectors over a window-scoped profile (one
// produced by attribution.AttributeWindow): blocking bottlenecks are clipped
// to the profile's slice span, so a stall is charged to the windows it
// overlaps rather than to the window that happens to contain the phase. The
// batch and streaming paths share this one implementation; Detect is the
// whole-run window.
func DetectWindow(prof *attribution.Profile) *Report {
	return detect(prof, true)
}

func detect(prof *attribution.Profile, windowed bool) *Report {
	rep := &Report{Saturated: map[string][]int{}, byPhase: map[*core.Phase][]*PhaseBottleneck{}}

	detectBlocking(prof, rep, windowed)
	detectConsumable(prof, rep)

	sort.Slice(rep.Bottlenecks, func(i, j int) bool {
		a, b := rep.Bottlenecks[i], rep.Bottlenecks[j]
		if a.Phase.Path != b.Phase.Path {
			return a.Phase.Path < b.Phase.Path
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Kind < b.Kind
	})
	for _, b := range rep.Bottlenecks {
		rep.byPhase[b.Phase] = append(rep.byPhase[b.Phase], b)
	}
	return rep
}

// detectBlocking turns blocking events into bottlenecks: any time a phase is
// blocked, the blocking resource delays it (§III-E). When windowed, stalls
// are clipped to the profile's slice span and zero-overlap phases skipped.
func detectBlocking(prof *attribution.Profile, rep *Report, windowed bool) {
	w0, w1 := prof.Slices.Start, prof.Slices.End
	prof.Trace.Root.Walk(func(p *core.Phase) {
		if p == prof.Trace.Root || len(p.Blocked) == 0 {
			return
		}
		if windowed && (p.End <= w0 || p.Start >= w1) {
			return
		}
		resources := map[string]bool{}
		for _, b := range p.Blocked {
			resources[b.Resource] = true
		}
		names := make([]string, 0, len(resources))
		for name := range resources {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			t := p.BlockedTime(name)
			if windowed {
				if t = clippedBlockedTime(p, name, w0, w1); t <= 0 {
					continue
				}
			}
			b := &PhaseBottleneck{
				Phase: p, Resource: name, Machine: core.GlobalMachine,
				Kind: Blocking, Time: t,
			}
			b.Intervals, b.EvStart, b.EvEnd = stallEvidence(p, name, w0, w1, windowed)
			rep.Bottlenecks = append(rep.Bottlenecks, b)
		}
	})
}

// clippedBlockedTime unions the phase's own blocking intervals on one
// resource clipped to [t0, t1). Intervals are sorted by start, as in
// Phase.BlockedTime.
func clippedBlockedTime(p *core.Phase, resource string, t0, t1 vtime.Time) vtime.Duration {
	var total vtime.Duration
	lastEnd := t0
	for _, b := range p.Blocked {
		if b.Resource != resource {
			continue
		}
		s, e := vtime.Max(b.Start, t0), vtime.Min(b.End, t1)
		if s < lastEnd {
			s = lastEnd
		}
		if e > s {
			total += e.Sub(s)
			lastEnd = e
		}
	}
	return total
}

// stallEvidence counts the phase's stall intervals on one resource (clipped
// to [t0, t1) when windowed) and returns the time bounds of the first and
// last of them.
func stallEvidence(p *core.Phase, resource string, t0, t1 vtime.Time, windowed bool) (n int, start, end vtime.Time) {
	for _, b := range p.Blocked {
		if b.Resource != resource {
			continue
		}
		s, e := b.Start, b.End
		if windowed {
			s, e = vtime.Max(s, t0), vtime.Min(e, t1)
		}
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
// upsampled per-slice consumption and per-phase attribution.
func detectConsumable(prof *attribution.Profile, rep *Report) {
	slices := prof.Slices
	for _, ip := range prof.Instances {
		capacity := ip.Instance.Resource.Capacity
		satLevel := SaturationThreshold * capacity

		var saturated []int
		for k := 0; k < slices.Count; k++ {
			if ip.Consumption[k] >= satLevel {
				saturated = append(saturated, k)
			}
		}
		if len(saturated) > 0 {
			rep.Saturated[ip.Instance.Key()] = saturated
		}

		for _, usage := range ip.Usage {
			rule := prof.Rules.Get(usage.Phase.Type.Path(), ip.Instance.Resource.Name)
			var satSlices, exactSlices []int
			var satTime, exactTime vtime.Duration
			for i, rate := range usage.Rates {
				k := usage.First + i
				if rate <= 0 {
					continue
				}
				t0, t1 := slices.Bounds(k)
				active := usage.Phase.ActiveTime(t0, t1)
				if active <= 0 {
					continue
				}
				if ip.Consumption[k] >= satLevel {
					satSlices = append(satSlices, k)
					satTime += active
					continue
				}
				if rule.Kind == core.RuleExact {
					demand := rule.Amount * usage.Phase.ActiveFraction(t0, t1)
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
				b.Intervals, b.EvStart, b.EvEnd = sliceEvidence(slices, satSlices)
				rep.Bottlenecks = append(rep.Bottlenecks, b)
			}
			if len(exactSlices) > 0 {
				b := &PhaseBottleneck{
					Phase: usage.Phase, Resource: ip.Instance.Resource.Name,
					Machine: ip.Instance.Machine, Kind: ExactLimit,
					Time: exactTime, Slices: exactSlices,
				}
				b.Intervals, b.EvStart, b.EvEnd = sliceEvidence(slices, exactSlices)
				rep.Bottlenecks = append(rep.Bottlenecks, b)
			}
		}
	}
}
