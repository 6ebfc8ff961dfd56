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
	// Slices lists the affected timeslices, and Usage is the phase's usage
	// row on the instance (consumable kinds only).
	Slices []int
	Usage  *attribution.PhaseUsage
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
	// Bottlenecks is the detection table, in detection order: first the
	// blocking bottlenecks in tree-walk order (each phase's resources by
	// name), then each instance's consumable bottlenecks, instances in
	// profile (key) order and, within one, phases in its Usage order with
	// saturation before exact-limit. The order depends on the profile
	// alone, never on the parallelism it was attributed at. Every Slices is
	// a capacity-clipped window of one shared backing array.
	Bottlenecks []PhaseBottleneck
	// Rows aggregates Bottlenecks by (type path, resource, kind), ordered by
	// Time descending, then type path, resource and kind.
	Rows []Row
	// Saturated maps a resource instance key to its saturated slice indices.
	Saturated map[string][]int
}

// Detect runs all three detectors over an attribution profile: a whole run
// (grade10.Characterize) or one live window (attribution.AttributeWindow)
// alike. No bottleneck has zero time. The scan runs twice: a counting pass
// sizes the table and the shared slice backing exactly, and a filling pass
// writes them.
func Detect(prof *attribution.Profile) *Report {
	t := &table{counting: true}
	t.scan(prof)
	t.bs = make([]PhaseBottleneck, 0, t.n)
	t.ks = make([]int, 0, t.nks)
	t.saturated = map[string][]int{}
	t.counting = false
	t.scan(prof)
	return &Report{Bottlenecks: t.bs, Rows: aggregate(t.bs), Saturated: t.saturated}
}

// table builds a Report's bottleneck table. In the counting pass add only
// counts; in the filling pass it appends into the presized table and
// slice backing.
type table struct {
	counting bool
	n, nks   int // bottlenecks and evidence slices, from the counting pass

	bs        []PhaseBottleneck
	ks        []int // the shared backing of every Slices
	saturated map[string][]int

	sat, exact []int    // one usage's evidence slices, reused
	names      []string // one phase's distinct stall resources, reused
}

// scan runs both detectors in detection order.
func (t *table) scan(prof *attribution.Profile) {
	t.detectBlocking(prof)
	t.detectConsumable(prof)
}

// add records one bottleneck of phase p on resource res. The counting pass
// only counts it and gets nil. The filling pass writes the next table
// entry in place, copies the evidence slices ks (nil for blocking) into the
// shared backing, and gets the entry for the caller to complete.
func (t *table) add(p *core.Phase, res string, machine int, kind Kind, d vtime.Duration, ks []int) *PhaseBottleneck {
	if t.counting {
		t.n++
		t.nks += len(ks)
		return nil
	}
	t.bs = t.bs[:len(t.bs)+1] // within the counted capacity
	b := &t.bs[len(t.bs)-1]
	b.Phase, b.Resource, b.Machine, b.Kind, b.Time = p, res, machine, kind, d
	if len(ks) > 0 {
		i := len(t.ks)
		t.ks = append(t.ks, ks...)
		b.Slices = t.ks[i:len(t.ks):len(t.ks)]
	}
	return b
}

// aggregate groups per-phase bottlenecks into rows, in the Rows order. Rows
// are keyed by type pointer, so each row resolves its type path once.
func aggregate(bs []PhaseBottleneck) []Row {
	type key struct {
		typ  *core.PhaseType
		res  string
		kind Kind
	}
	index := map[key]int{}
	var rows []Row
	for i := range bs {
		b := &bs[i]
		k := key{b.Phase.Type, b.Resource, b.Kind}
		ri, ok := index[k]
		if !ok {
			ri = len(rows)
			index[k] = ri
			rows = append(rows, Row{TypePath: k.typ.Path(), Resource: k.res, Kind: k.kind})
		}
		r := &rows[ri]
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
	slices.SortFunc(rows, func(a, b Row) int {
		if a.Time != b.Time {
			return cmp.Compare(b.Time, a.Time)
		}
		if c := strings.Compare(a.TypePath, b.TypePath); c != 0 {
			return c
		}
		if c := strings.Compare(a.Resource, b.Resource); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	return rows
}

// detectBlocking turns blocking events into bottlenecks: any time a phase is
// blocked, the blocking resource delays it (§III-E). A phase's own stalls
// count, clipped to the profile's slice span, so a live window charges a
// stall to the windows it overlaps and a whole run charges all of it.
func (t *table) detectBlocking(prof *attribution.Profile) {
	w0, w1 := prof.Slices.Start, prof.Slices.End
	prof.Trace.Root.Walk(func(p *core.Phase) {
		if p == prof.Trace.Root || len(p.Blocked) == 0 {
			return
		}
		t.names = t.names[:0]
		for _, b := range p.Blocked {
			if !slices.Contains(t.names, b.Resource) {
				t.names = append(t.names, b.Resource)
			}
		}
		slices.Sort(t.names)
		for _, name := range t.names {
			d := p.BlockedTime(name, w0, w1)
			if d <= 0 {
				continue
			}
			if b := t.add(p, name, core.GlobalMachine, Blocking, d, nil); b != nil {
				b.Intervals, b.EvStart, b.EvEnd = stallEvidence(p, name, w0, w1)
			}
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
func (t *table) detectConsumable(prof *attribution.Profile) {
	ts := prof.Slices
	var rules core.RuleMemo // rules on resource memoRes, by type
	memoRes := ""
	for _, ip := range prof.Instances {
		capacity := ip.Instance.Resource.Capacity
		satLevel := SaturationThreshold * capacity
		res, machine := ip.Instance.Resource.Name, ip.Instance.Machine

		// The saturated slices share the evidence backing.
		i := len(t.ks)
		for k := 0; k < ts.Count; k++ {
			if ip.Consumption[k] < satLevel {
				continue
			}
			if t.counting {
				t.nks++
			} else {
				t.ks = append(t.ks, k)
			}
		}
		if !t.counting && len(t.ks) > i {
			t.saturated[ip.Instance.Key()] = t.ks[i:len(t.ks):len(t.ks)]
		}

		if res != memoRes {
			// Instances of one resource are adjacent in key order.
			rules.Reset()
			memoRes = res
		}
		for _, usage := range ip.Usage {
			rule := rules.Get(prof.Rules, usage.Phase.Type, res)
			t.sat, t.exact = t.sat[:0], t.exact[:0]
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
					t.sat = append(t.sat, k)
					satTime += active
					continue
				}
				if rule.Kind == core.RuleExact {
					t0, t1 := ts.Bounds(k)
					demand := rule.Amount * (active.Seconds() / t1.Sub(t0).Seconds())
					if demand > 0 && rate >= ExactTolerance*demand {
						t.exact = append(t.exact, k)
						exactTime += active
					}
				}
			}
			if len(t.sat) > 0 {
				if b := t.add(usage.Phase, res, machine, Saturation, satTime, t.sat); b != nil {
					b.Usage = usage
					b.Intervals, b.EvStart, b.EvEnd = sliceEvidence(ts, b.Slices)
				}
			}
			if len(t.exact) > 0 {
				if b := t.add(usage.Phase, res, machine, ExactLimit, exactTime, t.exact); b != nil {
					b.Usage = usage
					b.Intervals, b.EvStart, b.EvEnd = sliceEvidence(ts, b.Slices)
				}
			}
		}
	}
}
