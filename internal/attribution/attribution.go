// Package attribution implements Grade10's resource attribution process
// (§III-D of the paper), the framework's core contribution. Given an
// execution trace (timeslice-granular), a resource trace (coarse monitoring
// samples), and attribution rules, it:
//
//  1. estimates per-timeslice resource demand from the None/Exact/Variable
//     rules of the leaf phases active in each slice,
//  2. upsamples each coarse monitoring measurement to timeslice granularity
//     by superimposing the demand estimate on the measured average, and
//  3. attributes the upsampled consumption of each timeslice to individual
//     phases: Exact phases first (proportionally, capped at their demand),
//     then the remainder across Variable phases by relative weight.
//
// The output is the paper's 3-D array — resource × timeslice × phase — plus
// the upsampled utilization series used for bottleneck detection.
//
// The inner loop is columnar: competitor metadata lives in parallel arrays,
// per-slice activity in a CSR layout built by a stable counting sort, and
// all per-instance scratch in one pooled arena, so the steady state of a
// multi-instance pass allocates only the result arrays. The row-based
// original survives in the reference subpackage as the bit-for-bit
// equivalence oracle.
package attribution

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"grade10/internal/core"
	"grade10/internal/metrics"
	"grade10/internal/obs"
	"grade10/internal/par"
	"grade10/internal/vtime"
)

// epsilon absorbs floating-point residue in unit·second accounting.
const epsilon = 1e-9

// PhaseUsage is the attributed consumption of one phase on one resource
// instance: Rates[i] is the average rate (resource units) during timeslice
// First+i, and Active[i] the phase's active time in that slice, its row of
// the profile's activity table.
type PhaseUsage struct {
	Phase  *core.Phase
	First  int
	Rates  []float64
	Active []vtime.Duration
}

// Rate returns the attributed rate in slice k (zero outside the span).
func (u *PhaseUsage) Rate(k int) float64 {
	if k < u.First || k >= u.First+len(u.Rates) {
		return 0
	}
	return u.Rates[k-u.First]
}

// Total returns the attributed consumption in unit·seconds.
func (u *PhaseUsage) Total(slices core.Timeslices) float64 {
	total := 0.0
	for i, r := range u.Rates {
		total += r * slices.SliceSeconds(u.First+i)
	}
	return total
}

// InstanceProfile is the attribution result for one resource instance.
// The four per-slice series share one flat backing array (capacity-clipped
// views), so an instance costs a handful of allocations regardless of the
// slice count.
type InstanceProfile struct {
	Instance *core.ResourceInstance
	// Consumption[k] is the upsampled average rate during slice k.
	Consumption []float64
	// KnownDemand[k] is the summed Exact demand of active phases (units).
	KnownDemand []float64
	// VariableWeight[k] is the summed Variable weight of active phases.
	VariableWeight []float64
	// Usage lists the per-phase attribution in core.ComparePhases order (the
	// leaf order AttributeWindow requires); phases without any attributed
	// consumption on this instance are omitted.
	Usage []*PhaseUsage
	// Unattributed[k] is consumption no rule could absorb (model mismatch
	// diagnostic): consumption in a slice with no active Variable phase that
	// exceeds the Exact demand.
	Unattributed []float64
}

// UsageOf returns the usage record of a phase, or nil.
func (ip *InstanceProfile) UsageOf(p *core.Phase) *PhaseUsage {
	i, ok := slices.BinarySearchFunc(ip.Usage, p, func(u *PhaseUsage, q *core.Phase) int {
		return core.ComparePhases(u.Phase, q)
	})
	if !ok || ip.Usage[i].Phase != p {
		return nil
	}
	return ip.Usage[i]
}

// UpsampledSeries converts the per-slice consumption into a step function
// over the profiled span.
func (ip *InstanceProfile) UpsampledSeries(slices core.Timeslices) *metrics.Series {
	s := metrics.NewSeries(slices.Count + 1)
	for k := 0; k < slices.Count; k++ {
		t0, _ := slices.Bounds(k)
		s.Set(t0, ip.Consumption[k])
	}
	if slices.Count > 0 {
		s.Set(slices.End, 0)
	}
	return s
}

// Totals integrates the instance profile over the profiled span: total
// upsampled consumption, the part attributed to phases, and the part no
// rule could absorb, all in unit·seconds. Attribution coverage — the live
// service's headline quality metric — is attributed/consumed.
func (ip *InstanceProfile) Totals(slices core.Timeslices) (consumed, attributed, unattributed float64) {
	for k := 0; k < slices.Count; k++ {
		s := slices.SliceSeconds(k)
		consumed += ip.Consumption[k] * s
		unattributed += ip.Unattributed[k] * s
	}
	for _, u := range ip.Usage {
		attributed += u.Total(slices)
	}
	return consumed, attributed, unattributed
}

// Profile is the full attribution output.
type Profile struct {
	Trace     *core.ExecutionTrace
	Slices    core.Timeslices
	Rules     *core.RuleSet
	Instances []*InstanceProfile

	byKey     map[string]*InstanceProfile
	anyActive []bool // anyActive[k]: some attributed leaf was active in slice k
}

// AnyActive reports whether any leaf of the attributed set was active in
// slice k.
func (p *Profile) AnyActive(k int) bool { return p.anyActive[k] }

// activity is a profile's activity table: the active time of each leaf (in
// the sense of core.Phase.ActiveTime) in every slice its span covers, filled
// by one stall sweep per leaf before the per-instance fan-out. Attribution
// reads a leaf's demand weight from it, and every PhaseUsage carries its
// leaf's row, so the bottleneck scan and the issue replays read activity
// rather than re-deriving it per slice.
type activity struct {
	first []int32 // leaf i's first slice
	off   []int32 // leaf i's row is act[off[i]:off[i+1]]
	act   []vtime.Duration
}

// row returns leaf i's activity row, capacity-clipped.
func (a *activity) row(i int) []vtime.Duration {
	lo, hi := a.off[i], a.off[i+1]
	return a.act[lo:hi:hi]
}

// newActivity fills the activity table of a leaf set over slices and marks
// in anyActive the slices in which some leaf was active.
func newActivity(leaves []*core.Phase, slices core.Timeslices, anyActive []bool) activity {
	n := len(leaves)
	idx := make([]int32, 2*n+1)
	a := activity{first: idx[:n:n], off: idx[n:]}
	total := 0
	for i, leaf := range leaves {
		first, last := slices.Range(leaf.Start, leaf.End)
		a.first[i], a.off[i] = int32(first), int32(total)
		total += last - first
	}
	a.off[n] = int32(total)
	a.act = make([]vtime.Duration, total)
	ar := acquireArena()
	defer ar.release()
	for i, leaf := range leaves {
		row, first := a.row(i), int(a.first[i])
		leaf.ActiveTimes(slices, first, row, &ar.stalls)
		for j, d := range row {
			if d > 0 {
				anyActive[first+j] = true
			}
		}
	}
	return a
}

// Get returns the profile of a resource instance by name and machine, or
// nil.
func (p *Profile) Get(name string, machine int) *InstanceProfile {
	return p.byKey[core.InstanceKey(name, machine)]
}

// Attribute runs the three-step attribution process over every resource
// instance in the trace, fanning instances out over par.Default() workers.
func Attribute(tr *core.ExecutionTrace, rt *core.ResourceTrace, rules *core.RuleSet,
	slices core.Timeslices) (*Profile, error) {
	return AttributeWindow(tr, tr.Leaves(), rt, rules, slices, 0, nil)
}

// AttributeWindow runs the attribution process restricted to the window
// covered by the slices argument: monitoring samples are clipped to the
// window, and leaves contribute only the activity that falls inside it. The
// batch path and the online path (internal/stream) share this one
// implementation; the window is simply the whole run in the batch case.
//
// leaves is the candidate leaf set, normally tr.Leaves() or, when streaming,
// the phases known to overlap the window; phases outside the window are
// harmless (they contribute no demand and are pruned from the usage list).
// The caller must sort leaves with core.SortPhases, the order tr.Leaves()
// returns, so per-slice floating-point accumulation is deterministic.
//
// Instances are attributed concurrently over workers goroutines
// (0 = par.Default()) — each (resource, machine) pair is independent — and
// merged into the profile in the deterministic rt.Instances() order, so the
// result is identical for every worker count.
//
// A non-nil tracer receives one span per per-instance attribution job and
// its inner upsampling step, tagged with the worker lane that ran it and the
// virtual-time window attributed. With a nil tracer it is byte-for-byte the
// same computation and allocates nothing extra: every span call is a nil
// no-op on this hot path.
func AttributeWindow(tr *core.ExecutionTrace, leaves []*core.Phase, rt *core.ResourceTrace,
	rules *core.RuleSet, slices core.Timeslices, workers int, tracer *obs.Tracer) (*Profile, error) {
	if slices.Count == 0 {
		return nil, fmt.Errorf("attribution: empty timeslice span")
	}
	instances := rt.Instances()
	prof := &Profile{Trace: tr, Slices: slices, Rules: rules,
		Instances: make([]*InstanceProfile, 0, len(instances)),
		byKey:     make(map[string]*InstanceProfile, len(instances)),
		anyActive: make([]bool, slices.Count)}
	act := newActivity(leaves, slices, prof.anyActive)
	results := make([]*InstanceProfile, len(instances))
	errs := make([]error, len(instances))
	par.DoWithWorker(len(instances), workers, func(worker, i int) {
		span := tracer.StartSpan("attribute-instance", worker)
		if tracer.Enabled() {
			// Key() formats a string; only pay for it when tracing is on.
			span.SetDetail(instances[i].Key())
			span.SetItems(int64(slices.Count))
			span.SetWindow(int64(slices.Start), int64(slices.End))
		}
		results[i], errs[i] = attributeInstance(instances[i], leaves, &act, rules, slices, tracer, worker)
		span.End()
	})
	for i, ri := range instances {
		if errs[i] != nil {
			return nil, errs[i]
		}
		prof.Instances = append(prof.Instances, results[i])
		prof.byKey[ri.Key()] = results[i]
	}
	return prof, nil
}

// arena is the per-instance scratch of one attribution job, pooled across
// instances and windows. Everything transient lives here — discovery
// entries, competitor metadata, the CSR activity index, and the upsampling
// buffers — so a steady-state attribution pass allocates only its results.
// Indices are int32: a window has far fewer than 2³¹ slices or activity
// entries.
type arena struct {
	// Discovery entries in leaf-major order: entry e says competitor
	// entryComp[e] is active in slice entrySlice[e] for fraction entryAct[e]
	// of the slice.
	entrySlice []int32
	entryComp  []int32
	entryAct   []float64
	// Competitor metadata, parallel arrays indexed by competitor.
	compPhase []*core.Phase
	compLeaf  []int32 // index into the leaf set and its activity table
	compRule  []core.Rule
	compFirst []int32
	compLast  []int32
	// CSR activity index: slice k's entries are csrComp/csrAct positions
	// [csrOff[k], csrOff[k+1]). Built by a stable counting sort from the
	// discovery entries, so within a slice competitors keep leaf order and
	// floating-point accumulation matches the row-based oracle bit for bit.
	csrOff  []int32
	csrCur  []int32
	csrComp []int32
	csrAct  []float64
	// fbuf backs the six per-measurement upsampling views.
	fbuf []float64
	// rules memoizes the discovery pass's rule lookups by leaf type: valid
	// for one instance only (the resource name is part of the rule key), so
	// release resets it.
	rules core.RuleMemo
	// stalls is the sweep scratch of the activity table.
	stalls core.Stalls
}

var arenaPool = sync.Pool{New: func() any { return new(arena) }}

// acquireArena returns an arena ready for a new instance: append targets
// empty, capacity retained from previous uses.
func acquireArena() *arena {
	ar := arenaPool.Get().(*arena)
	ar.entrySlice = ar.entrySlice[:0]
	ar.entryComp = ar.entryComp[:0]
	ar.entryAct = ar.entryAct[:0]
	ar.compPhase = ar.compPhase[:0]
	ar.compLeaf = ar.compLeaf[:0]
	ar.compRule = ar.compRule[:0]
	ar.compFirst = ar.compFirst[:0]
	ar.compLast = ar.compLast[:0]
	return ar
}

// release drops phase pointers (so a pooled arena never pins a retired
// trace) and returns the arena to the pool.
func (ar *arena) release() {
	for i := range ar.compPhase {
		ar.compPhase[i] = nil
	}
	ar.rules.Reset()
	arenaPool.Put(ar)
}

// growI32 returns s with length n, reallocating only when capacity is
// short. Contents are unspecified; callers overwrite every element they
// read.
func growI32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// upsampleViews returns six zeroed length-n slices backed by fbuf.
func (ar *arena) upsampleViews(n int) (dur, capAmt, knownAmt, varW, alloc, head []float64) {
	need := 6 * n
	if cap(ar.fbuf) < need {
		ar.fbuf = make([]float64, need)
	}
	b := ar.fbuf[:need]
	for i := range b {
		b[i] = 0
	}
	return b[:n], b[n : 2*n], b[2*n : 3*n], b[3*n : 4*n], b[4*n : 5*n], b[5*n : 6*n]
}

func attributeInstance(ri *core.ResourceInstance, leaves []*core.Phase, act *activity,
	rules *core.RuleSet, slices core.Timeslices, tracer *obs.Tracer, worker int) (*InstanceProfile, error) {
	n := slices.Count
	// One flat backing for the four per-slice output series. The views are
	// capacity-clipped so an accidental append cannot bleed into a neighbor.
	flat := make([]float64, 4*n)
	ip := &InstanceProfile{
		Instance:       ri,
		Consumption:    flat[0:n:n],
		KnownDemand:    flat[n : 2*n : 2*n],
		VariableWeight: flat[2*n : 3*n : 3*n],
		Unattributed:   flat[3*n : 4*n : 4*n],
	}

	ar := acquireArena()
	defer ar.release()

	// Step 0: discover competitors and their per-slice activity; accumulate
	// the demand estimation matrix (§III-D1). Leaf-major — the order the
	// oracle uses — so every += lands in the same sequence. The activity
	// fraction is the oracle's ActiveFraction, read off the table.
	ratesLen := 0
	for li, leaf := range leaves {
		if ri.Resource.PerMachine && leaf.Machine != ri.Machine {
			continue
		}
		rule := ar.rules.Get(rules, leaf.Type, ri.Resource.Name)
		if rule.Kind == core.RuleNone {
			continue
		}
		first, last := slices.Range(leaf.Start, leaf.End)
		if first == last {
			continue
		}
		ci := int32(len(ar.compPhase))
		ar.compPhase = append(ar.compPhase, leaf)
		ar.compLeaf = append(ar.compLeaf, int32(li))
		ar.compRule = append(ar.compRule, rule)
		ar.compFirst = append(ar.compFirst, int32(first))
		ar.compLast = append(ar.compLast, int32(last))
		ratesLen += last - first
		row := act.row(li)
		for k := first; k < last; k++ {
			d := row[k-first]
			if d <= 0 {
				continue
			}
			t0, t1 := slices.Bounds(k)
			a := d.Seconds() / t1.Sub(t0).Seconds()
			switch rule.Kind {
			case core.RuleExact:
				ip.KnownDemand[k] += rule.Amount * a
			case core.RuleVariable:
				ip.VariableWeight[k] += rule.Amount * a
			}
			ar.entrySlice = append(ar.entrySlice, int32(k))
			ar.entryComp = append(ar.entryComp, ci)
			ar.entryAct = append(ar.entryAct, a)
		}
	}

	// Materialize the durable usage records: one PhaseUsage slab and one
	// flat rates backing shared by all competitors of this instance.
	nComp := len(ar.compPhase)
	var slab []PhaseUsage
	if nComp > 0 {
		slab = make([]PhaseUsage, nComp)
		ratesBacking := make([]float64, ratesLen)
		off := 0
		for ci := 0; ci < nComp; ci++ {
			span := int(ar.compLast[ci] - ar.compFirst[ci])
			slab[ci] = PhaseUsage{Phase: ar.compPhase[ci], First: int(ar.compFirst[ci]),
				Rates: ratesBacking[off : off+span : off+span], Active: act.row(int(ar.compLeaf[ci]))}
			off += span
		}
	}

	// Build the CSR activity index with a stable counting sort over the
	// discovery entries.
	nE := len(ar.entrySlice)
	ar.csrOff = growI32(ar.csrOff, n+1)
	for i := 0; i <= n; i++ {
		ar.csrOff[i] = 0
	}
	for _, k := range ar.entrySlice {
		ar.csrOff[k+1]++
	}
	for k := 0; k < n; k++ {
		ar.csrOff[k+1] += ar.csrOff[k]
	}
	ar.csrCur = growI32(ar.csrCur, n)
	copy(ar.csrCur, ar.csrOff[:n])
	ar.csrComp = growI32(ar.csrComp, nE)
	if cap(ar.csrAct) < nE {
		ar.csrAct = make([]float64, nE)
	} else {
		ar.csrAct = ar.csrAct[:nE]
	}
	for e := 0; e < nE; e++ {
		k := ar.entrySlice[e]
		p := ar.csrCur[k]
		ar.csrCur[k] = p + 1
		ar.csrComp[p] = ar.entryComp[e]
		ar.csrAct[p] = ar.entryAct[e]
	}

	// Step 1+2: upsample each monitoring measurement to slice granularity
	// (§III-D2).
	uspan := tracer.StartSpan("upsample", worker)
	if tracer.Enabled() {
		uspan.SetDetail(ri.Key())
		uspan.SetItems(int64(len(ri.Samples.Samples)))
	}
	if err := upsample(ip, ri, slices, ar); err != nil {
		return nil, err
	}
	uspan.End()

	// Step 3: attribute per-slice consumption to phases (§III-D3).
	for k := 0; k < n; k++ {
		attributeSlice(ip, ar, slab, k)
	}

	// Keep only phases that received any consumption.
	if nComp > 0 {
		ip.Usage = make([]*PhaseUsage, 0, nComp)
	}
	for ci := 0; ci < nComp; ci++ {
		u := &slab[ci]
		any := false
		for _, r := range u.Rates {
			if r > epsilon {
				any = true
				break
			}
		}
		if any {
			ip.Usage = append(ip.Usage, u)
		}
	}
	return ip, nil
}

// upsample distributes each coarse measurement over its timeslices in
// proportion to estimated demand, never exceeding the smaller of demand and
// capacity, with the excess over Exact demand load-balanced across Variable
// demand (§III-D2).
func upsample(ip *InstanceProfile, ri *core.ResourceInstance, slices core.Timeslices,
	ar *arena) error {
	capUnit := ri.Resource.Capacity
	for _, smp := range ri.Samples.Samples {
		// Clip the measurement to the analyzed span; consumption outside it
		// is out of scope and must not be squeezed into in-span slices.
		w0 := vtime.Max(smp.Start, slices.Start)
		w1 := vtime.Min(smp.End, slices.End)
		if w1 <= w0 {
			continue
		}
		first, last := slices.Range(w0, w1)
		if first == last {
			continue
		}
		n := last - first
		// Per-slice working buffers: overlap durations with this measurement
		// window, capacity ceiling / Exact demand / variable weight (all in
		// unit·seconds), the allocation being built, and headroom scratch.
		dur, capAmt, knownAmt, varW, alloc, head := ar.upsampleViews(n)
		totalKnown := 0.0
		for i := 0; i < n; i++ {
			k := first + i
			t0, t1 := slices.Bounds(k)
			lo, hi := vtime.Max(t0, w0), vtime.Min(t1, w1)
			d := hi.Sub(lo).Seconds()
			if d <= 0 {
				continue
			}
			dur[i] = d
			capAmt[i] = capUnit * d
			knownAmt[i] = math.Min(ip.KnownDemand[k], capUnit) * d
			varW[i] = ip.VariableWeight[k] * d
			totalKnown += knownAmt[i]
		}
		consumption := smp.Avg * w1.Sub(w0).Seconds() // in-span unit·seconds
		if consumption <= epsilon {
			continue
		}

		// First satisfy Exact demand, proportionally when scarce.
		if consumption >= totalKnown {
			copy(alloc, knownAmt)
		} else if totalKnown > 0 {
			f := consumption / totalKnown
			for i := range alloc {
				alloc[i] = knownAmt[i] * f
			}
		}
		leftover := consumption
		for _, a := range alloc {
			leftover -= a
		}

		// Water-fill the remainder proportionally to Variable demand,
		// respecting per-slice capacity headroom.
		leftover = waterFill(alloc, leftover, varW, capAmt)
		// Model mismatch fallbacks, in decreasing order of plausibility:
		// excess consumption clings to the slices with Exact demand first
		// (consumption correlates with demand), then spreads over remaining
		// headroom, and as a last resort over window time, so mass is always
		// conserved.
		if leftover > epsilon {
			leftover = waterFill(alloc, leftover, knownAmt, capAmt)
		}
		if leftover > epsilon {
			for i := range head {
				head[i] = capAmt[i] - alloc[i]
			}
			leftover = waterFill(alloc, leftover, head, capAmt)
		}
		if leftover > epsilon {
			for i := range alloc {
				if dur[i] > 0 {
					alloc[i] += leftover * dur[i] / w1.Sub(w0).Seconds()
				}
			}
		}

		// Consumption[k] is the average rate over the whole slice, so a
		// measurement covering only part of a slice (misaligned windows)
		// contributes its allocation spread over the full slice width;
		// multiple windows touching the same slice then sum correctly.
		for i := 0; i < n; i++ {
			if dur[i] > 0 {
				ip.Consumption[first+i] += alloc[i] / slices.SliceSeconds(first+i)
			}
		}
	}
	return nil
}

// waterFill distributes `amount` across alloc proportionally to weights,
// clipping each bucket at ceil, iterating until the amount is exhausted or
// no bucket can absorb more. It returns the undistributed remainder.
func waterFill(alloc []float64, amount float64, weights, ceil []float64) float64 {
	for amount > epsilon {
		totalW := 0.0
		for i := range weights {
			if weights[i] > 0 && ceil[i]-alloc[i] > epsilon {
				totalW += weights[i]
			}
		}
		if totalW == 0 {
			break
		}
		distributed := 0.0
		for i := range weights {
			if weights[i] <= 0 || ceil[i]-alloc[i] <= epsilon {
				continue
			}
			share := amount * weights[i] / totalW
			if head := ceil[i] - alloc[i]; share > head {
				share = head
			}
			alloc[i] += share
			distributed += share
		}
		if distributed <= epsilon {
			break
		}
		amount -= distributed
	}
	if amount < 0 {
		amount = 0
	}
	return amount
}

// attributeSlice splits slice k's upsampled consumption among the active
// phases: Exact phases proportionally up to their demand, remainder across
// Variable phases by weight (§III-D3). The active set is the CSR row
// [csrOff[k], csrOff[k+1]); entries are in leaf order, so both accumulation
// loops run in the oracle's sequence.
func attributeSlice(ip *InstanceProfile, ar *arena, slab []PhaseUsage, k int) {
	u := ip.Consumption[k]
	lo, hi := ar.csrOff[k], ar.csrOff[k+1]
	if u <= epsilon || lo == hi {
		if u > epsilon {
			ip.Unattributed[k] = u
		}
		return
	}
	totalExact := 0.0
	totalVarW := 0.0
	for e := lo; e < hi; e++ {
		rule := &ar.compRule[ar.csrComp[e]]
		switch rule.Kind {
		case core.RuleExact:
			totalExact += rule.Amount * ar.csrAct[e]
		case core.RuleVariable:
			totalVarW += rule.Amount * ar.csrAct[e]
		}
	}
	exactScale := 1.0
	if u < totalExact && totalExact > 0 {
		exactScale = u / totalExact
	}
	givenExact := math.Min(u, totalExact)
	remainder := u - givenExact
	for e := lo; e < hi; e++ {
		ci := ar.csrComp[e]
		rule := &ar.compRule[ci]
		activity := ar.csrAct[e]
		var share float64
		switch rule.Kind {
		case core.RuleExact:
			share = rule.Amount * activity * exactScale
		case core.RuleVariable:
			if totalVarW > 0 {
				share = remainder * rule.Amount * activity / totalVarW
			}
		}
		if share > 0 {
			usage := &slab[ci]
			usage.Rates[k-usage.First] += share
		}
	}
	if totalVarW == 0 && remainder > epsilon {
		ip.Unattributed[k] = remainder
	}
}
