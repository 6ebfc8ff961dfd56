// Package explain is Grade10's provenance and explanation layer: it answers
// "why was this phase attributed X on this resource?" with the full
// derivation chain behind every selected cell (rule fired → estimated
// demand → upsampling allocation → capacity share) — the paper's attribution
// process (§III-D) made inspectable after the fact.
//
// Provenance is recomputed per query, never captured while attributing:
// Explain re-attributes only the resource instances a query selects through
// the row-based oracle (internal/attribution/reference) over the finalized
// profile's own leaves, rules, slices and samples, and the oracle's
// derivation callbacks fill the answer directly — only the cells of the
// query's phases and slices are kept. The oracle is bit-identical to the
// columnar core, so the chain reproduces the profile, and the production
// attribution path carries no capture hooks. Memory is bounded per query:
// each instance's answer stops growing past DefaultMaxCellsPerInstance rows
// and counts what it dropped.
package explain

import (
	"sort"

	"grade10/internal/attribution"
	"grade10/internal/bottleneck"
	"grade10/internal/core"
	"grade10/internal/vtime"
)

// DefaultMaxCellsPerInstance bounds the rows one instance's answer keeps:
// its cells plus the upsample contributions they carry. At ~100 bytes a row
// the default caps an instance near 100 MB — far above any smoke run, low
// enough that a pathological trace cannot exhaust memory silently.
const DefaultMaxCellsPerInstance = 1 << 20

// recorder implements attribution.Recorder for one query: it keeps, per
// instance, only the cells of the query's phase filter in slices
// [first, last). The reference oracle calls it serially, so it needs no
// locking.
type recorder struct {
	phase       string // type path filter, "" = all phases
	first, last int
	maxRows     int
	insts       map[string]*instanceRecorder // by ResourceInstance.Key()
}

// InstanceRecorder implements attribution.Recorder.
func (r *recorder) InstanceRecorder(_ int, ri *core.ResourceInstance,
	_ core.Timeslices) attribution.InstanceRecorder {
	ir := &instanceRecorder{recorder: r, byPhase: map[*core.Phase]*PhaseDerivation{}}
	r.insts[ri.Key()] = ir
	return ir
}

// instanceRecorder builds one instance's answer. Demand opens the cells,
// Upsample and SliceSplit keep the context of slices holding a cell, and
// Share completes the cells; answer then fills in the rest.
type instanceRecorder struct {
	*recorder
	rows    int
	dropped int64

	phases  []*core.Phase // in first kept demand order: the oracle's leaf order
	byPhase map[*core.Phase]*PhaseDerivation
	slices  []sliceContext // by k - first, once a cell is kept
}

// sliceContext is what every cell of one selected slice shares.
type sliceContext struct {
	cells int // kept cells in the slice

	consumption, totalExact, totalVarW, exactScale, remainder float64
	upsample                                                  []UpsampleContribution
}

// fits charges n rows against the bound, or counts them as dropped.
func (ir *instanceRecorder) fits(n int) bool {
	if ir.rows+n > ir.maxRows {
		ir.dropped += int64(n)
		return false
	}
	ir.rows += n
	return true
}

// context returns slice k's context when k holds a kept cell, else nil.
func (ir *instanceRecorder) context(k int) *sliceContext {
	if k < ir.first || k >= ir.last || ir.slices == nil || ir.slices[k-ir.first].cells == 0 {
		return nil
	}
	return &ir.slices[k-ir.first]
}

// Demand implements attribution.InstanceRecorder.
func (ir *instanceRecorder) Demand(k int, phase *core.Phase, rule core.Rule, activity float64) {
	if k < ir.first || k >= ir.last ||
		ir.phase != "" && (phase.Type == nil || phase.Type.Path() != ir.phase) || !ir.fits(1) {
		return
	}
	pd := ir.byPhase[phase]
	if pd == nil {
		pd = &PhaseDerivation{
			Path:       phase.Path,
			TypePath:   phase.Type.Path(),
			Machine:    phase.Machine,
			RuleKind:   rule.Kind.String(),
			RuleAmount: rule.Amount,
		}
		ir.byPhase[phase] = pd
		ir.phases = append(ir.phases, phase)
	}
	pd.Cells = append(pd.Cells, CellDerivation{
		Slice:    k,
		Activity: activity,
		Demand:   rule.Amount * activity,
	})
	if ir.slices == nil {
		ir.slices = make([]sliceContext, ir.last-ir.first)
	}
	ir.slices[k-ir.first].cells++
}

// Upsample implements attribution.InstanceRecorder. Every cell of slice k
// carries the contribution, so it costs one row per cell.
func (ir *instanceRecorder) Upsample(k int, mStart, mEnd vtime.Time, avg, allocUnitSeconds float64) {
	sc := ir.context(k)
	if sc == nil || !ir.fits(sc.cells) {
		return
	}
	sc.upsample = append(sc.upsample, UpsampleContribution{
		StartNS:          int64(mStart),
		EndNS:            int64(mEnd),
		Avg:              avg,
		AllocUnitSeconds: allocUnitSeconds,
	})
}

// SliceSplit implements attribution.InstanceRecorder.
func (ir *instanceRecorder) SliceSplit(k int, consumption, totalExact, totalVarW, exactScale, remainder float64) {
	if sc := ir.context(k); sc != nil {
		sc.consumption, sc.totalExact, sc.totalVarW = consumption, totalExact, totalVarW
		sc.exactScale, sc.remainder = exactScale, remainder
	}
}

// Share implements attribution.InstanceRecorder. The oracle reports every
// share after the same phase's demand in that slice, so the cell exists
// unless the phase is filtered out or the bound dropped it.
func (ir *instanceRecorder) Share(k int, phase *core.Phase, _ core.Rule, _, share float64) {
	pd := ir.byPhase[phase]
	if pd == nil {
		return
	}
	i := sort.Search(len(pd.Cells), func(i int) bool { return pd.Cells[i].Slice >= k })
	if i < len(pd.Cells) && pd.Cells[i].Slice == k {
		pd.Cells[i].ShareRate = share
	}
}

// answer completes the kept cells with their slice bounds and context and
// sums each phase's chain next to the profile's own cells.
func (ir *instanceRecorder) answer(ip *attribution.InstanceProfile, slices core.Timeslices) *InstanceDerivation {
	ri := ip.Instance
	capacity := ri.Resource.Capacity
	inst := &InstanceDerivation{
		Key:      ri.Key(),
		Resource: ri.Resource.Name,
		Machine:  ri.Machine,
		Capacity: capacity,
	}
	for _, phase := range ir.phases {
		pd := ir.byPhase[phase]
		usage := ip.UsageOf(phase)
		for i := range pd.Cells {
			c := &pd.Cells[i]
			k := c.Slice
			sc := &ir.slices[k-ir.first]
			t0, t1 := slices.Bounds(k)
			c.StartNS, c.EndNS = int64(t0), int64(t1)
			c.Consumption, c.TotalExact, c.TotalVarW = sc.consumption, sc.totalExact, sc.totalVarW
			c.ExactScale, c.Remainder = sc.exactScale, sc.remainder
			c.Saturated = capacity > 0 && sc.consumption >= bottleneck.SaturationThreshold*capacity
			c.UnitSeconds = c.ShareRate * slices.SliceSeconds(k)
			c.Upsample = sc.upsample
			pd.AttributedUnitSeconds += c.UnitSeconds
			if usage != nil {
				pd.ProfileUnitSeconds += usage.Rate(k) * slices.SliceSeconds(k)
			}
		}
		inst.Phases = append(inst.Phases, pd)
	}
	return inst
}
