// Package explain is Grade10's provenance and explanation layer: it answers
// "why was this phase attributed X on this resource?" with the full
// derivation chain behind every selected cell (rule fired → estimated
// demand → upsampling allocation → capacity share) — the paper's attribution
// process (§III-D) made inspectable after the fact.
//
// Provenance is recomputed per query, never captured while attributing: the
// explainer re-attributes only the resource instances a query selects
// through the row-based oracle (internal/attribution/reference), which
// emits the derivation callbacks, over the finalized profile's own leaves,
// rules, slices and samples. The oracle is bit-identical to the columnar
// core, so the chain reproduces the profile, and the production attribution
// path carries no capture hooks. Memory is bounded per query: each
// instance's shard stops recording past DefaultMaxCellsPerInstance rows and
// counts what it dropped.
package explain

import (
	"grade10/internal/attribution"
	"grade10/internal/core"
	"grade10/internal/vtime"
)

// DefaultMaxCellsPerInstance bounds one instance's provenance rows (summed
// over the demand, upsample, slice, and share tables). At ~50 bytes a row
// the default caps a shard near 50 MB — far above any smoke run, low enough
// that a pathological trace cannot exhaust memory silently.
const DefaultMaxCellsPerInstance = 1 << 20

// recorder implements attribution.Recorder with per-instance columnar
// shards keyed by instance. One recorder serves one recomputation; the
// reference oracle calls it serially, so it needs no locking.
type recorder struct {
	maxCells int
	shards   map[string]*shard // by ResourceInstance.Key()
}

// newRecorder creates a recorder that keeps at most maxCells rows per
// instance.
func newRecorder(maxCells int) *recorder {
	return &recorder{maxCells: maxCells, shards: map[string]*shard{}}
}

// InstanceRecorder implements attribution.Recorder.
func (r *recorder) InstanceRecorder(_ int, ri *core.ResourceInstance,
	_ core.Timeslices) attribution.InstanceRecorder {
	sh := &shard{maxCells: r.maxCells, phaseIdx: map[*core.Phase]int32{}}
	r.shards[ri.Key()] = sh
	return sh
}

// shard holds one resource instance's provenance in columnar form: four
// append-only tables (demand, upsample, slice split, share), with phases
// interned once per shard. rows() across the tables is bounded by maxCells.
type shard struct {
	maxCells int
	dropped  int64

	phases   []*core.Phase
	phaseIdx map[*core.Phase]int32

	// demand table: one row per (leaf, slice) rule firing, leaf-major.
	dSlice    []int32
	dPhase    []int32
	dKind     []uint8
	dAmount   []float64
	dActivity []float64

	// upsample table: one row per (measurement, slice) allocation.
	uSlice []int32
	uStart []int64
	uEnd   []int64
	uAvg   []float64
	uAlloc []float64

	// slice-split table: one row per slice with consumption and competitors.
	sSlice     []int32
	sCons      []float64
	sExact     []float64
	sVarW      []float64
	sScale     []float64
	sRemainder []float64

	// share table: one row per (slice, active phase), slice-major.
	hSlice    []int32
	hPhase    []int32
	hShare    []float64
	hActivity []float64
}

func (s *shard) rows() int {
	return len(s.dSlice) + len(s.uSlice) + len(s.sSlice) + len(s.hSlice)
}

func (s *shard) full() bool {
	if s.rows() < s.maxCells {
		return false
	}
	s.dropped++
	return true
}

func (s *shard) intern(p *core.Phase) int32 {
	if idx, ok := s.phaseIdx[p]; ok {
		return idx
	}
	idx := int32(len(s.phases))
	s.phases = append(s.phases, p)
	s.phaseIdx[p] = idx
	return idx
}

// Demand implements attribution.InstanceRecorder.
func (s *shard) Demand(k int, phase *core.Phase, rule core.Rule, activity float64) {
	if s.full() {
		return
	}
	s.dSlice = append(s.dSlice, int32(k))
	s.dPhase = append(s.dPhase, s.intern(phase))
	s.dKind = append(s.dKind, uint8(rule.Kind))
	s.dAmount = append(s.dAmount, rule.Amount)
	s.dActivity = append(s.dActivity, activity)
}

// Upsample implements attribution.InstanceRecorder.
func (s *shard) Upsample(k int, mStart, mEnd vtime.Time, avg, allocUnitSeconds float64) {
	if s.full() {
		return
	}
	s.uSlice = append(s.uSlice, int32(k))
	s.uStart = append(s.uStart, int64(mStart))
	s.uEnd = append(s.uEnd, int64(mEnd))
	s.uAvg = append(s.uAvg, avg)
	s.uAlloc = append(s.uAlloc, allocUnitSeconds)
}

// SliceSplit implements attribution.InstanceRecorder.
func (s *shard) SliceSplit(k int, consumption, totalExact, totalVarW, exactScale, remainder float64) {
	if s.full() {
		return
	}
	s.sSlice = append(s.sSlice, int32(k))
	s.sCons = append(s.sCons, consumption)
	s.sExact = append(s.sExact, totalExact)
	s.sVarW = append(s.sVarW, totalVarW)
	s.sScale = append(s.sScale, exactScale)
	s.sRemainder = append(s.sRemainder, remainder)
}

// Share implements attribution.InstanceRecorder.
func (s *shard) Share(k int, phase *core.Phase, rule core.Rule, activity, share float64) {
	if s.full() {
		return
	}
	s.hSlice = append(s.hSlice, int32(k))
	s.hPhase = append(s.hPhase, s.intern(phase))
	s.hShare = append(s.hShare, share)
	s.hActivity = append(s.hActivity, activity)
}
