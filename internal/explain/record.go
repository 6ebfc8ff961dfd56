// Package explain is Grade10's provenance and explanation layer: an opt-in
// recorder that captures the full derivation chain behind every attributed
// cell (rule fired → estimated demand → upsampling allocation → capacity
// share), and a query engine that answers "why was this phase attributed X
// on this resource?" from the captured evidence — the paper's attribution
// process (§III-D) made inspectable after the fact.
//
// Provenance is stored in compact columnar shards, one per resource
// instance, appended serially by the instance's attribution job in a
// deterministic order, so explain output is byte-identical at any
// -parallelism. Memory is bounded: each shard stops recording past
// MaxCellsPerInstance rows and counts what it dropped.
package explain

import (
	"sync"

	"grade10/internal/attribution"
	"grade10/internal/core"
	"grade10/internal/vtime"
)

// DefaultMaxCellsPerInstance bounds one instance's provenance rows (summed
// over the demand, upsample, slice, and share tables). At ~50 bytes a row
// the default caps a shard near 50 MB — far above any smoke run, low enough
// that a pathological trace cannot exhaust memory silently.
const DefaultMaxCellsPerInstance = 1 << 20

// Recorder implements attribution.Recorder with per-instance columnar
// shards. One Recorder serves one attribution pass; create a fresh one per
// window or run.
type Recorder struct {
	maxCells int

	mu     sync.Mutex
	shards []*shard // indexed by rt.Instances() order; grown under mu
}

// NewRecorder creates a recorder; maxCellsPerInstance <= 0 takes the
// default bound.
func NewRecorder(maxCellsPerInstance int) *Recorder {
	if maxCellsPerInstance <= 0 {
		maxCellsPerInstance = DefaultMaxCellsPerInstance
	}
	return &Recorder{maxCells: maxCellsPerInstance}
}

// InstanceRecorder implements attribution.Recorder. Each per-instance sink
// is written serially by its attribution job; only the shard-table growth
// here is locked.
func (r *Recorder) InstanceRecorder(i int, ri *core.ResourceInstance,
	slices core.Timeslices) attribution.InstanceRecorder {
	sh := &shard{
		key:      ri.Key(),
		resource: ri.Resource.Name,
		machine:  ri.Machine,
		capacity: ri.Resource.Capacity,
		maxCells: r.maxCells,
		phaseIdx: map[*core.Phase]int32{},
	}
	r.mu.Lock()
	for len(r.shards) <= i {
		r.shards = append(r.shards, nil)
	}
	r.shards[i] = sh
	r.mu.Unlock()
	return sh
}

// shardAt returns the shard recorded for instance index i, or nil.
func (r *Recorder) shardAt(i int) *shard {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i < 0 || i >= len(r.shards) {
		return nil
	}
	return r.shards[i]
}

// Bytes returns the approximate retained size of the captured provenance,
// for the grade10_provenance_bytes gauge and memory-bound verification.
func (r *Recorder) Bytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var total int64
	for _, sh := range r.shards {
		if sh != nil {
			total += sh.bytes()
		}
	}
	return total
}

// shard holds one resource instance's provenance in columnar form: four
// append-only tables (demand, upsample, slice split, share), with phases
// interned once per shard. rows() across the tables is bounded by maxCells.
type shard struct {
	key      string
	resource string
	machine  int
	capacity float64

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

func (s *shard) bytes() int64 {
	n := len(s.dSlice)*(4+4+1+8+8) +
		len(s.uSlice)*(4+8+8+8+8) +
		len(s.sSlice)*(4+8*5) +
		len(s.hSlice)*(4+4+8+8) +
		len(s.phases)*16
	return int64(n)
}
