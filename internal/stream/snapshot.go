package stream

import (
	"sort"

	"grade10/internal/attribution"
	"grade10/internal/bottleneck"
	"grade10/internal/core"
)

// WindowInstance is one resource instance's profile within one window.
type WindowInstance struct {
	Key                     string  `json:"key"`
	Capacity                float64 `json:"capacity"`
	Utilization             float64 `json:"utilization"`
	ConsumedUnitSeconds     float64 `json:"consumed_unit_seconds"`
	AttributedUnitSeconds   float64 `json:"attributed_unit_seconds"`
	UnattributedUnitSeconds float64 `json:"unattributed_unit_seconds"`
	SaturatedSlices         int     `json:"saturated_slices"`
}

// WindowBottleneck is one detected bottleneck within one window.
type WindowBottleneck struct {
	Path     string  `json:"path"`
	TypePath string  `json:"type_path"`
	Resource string  `json:"resource"`
	Machine  int     `json:"machine"`
	Kind     string  `json:"kind"`
	Seconds  float64 `json:"seconds"`
}

// WindowResult is the flushed profile of one window, the unit of the live
// view's ring buffer.
type WindowResult struct {
	Index        int                `json:"index"`
	StartSeconds float64            `json:"start_seconds"`
	EndSeconds   float64            `json:"end_seconds"`
	Slices       int                `json:"slices"`
	Coverage     float64            `json:"coverage"`
	Instances    []WindowInstance   `json:"instances"`
	Bottlenecks  []WindowBottleneck `json:"bottlenecks"`
}

// CounterValue aggregates one named counter from the log.
type CounterValue struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Last  float64 `json:"last"`
}

// OpenPhase describes a phase still executing at the watermark.
type OpenPhase struct {
	Path           string  `json:"path"`
	TypePath       string  `json:"type_path"`
	Machine        int     `json:"machine"`
	StartSeconds   float64 `json:"start_seconds"`
	RunningSeconds float64 `json:"running_seconds"`
}

// TypeSummary aggregates the closed instances of one phase type.
type TypeSummary struct {
	TypePath       string             `json:"type_path"`
	Count          int                `json:"count"`
	TotalSeconds   float64            `json:"total_seconds"`
	MeanSeconds    float64            `json:"mean_seconds"`
	MaxSeconds     float64            `json:"max_seconds"`
	BlockedSeconds map[string]float64 `json:"blocked_seconds,omitempty"`
}

// InstanceSummary aggregates one resource instance across flushed windows.
type InstanceSummary struct {
	Key                     string  `json:"key"`
	Capacity                float64 `json:"capacity"`
	Utilization             float64 `json:"utilization"`
	LastWindowUtilization   float64 `json:"last_window_utilization"`
	ConsumedUnitSeconds     float64 `json:"consumed_unit_seconds"`
	AttributedUnitSeconds   float64 `json:"attributed_unit_seconds"`
	UnattributedUnitSeconds float64 `json:"unattributed_unit_seconds"`
	SaturatedSeconds        float64 `json:"saturated_seconds"`
	Coverage                float64 `json:"coverage"`
}

// BottleneckSummary aggregates one (phase type, resource, kind) bottleneck
// across flushed windows.
type BottleneckSummary struct {
	TypePath string  `json:"type_path"`
	Resource string  `json:"resource"`
	Kind     string  `json:"kind"`
	Seconds  float64 `json:"seconds"`
	Phases   int     `json:"phases"`
	Windows  int     `json:"windows"`
}

// Snapshot is a point-in-time view of the live profile, safe to serialize
// after the engine moves on.
type Snapshot struct {
	Finalized        bool    `json:"finalized"`
	TimesliceSeconds float64 `json:"timeslice_seconds"`
	WindowSeconds    float64 `json:"window_seconds"`
	OriginSeconds    float64 `json:"origin_seconds"`
	WatermarkSeconds float64 `json:"watermark_seconds"`
	FrontierSeconds  float64 `json:"frontier_seconds"`
	// LagSeconds is the ingest lag in virtual time: how far the watermark
	// has run ahead of the flushed frontier.
	LagSeconds float64 `json:"lag_seconds"`
	// Coverage is attributed / consumed over all flushed windows.
	Coverage float64 `json:"coverage"`

	Stats Stats `json:"stats"`

	OpenPhases  []OpenPhase             `json:"open_phases"`
	PhaseTypes  []TypeSummary           `json:"phase_types"`
	Instances   []InstanceSummary       `json:"instances"`
	Bottlenecks []BottleneckSummary     `json:"bottlenecks"`
	Counters    map[string]CounterValue `json:"counters,omitempty"`
	Windows     []*WindowResult         `json:"windows"`
}

// heatKey identifies one cell of the cumulative attribution heatmap:
// attributed consumption of one phase type on one (resource, machine)
// instance, summed across flushed windows.
type heatKey struct {
	TypePath string
	Machine  int
	Resource string
}

// HeatCell is one (phase type × machine × resource) cell of the attribution
// heatmap, the render-ready aggregate behind the visual profiler's
// /api/heatmap.
type HeatCell struct {
	TypePath    string  `json:"type_path"`
	Machine     int     `json:"machine"`
	Resource    string  `json:"resource"`
	UnitSeconds float64 `json:"unit_seconds"`
}

// HeatCells returns attributed consumption per (phase type, machine,
// resource), sorted by (TypePath, Machine, Resource). Once Finalize has run
// in retain mode the cells fold the exact final profile (they then match
// /explain derivations) and final is true; before that they are the
// cumulative fold over flushed windows. Folds run in the profiles'
// deterministic instance and usage order, so the result is byte-identical
// at every parallelism.
func (e *Engine) HeatCells() (cells []HeatCell, final bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	aggs := e.heatAggs
	if out := e.finalOut; out != nil {
		aggs = map[heatKey]float64{}
		foldHeat(aggs, out.Profile, out.Slices)
		final = true
	}
	cells = make([]HeatCell, 0, len(aggs))
	for k, v := range aggs {
		cells = append(cells, HeatCell{TypePath: k.TypePath, Machine: k.Machine,
			Resource: k.Resource, UnitSeconds: v})
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.Resource < b.Resource
	})
	return cells, final
}

// foldHeat adds a profile's attributed unit·seconds over slices into aggs,
// per (phase type, machine, resource). Instances and usages iterate in the
// profile's deterministic order, so per-key accumulation is identical at
// every parallelism.
func foldHeat(aggs map[heatKey]float64, prof *attribution.Profile, slices core.Timeslices) {
	for _, ip := range prof.Instances {
		for _, u := range ip.Usage {
			tp := "?"
			if u.Phase.Type != nil {
				tp = u.Phase.Type.Path()
			}
			hk := heatKey{TypePath: tp, Machine: ip.Instance.Machine,
				Resource: ip.Instance.Resource.Name}
			aggs[hk] += u.Total(slices)
		}
	}
}

// foldWindowLocked turns one window's profile and bottleneck report into a
// WindowResult on the ring and folds it into the cumulative aggregates.
func (e *Engine) foldWindowLocked(win core.Timeslices, prof *attribution.Profile, rep *bottleneck.Report) *WindowResult {
	span := win.End.Sub(win.Start).Seconds()
	wr := &WindowResult{
		Index:        e.nextWindow,
		StartSeconds: win.Start.Seconds(),
		EndSeconds:   win.End.Seconds(),
		Slices:       win.Count,
	}

	var consumedAll, attributedAll float64
	for _, ip := range prof.Instances {
		consumed, attributed, unattributed := ip.Totals(win)
		capacity := ip.Instance.Resource.Capacity
		util := 0.0
		if capacity > 0 && span > 0 {
			util = consumed / (capacity * span)
		}
		key := ip.Instance.Key()
		sat := len(rep.Saturated[key])
		wr.Instances = append(wr.Instances, WindowInstance{
			Key: key, Capacity: capacity, Utilization: util,
			ConsumedUnitSeconds: consumed, AttributedUnitSeconds: attributed,
			UnattributedUnitSeconds: unattributed, SaturatedSlices: sat,
		})
		agg := e.instAggs[key]
		if agg == nil {
			agg = &instAgg{}
			e.instAggs[key] = agg
		}
		agg.consumed += consumed
		agg.attributed += attributed
		agg.unattributed += unattributed
		agg.satSeconds += float64(sat) * e.cfg.Timeslice.Seconds()
		agg.lastUtil = util
		agg.spanSeconds += span
		consumedAll += consumed
		attributedAll += attributed
	}
	foldHeat(e.heatAggs, prof, win)
	if consumedAll > 0 {
		wr.Coverage = attributedAll / consumedAll
	}

	if len(rep.Bottlenecks) > 0 {
		wr.Bottlenecks = make([]WindowBottleneck, 0, len(rep.Bottlenecks))
	}
	for i := range rep.Bottlenecks {
		b := &rep.Bottlenecks[i]
		wr.Bottlenecks = append(wr.Bottlenecks, WindowBottleneck{
			Path: b.Phase.Path, TypePath: b.Phase.Type.Path(), Resource: b.Resource,
			Machine: b.Machine, Kind: b.Kind.String(), Seconds: b.Time.Seconds(),
		})
	}
	for _, r := range rep.Rows {
		k := bottleneckKey{TypePath: r.TypePath, Resource: r.Resource, Kind: r.Kind}
		agg := e.btlAggs[k]
		if agg == nil {
			agg = &bottleneckAgg{}
			e.btlAggs[k] = agg
		}
		agg.Time += r.Time
		agg.Phases += r.Phases
		agg.Windows++
	}

	var ring []*WindowResult
	if p := e.windows.Load(); p != nil {
		ring = *p
	}
	// Appending writes past every published length; evicting copies, so a
	// reader's ring is never rewritten.
	ring = append(ring, wr)
	if over := len(ring) - e.cfg.MaxWindows; over > 0 {
		ring = append([]*WindowResult(nil), ring[over:]...)
	}
	e.windows.Store(&ring)
	e.stats.WindowsFlushed++
	return wr
}

// Windows returns the retained window ring, oldest first: the last
// MaxWindows flushed windows. It takes no engine lock, so it answers even
// while a window flush or Finalize holds the engine (a diagnostics bundle
// captures it during exactly such incidents).
func (e *Engine) Windows() []*WindowResult {
	if p := e.windows.Load(); p != nil {
		return append([]*WindowResult(nil), (*p)...)
	}
	return nil
}

// Stats returns the engine's counters, with the line-parser statistics
// merged in.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.statsLocked()
}

func (e *Engine) statsLocked() Stats {
	st := e.stats
	ps := e.parser.Stats()
	st.Lines = int64(ps.Lines)
	st.ParseErrors = int64(ps.Skipped)
	st.Truncated += int64(ps.Truncated)
	return st
}

// Snapshot captures the live profile. The result shares no mutable state
// with the engine except the immutable WindowResult ring entries.
func (e *Engine) Snapshot() Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()

	snap := Snapshot{
		Finalized:        e.finalized.Load(),
		TimesliceSeconds: e.cfg.Timeslice.Seconds(),
		WindowSeconds:    e.windowDur().Seconds(),
		OriginSeconds:    e.origin.Seconds(),
		WatermarkSeconds: e.watermark.Seconds(),
		FrontierSeconds:  e.frontier.Seconds(),
		Stats:            e.statsLocked(),
		Windows:          e.Windows(),
	}
	if e.originSet && e.watermark > e.frontier {
		snap.LagSeconds = e.watermark.Sub(e.frontier).Seconds()
	}

	for _, ph := range e.tree.Open() {
		tp := ""
		if ph.Type != nil {
			tp = ph.Type.Path()
		}
		snap.OpenPhases = append(snap.OpenPhases, OpenPhase{
			Path: ph.Path, TypePath: tp, Machine: ph.Machine,
			StartSeconds:   ph.Start.Seconds(),
			RunningSeconds: e.watermark.Sub(ph.Start).Seconds(),
		})
	}
	sort.Slice(snap.OpenPhases, func(i, j int) bool {
		return snap.OpenPhases[i].Path < snap.OpenPhases[j].Path
	})

	for t, ta := range e.typeAggs {
		ts := TypeSummary{
			TypePath:     t.Path(),
			Count:        ta.Count,
			TotalSeconds: ta.Total.Seconds(),
			MeanSeconds:  ta.Total.Seconds() / float64(ta.Count),
			MaxSeconds:   ta.Max.Seconds(),
		}
		if len(ta.Blocked) > 0 {
			ts.BlockedSeconds = map[string]float64{}
			for res, d := range ta.Blocked {
				ts.BlockedSeconds[res] = d.Seconds()
			}
		}
		snap.PhaseTypes = append(snap.PhaseTypes, ts)
	}
	sort.Slice(snap.PhaseTypes, func(i, j int) bool {
		return snap.PhaseTypes[i].TypePath < snap.PhaseTypes[j].TypePath
	})

	for _, f := range e.feedOrder {
		agg := e.instAggs[f.key]
		if agg == nil {
			continue // no flushed window has profiled it yet
		}
		capacity := f.capacity
		is := InstanceSummary{
			Key: f.key, Capacity: capacity,
			LastWindowUtilization:   agg.lastUtil,
			ConsumedUnitSeconds:     agg.consumed,
			AttributedUnitSeconds:   agg.attributed,
			UnattributedUnitSeconds: agg.unattributed,
			SaturatedSeconds:        agg.satSeconds,
		}
		if capacity > 0 && agg.spanSeconds > 0 {
			is.Utilization = agg.consumed / (capacity * agg.spanSeconds)
		}
		if agg.consumed > 0 {
			is.Coverage = agg.attributed / agg.consumed
		}
		snap.Instances = append(snap.Instances, is)
	}
	sort.Slice(snap.Instances, func(i, j int) bool {
		return snap.Instances[i].Key < snap.Instances[j].Key
	})
	// Accumulate cluster coverage over the sorted instances, not the map
	// iteration: float addition order must not leak map randomization into
	// the snapshot (the UI view models are byte-identical by contract).
	var consumedAll, attributedAll float64
	for _, is := range snap.Instances {
		consumedAll += is.ConsumedUnitSeconds
		attributedAll += is.AttributedUnitSeconds
	}
	if consumedAll > 0 {
		snap.Coverage = attributedAll / consumedAll
	}

	for k, agg := range e.btlAggs {
		snap.Bottlenecks = append(snap.Bottlenecks, BottleneckSummary{
			TypePath: k.TypePath, Resource: k.Resource, Kind: k.Kind.String(),
			Seconds: agg.Time.Seconds(), Phases: agg.Phases, Windows: agg.Windows,
		})
	}
	sort.Slice(snap.Bottlenecks, func(i, j int) bool {
		a, b := snap.Bottlenecks[i], snap.Bottlenecks[j]
		if a.TypePath != b.TypePath {
			return a.TypePath < b.TypePath
		}
		if a.Resource != b.Resource {
			return a.Resource < b.Resource
		}
		return a.Kind < b.Kind
	})

	if len(e.counters) > 0 {
		snap.Counters = map[string]CounterValue{}
		for name, c := range e.counters {
			snap.Counters[name] = *c
		}
	}
	return snap
}
