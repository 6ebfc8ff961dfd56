package ui

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"grade10/internal/bottleneck"
	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/stream"
)

// The view models in this file are render-ready JSON shapes for the embedded
// profiler: the server does all joining and aggregation so the browser only
// draws. Every builder consumes deterministic inputs (sorted snapshots, the
// engine's ordered heat aggregates, the final profile's deterministic
// instance order) and sorts its own output, so the marshaled bytes are
// identical at every engine parallelism — golden-tested in viewmodel_test.go.

// Overview is the header view model: run identity, progress, and the
// already-sorted snapshot summaries the side panels render.
type Overview struct {
	Mode             string  `json:"mode"` // "single" or "fleet"
	Run              string  `json:"run,omitempty"`
	Finalized        bool    `json:"finalized"`
	WatermarkSeconds float64 `json:"watermark_seconds"`
	FrontierSeconds  float64 `json:"frontier_seconds"`
	LagSeconds       float64 `json:"lag_seconds"`
	Coverage         float64 `json:"coverage"`
	WindowSeconds    float64 `json:"window_seconds"`

	Machines  []int    `json:"machines"`
	Resources []string `json:"resources"`

	OpenPhases  []stream.OpenPhase         `json:"open_phases"`
	PhaseTypes  []stream.TypeSummary       `json:"phase_types"`
	Bottlenecks []stream.BottleneckSummary `json:"bottlenecks"`
	Stats       stream.Stats               `json:"stats"`

	// SSE marks /api/events as live; Explain marks /explain click-through as
	// available: the run is finalized with a retained profile.
	SSE     bool `json:"sse"`
	Explain bool `json:"explain"`
}

// HeatmapCell is one (machine, resource) cell of one heatmap row.
type HeatmapCell struct {
	Machine     int     `json:"machine"`
	Resource    string  `json:"resource"`
	UnitSeconds float64 `json:"unit_seconds"`
	// Share is this cell's fraction of the (machine, resource) column's
	// attributed total — the color scale.
	Share float64 `json:"share"`
	// Query, on leaf rows, is the /explain?q= query whose derivation chain
	// sums to exactly this cell.
	Query string `json:"query,omitempty"`
}

// HeatmapRow is one phase type in the hierarchical heatmap. Non-leaf rows
// aggregate their descendants' cells.
type HeatmapRow struct {
	TypePath         string        `json:"type_path"`
	Depth            int           `json:"depth"`
	Leaf             bool          `json:"leaf"`
	TotalUnitSeconds float64       `json:"total_unit_seconds"`
	Cells            []HeatmapCell `json:"cells"`
}

// Heatmap is the phase-type tree × machine attribution heatmap.
type Heatmap struct {
	// Source is "final" when built from the exact finalized profile (cells
	// match /explain derivations bit-for-bit) or "windows" when folded from
	// the flushed-window aggregates mid-run.
	Source    string       `json:"source"`
	Machines  []int        `json:"machines"`
	Resources []string     `json:"resources"`
	Rows      []HeatmapRow `json:"rows"`
}

// TimelineSpan is one phase instance on a machine lane (final mode).
type TimelineSpan struct {
	Path         string  `json:"path"`
	TypePath     string  `json:"type_path"`
	Depth        int     `json:"depth"`
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
	Query        string  `json:"query,omitempty"`
}

// TimelineBlock is one blocked interval inside a phase.
type TimelineBlock struct {
	Path         string  `json:"path"`
	Resource     string  `json:"resource"`
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
}

// TimelineMark is one detected bottleneck, placed at its evidence bounds.
type TimelineMark struct {
	Path         string  `json:"path,omitempty"`
	TypePath     string  `json:"type_path"`
	Resource     string  `json:"resource"`
	Kind         string  `json:"kind"`
	Seconds      float64 `json:"seconds"`
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
}

// TimelineSegment is one window × resource utilization segment (live mode).
type TimelineSegment struct {
	Resource     string  `json:"resource"`
	WindowIndex  int     `json:"window_index"`
	StartSeconds float64 `json:"start_seconds"`
	EndSeconds   float64 `json:"end_seconds"`
	Utilization  float64 `json:"utilization"`
}

// TimelineLane is one machine's lane (-1 is the cluster-global lane).
type TimelineLane struct {
	Machine  int               `json:"machine"`
	Spans    []TimelineSpan    `json:"spans,omitempty"`
	Blocked  []TimelineBlock   `json:"blocked,omitempty"`
	Segments []TimelineSegment `json:"segments,omitempty"`
	Marks    []TimelineMark    `json:"marks,omitempty"`
}

// Timeline is the per-machine execution timeline. Final mode carries the
// full phase tree as spans; live mode carries window utilization segments
// (the live phase tree is pruned as windows retire, so spans only exist once
// the retained run finalizes).
type Timeline struct {
	Source       string         `json:"source"` // "final" or "windows"
	StartSeconds float64        `json:"start_seconds"`
	EndSeconds   float64        `json:"end_seconds"`
	Lanes        []TimelineLane `json:"lanes"`
}

// Comms is the cross-machine communication matrix. Monitoring records only
// per-machine net-in/net-out totals — never per-pair flows — so Matrix is a
// proportional-allocation estimate: machine i's attributed net-out is split
// across receivers j≠i in proportion to their attributed net-in. Estimate is
// always true to keep the UI honest about it.
type Comms struct {
	Source         string      `json:"source"`
	Estimate       bool        `json:"estimate"`
	Machines       []int       `json:"machines"`
	OutUnitSeconds []float64   `json:"out_unit_seconds"`
	InUnitSeconds  []float64   `json:"in_unit_seconds"`
	Matrix         [][]float64 `json:"matrix"` // [from][to]
}

// parseInstanceKey splits a resource instance key ("cpu@2", "lock@global")
// into resource name and machine index.
func parseInstanceKey(key string) (resource string, machine int, ok bool) {
	res, m, found := strings.Cut(key, "@")
	if !found || res == "" {
		return "", 0, false
	}
	if m == "global" {
		return res, core.GlobalMachine, true
	}
	n, err := strconv.Atoi(m)
	if err != nil {
		return "", 0, false
	}
	return res, n, true
}

// machinesAndResources derives the sorted machine and resource axes from the
// snapshot's instance summaries.
func machinesAndResources(instances []stream.InstanceSummary) ([]int, []string) {
	ms, rs := map[int]bool{}, map[string]bool{}
	for _, is := range instances {
		if res, m, ok := parseInstanceKey(is.Key); ok {
			ms[m] = true
			rs[res] = true
		}
	}
	machines := make([]int, 0, len(ms))
	for m := range ms {
		machines = append(machines, m)
	}
	sort.Ints(machines)
	resources := make([]string, 0, len(rs))
	for r := range rs {
		resources = append(resources, r)
	}
	sort.Strings(resources)
	return machines, resources
}

// buildOverview shapes one engine snapshot into the Overview view model.
func buildOverview(snap stream.Snapshot, mode, run string, sse, explainable bool) *Overview {
	machines, resources := machinesAndResources(snap.Instances)
	return &Overview{
		Mode: mode, Run: run,
		Finalized:        snap.Finalized,
		WatermarkSeconds: snap.WatermarkSeconds,
		FrontierSeconds:  snap.FrontierSeconds,
		LagSeconds:       snap.LagSeconds,
		Coverage:         snap.Coverage,
		WindowSeconds:    snap.WindowSeconds,
		Machines:         machines,
		Resources:        resources,
		OpenPhases:       emptyNotNil(snap.OpenPhases),
		PhaseTypes:       emptyNotNil(snap.PhaseTypes),
		Bottlenecks:      emptyNotNil(snap.Bottlenecks),
		Stats:            snap.Stats,
		SSE:              sse,
		Explain:          explainable,
	}
}

// emptyNotNil keeps empty slices rendering as [] instead of null.
func emptyNotNil[T any](s []T) []T {
	if s == nil {
		return []T{}
	}
	return s
}

// explainQuery renders the /explain?q= query reproducing one heat cell.
func explainQuery(typePath string, machine int, resource string) string {
	m := "global"
	if machine != core.GlobalMachine {
		m = strconv.Itoa(machine)
	}
	return fmt.Sprintf("phase=%s machine=%s resource=%s", typePath, m, resource)
}

// buildHeatmap shapes heat cells into the hierarchical heatmap: one leaf row
// per attributed phase type, ancestor rows aggregating their subtrees, cells
// colored by share of the (machine, resource) column total.
func buildHeatmap(cells []stream.HeatCell, source string) *Heatmap {
	type colKey struct {
		m   int
		res string
	}
	colTotals := map[colKey]float64{}
	ms, rs := map[int]bool{}, map[string]bool{}
	for _, c := range cells {
		colTotals[colKey{c.Machine, c.Resource}] += c.UnitSeconds
		ms[c.Machine] = true
		rs[c.Resource] = true
	}

	// Leaf rows from the cells; ancestor rows aggregate every strict prefix
	// of each leaf path.
	type cellAgg map[colKey]float64
	rows := map[string]cellAgg{}
	leaves := map[string]bool{}
	addCell := func(tp string, k colKey, v float64) {
		agg := rows[tp]
		if agg == nil {
			agg = cellAgg{}
			rows[tp] = agg
		}
		agg[k] += v
	}
	for _, c := range cells {
		k := colKey{c.Machine, c.Resource}
		leaves[c.TypePath] = true
		addCell(c.TypePath, k, c.UnitSeconds)
		for _, anc := range ancestors(c.TypePath) {
			addCell(anc, k, c.UnitSeconds)
		}
	}

	paths := make([]string, 0, len(rows))
	for tp := range rows {
		paths = append(paths, tp)
	}
	sort.Strings(paths)

	hm := &Heatmap{Source: source, Rows: []HeatmapRow{}}
	for m := range ms {
		hm.Machines = append(hm.Machines, m)
	}
	sort.Ints(hm.Machines)
	for r := range rs {
		hm.Resources = append(hm.Resources, r)
	}
	sort.Strings(hm.Resources)

	for _, tp := range paths {
		leaf := leaves[tp]
		row := HeatmapRow{
			TypePath: tp,
			Depth:    strings.Count(tp, "/") - 1,
			Leaf:     leaf,
			Cells:    []HeatmapCell{},
		}
		agg := rows[tp]
		keys := make([]colKey, 0, len(agg))
		for k := range agg {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].m != keys[j].m {
				return keys[i].m < keys[j].m
			}
			return keys[i].res < keys[j].res
		})
		for _, k := range keys {
			v := agg[k]
			cell := HeatmapCell{Machine: k.m, Resource: k.res, UnitSeconds: v}
			if total := colTotals[k]; total > 0 {
				cell.Share = v / total
			}
			if leaf {
				cell.Query = explainQuery(tp, k.m, k.res)
			}
			row.Cells = append(row.Cells, cell)
			row.TotalUnitSeconds += v
		}
		hm.Rows = append(hm.Rows, row)
	}
	return hm
}

// ancestors returns the strict prefixes of a type path: "/a/b/c" → "/a",
// "/a/b".
func ancestors(typePath string) []string {
	var out []string
	for i := 1; i < len(typePath); i++ {
		if typePath[i] == '/' {
			out = append(out, typePath[:i])
		}
	}
	return out
}

// pathDepth counts the instance-path segments, for span nesting.
func pathDepth(path string) int { return strings.Count(path, "/") }

// buildFinalTimeline walks the exact finalized trace into machine lanes,
// with the final bottleneck report's rows as marks at their evidence bounds.
func buildFinalTimeline(trace *core.ExecutionTrace, rep *bottleneck.Report) *Timeline {
	tl := &Timeline{
		Source:       "final",
		StartSeconds: trace.Start.Seconds(),
		EndSeconds:   trace.End.Seconds(),
	}
	lanes := map[int]*TimelineLane{}
	lane := func(m int) *TimelineLane {
		l := lanes[m]
		if l == nil {
			l = &TimelineLane{Machine: m}
			lanes[m] = l
		}
		return l
	}
	trace.Root.Walk(func(p *core.Phase) {
		if p.Type == nil {
			return // synthetic root
		}
		tp := p.Type.Path()
		span := TimelineSpan{
			Path:         p.Path,
			TypePath:     tp,
			Depth:        pathDepth(p.Path),
			StartSeconds: p.Start.Seconds(),
			EndSeconds:   p.End.Seconds(),
		}
		if p.IsLeaf() {
			m := "global"
			if p.Machine != core.GlobalMachine {
				m = strconv.Itoa(p.Machine)
			}
			span.Query = fmt.Sprintf("phase=%s machine=%s", tp, m)
		}
		l := lane(p.Machine)
		l.Spans = append(l.Spans, span)
		for _, b := range p.Blocked {
			l.Blocked = append(l.Blocked, TimelineBlock{
				Path: p.Path, Resource: b.Resource,
				StartSeconds: b.Start.Seconds(), EndSeconds: b.End.Seconds(),
			})
		}
	})
	if rep != nil {
		for _, b := range rep.Bottlenecks {
			tp := b.Phase.Path
			if b.Phase.Type != nil {
				tp = b.Phase.Type.Path()
			}
			lane(b.Machine).Marks = append(lane(b.Machine).Marks, TimelineMark{
				Path: b.Phase.Path, TypePath: tp, Resource: b.Resource,
				Kind: b.Kind.String(), Seconds: b.Time.Seconds(),
				StartSeconds: b.EvStart.Seconds(), EndSeconds: b.EvEnd.Seconds(),
			})
		}
	}
	tl.Lanes = sortedLanes(lanes)
	return tl
}

// buildLiveTimeline shapes the flushed-window ring into utilization lanes:
// one segment per (window, resource instance), plus the window bottlenecks
// as marks at their window bounds.
func buildLiveTimeline(snap stream.Snapshot) *Timeline {
	tl := &Timeline{Source: "windows"}
	if n := len(snap.Windows); n > 0 {
		tl.StartSeconds = snap.Windows[0].StartSeconds
		tl.EndSeconds = snap.Windows[n-1].EndSeconds
	}
	lanes := map[int]*TimelineLane{}
	lane := func(m int) *TimelineLane {
		l := lanes[m]
		if l == nil {
			l = &TimelineLane{Machine: m}
			lanes[m] = l
		}
		return l
	}
	for _, wr := range snap.Windows {
		for _, inst := range wr.Instances {
			res, m, ok := parseInstanceKey(inst.Key)
			if !ok {
				continue
			}
			lane(m).Segments = append(lane(m).Segments, TimelineSegment{
				Resource: res, WindowIndex: wr.Index,
				StartSeconds: wr.StartSeconds, EndSeconds: wr.EndSeconds,
				Utilization: inst.Utilization,
			})
		}
		for _, b := range wr.Bottlenecks {
			lane(b.Machine).Marks = append(lane(b.Machine).Marks, TimelineMark{
				Path: b.Path, TypePath: b.TypePath, Resource: b.Resource,
				Kind: b.Kind, Seconds: b.Seconds,
				StartSeconds: wr.StartSeconds, EndSeconds: wr.EndSeconds,
			})
		}
	}
	tl.Lanes = sortedLanes(lanes)
	return tl
}

func sortedLanes(lanes map[int]*TimelineLane) []TimelineLane {
	out := make([]TimelineLane, 0, len(lanes))
	for _, l := range lanes {
		out = append(out, *l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Machine < out[j].Machine })
	return out
}

// buildComms estimates the cross-machine communication matrix from the heat
// cells' per-machine net-in/net-out attribution totals.
func buildComms(cells []stream.HeatCell, source string) *Comms {
	outBy, inBy := map[int]float64{}, map[int]float64{}
	ms := map[int]bool{}
	for _, c := range cells {
		switch c.Resource {
		case cluster.ResNetOut:
			outBy[c.Machine] += c.UnitSeconds
			ms[c.Machine] = true
		case cluster.ResNetIn:
			inBy[c.Machine] += c.UnitSeconds
			ms[c.Machine] = true
		}
	}
	cm := &Comms{Source: source, Estimate: true,
		Machines: []int{}, OutUnitSeconds: []float64{}, InUnitSeconds: []float64{},
		Matrix: [][]float64{}}
	for m := range ms {
		if m != core.GlobalMachine {
			cm.Machines = append(cm.Machines, m)
		}
	}
	sort.Ints(cm.Machines)
	for _, m := range cm.Machines {
		cm.OutUnitSeconds = append(cm.OutUnitSeconds, outBy[m])
		cm.InUnitSeconds = append(cm.InUnitSeconds, inBy[m])
	}
	for i, from := range cm.Machines {
		row := make([]float64, len(cm.Machines))
		var denom float64
		for j, to := range cm.Machines {
			if j != i {
				denom += inBy[to]
			}
		}
		if denom > 0 {
			for j, to := range cm.Machines {
				if j != i {
					row[j] = outBy[from] * inBy[to] / denom
				}
			}
		}
		cm.Matrix = append(cm.Matrix, row)
	}
	return cm
}
