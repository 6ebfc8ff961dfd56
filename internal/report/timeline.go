package report

import (
	"fmt"
	"io"
	"slices"
	"sort"

	"grade10/internal/core"
	"grade10/internal/grade10"
	"grade10/internal/vtime"
)

// WriteTimeline renders an ASCII Gantt of the execution: one row per leaf
// phase type, one column per equal slice of the makespan, the cell height
// showing how many instances of that type were concurrently active (scaled
// to the row's peak concurrency). It makes iteration structure, overlap
// between compute and communication, and stalls visible at a glance.
func WriteTimeline(w io.Writer, out *grade10.Output, maxColumns int) error {
	if maxColumns <= 0 {
		maxColumns = 80
	}
	start, end := out.Trace.Start, out.Trace.End
	if end <= start {
		fmt.Fprintln(w, "empty trace")
		return nil
	}
	span := end.Sub(start)
	colDur := span / vtime.Duration(maxColumns)
	if colDur <= 0 {
		colDur = 1
		maxColumns = int(span)
	}

	// Aggregate per-type activity per column (sum of active durations). The
	// columns are timeslices of width colDur, so each leaf's activity over
	// its columns is one sweep.
	cols := core.Timeslices{Start: start, End: start.Add(vtime.Duration(maxColumns) * colDur),
		Width: colDur, Count: maxColumns}
	byType := map[string][]float64{}
	var order []string
	var act []vtime.Duration
	var st core.Stalls
	out.Trace.Root.Walk(func(p *core.Phase) {
		if p.Type == nil || !p.IsLeaf() {
			return
		}
		tp := p.Type.Path()
		row, ok := byType[tp]
		if !ok {
			row = make([]float64, maxColumns)
			byType[tp] = row
			order = append(order, tp)
		}
		first := max(int(p.Start.Sub(start)/colDur), 0)
		last := min(int((p.End.Sub(start)-1)/colDur), maxColumns-1)
		if last < first {
			return
		}
		act = slices.Grow(act[:0], last-first+1)[:last-first+1]
		p.ActiveTimes(cols, first, act, &st)
		for i, d := range act {
			row[first+i] += d.Seconds()
		}
	})
	sort.Strings(order)

	width := 0
	for _, tp := range order {
		if len(tp) > width {
			width = len(tp)
		}
	}
	for _, tp := range order {
		row := byType[tp]
		peak := 0.0
		for _, v := range row {
			if v > peak {
				peak = v
			}
		}
		fmt.Fprintf(w, "%-*s |%s|\n", width, tp, Sparkline(row, peak))
	}
	fmt.Fprintf(w, "%-*s  %v per column, span %v\n", width, "", vtime.Duration(colDur), span)
	return nil
}

// WriteCriticalPath renders the replayed critical path the issue analysis
// found: the chain of leaf phases that determines the makespan. Long runs of
// same-type steps are collapsed into one line with a count.
func WriteCriticalPath(w io.Writer, out *grade10.Output) error {
	path := out.Issues.CriticalPath
	if len(path) == 0 {
		fmt.Fprintln(w, "no critical path (empty trace)")
		return nil
	}
	type segment struct {
		typePath   string
		count      int
		start, end vtime.Time
	}
	var segs []segment
	for _, step := range path {
		tp := "?"
		if step.Phase.Type != nil {
			tp = step.Phase.Type.Path()
		}
		if n := len(segs); n > 0 && segs[n-1].typePath == tp {
			segs[n-1].count++
			segs[n-1].end = step.End
			continue
		}
		segs = append(segs, segment{typePath: tp, count: 1, start: step.Start, end: step.End})
	}
	total := path[len(path)-1].End.Sub(path[0].Start).Seconds()
	for _, s := range segs {
		share := 0.0
		if total > 0 {
			share = s.end.Sub(s.start).Seconds() / total * 100
		}
		fmt.Fprintf(w, "%6.1f%%  %v .. %v  %s ×%d\n", share, s.start, s.end, s.typePath, s.count)
	}
	return nil
}
