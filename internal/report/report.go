// Package report renders Grade10 outputs for humans and downstream tooling:
// phase-type summaries, bottleneck tables, issue lists, ASCII utilization
// timelines, and CSV exports (the paper's component 10, result
// visualization, rendered as text).
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"grade10/internal/bottleneck"
	"grade10/internal/core"
	"grade10/internal/explain"
	"grade10/internal/grade10"
	"grade10/internal/issues"
	"grade10/internal/vtime"
)

// TypeSummary aggregates all instances of one phase type.
type TypeSummary struct {
	TypePath string
	core.PhaseStats
}

// Summarize computes per-type phase statistics from a trace.
func Summarize(tr *core.ExecutionTrace) []TypeSummary {
	byType := map[*core.PhaseType]core.PhaseStats{}
	tr.Root.Walk(func(p *core.Phase) {
		if p.Type == nil {
			return
		}
		st := byType[p.Type]
		st.Add(p)
		byType[p.Type] = st
	})
	out := make([]TypeSummary, 0, len(byType))
	for t, st := range byType {
		out = append(out, TypeSummary{TypePath: t.Path(), PhaseStats: st})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TypePath < out[j].TypePath })
	return out
}

// WriteSummary renders the phase-type table.
func WriteSummary(w io.Writer, out *grade10.Output) error {
	fmt.Fprintf(w, "execution span: %v .. %v (makespan %v, %d timeslices of %v)\n",
		out.Trace.Start, out.Trace.End, out.Trace.End.Sub(out.Trace.Start),
		out.Slices.Count, out.Slices.Width)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PHASE TYPE\tCOUNT\tTOTAL\tMEAN\tMAX\tBLOCKED")
	for _, ts := range Summarize(out.Trace) {
		fmt.Fprintf(tw, "%s\t%d\t%v\t%v\t%v\t%s\n",
			ts.TypePath, ts.Count, ts.Total, ts.Mean(), ts.Max, blockedString(ts.Blocked))
	}
	return tw.Flush()
}

func blockedString(m map[string]vtime.Duration) string {
	if len(m) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, m[k]))
	}
	return strings.Join(parts, " ")
}

// WriteBottlenecks renders the bottleneck table, one line per row of the
// detection report.
func WriteBottlenecks(w io.Writer, out *grade10.Output) error {
	rows := out.Bottlenecks.Rows
	if len(rows) == 0 {
		fmt.Fprintln(w, "no bottlenecks detected")
		return nil
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "PHASE TYPE\tRESOURCE\tKIND\tPHASES\tTOTAL TIME\tEVIDENCE")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%v\t%s\n", r.TypePath, r.Resource, r.Kind,
			r.Phases, r.Time, evidenceSummary(r))
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "evidence pointers (paste into grade10 -explain '...' or GET /explain?q=...):")
	for _, r := range rows {
		fmt.Fprintf(w, "  %s\n", explainQuery(r))
	}
	return nil
}

// explainQuery renders the provenance query resolving a row's evidence, for
// grade10 -explain or GET /explain?q=.
func explainQuery(r bottleneck.Row) string {
	q := explain.Query{Phase: r.TypePath, Resource: r.Resource}
	if r.EvEnd > r.EvStart {
		q.T0, q.T1, q.HasRange = r.EvStart, r.EvEnd, true
	}
	return q.String()
}

// evidenceSummary renders the one-line evidence cell of a bottleneck row.
func evidenceSummary(r bottleneck.Row) string {
	if r.Intervals == 0 {
		return "-"
	}
	return fmt.Sprintf("%d interval(s) %v..%v", r.Intervals, r.EvStart, r.EvEnd)
}

// WriteIssues renders the detected performance issues and outliers.
func WriteIssues(w io.Writer, out *grade10.Output) error {
	if len(out.Issues.Issues) == 0 {
		fmt.Fprintln(w, "no performance issues above threshold")
	}
	for _, is := range out.Issues.Issues {
		fmt.Fprintf(w, "[%s] %s\n", is.Kind, is.Describe())
		if line := issueEvidence(is); line != "" {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
	if len(out.Issues.Outliers) > 0 {
		fmt.Fprintf(w, "stragglers (%d):\n", len(out.Issues.Outliers))
		for _, o := range out.Issues.Outliers {
			fmt.Fprintf(w, "  %s: %.2fx its siblings, slows the step %.2fx\n",
				o.Phase.Path, o.Ratio, o.StepSlowdown)
		}
	}
	if u := out.Issues.Underutilization; u.Fraction > 0.05 {
		fmt.Fprintf(w, "underutilization: %.0f%% of the run is active but below %.0f%% on every resource (%v)\n",
			u.Fraction*100, u.Threshold*100, u.Time)
	}
	for _, b := range out.Issues.Burstiness {
		if b.CoV < 1.0 {
			continue // only report pronounced burstiness
		}
		fmt.Fprintf(w, "burstiness: %s varies strongly across timeslices (CoV %.2f, peak %.1fx mean)\n",
			b.InstanceKey, b.CoV, b.PeakToMean)
	}
	return nil
}

// issueEvidence renders an issue's replay-delta trail as a one-line
// evidence summary with a provenance query pointing at the most-affected
// phase type.
func issueEvidence(is issues.Issue) string {
	if len(is.Trail) == 0 {
		return ""
	}
	top := is.Trail[0]
	q := explain.Query{Phase: top.TypePath, Resource: is.Resource}
	return fmt.Sprintf("evidence: replay changed %d phase type(s); top %s (%d phases, Δ%v); explain: %s",
		len(is.Trail), top.TypePath, top.Phases, vtime.Duration(top.DeltaNS), q.String())
}

// sparkLevels are the eight block characters used for timelines.
var sparkLevels = []rune(" ▁▂▃▄▅▆▇█")

// Sparkline renders values scaled to [0, max] as unicode blocks.
func Sparkline(values []float64, max float64) string {
	if max <= 0 {
		max = 1
	}
	var sb strings.Builder
	for _, v := range values {
		idx := int(v / max * float64(len(sparkLevels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		sb.WriteRune(sparkLevels[idx])
	}
	return sb.String()
}

// WriteUtilization renders a per-resource-instance utilization timeline.
func WriteUtilization(w io.Writer, out *grade10.Output, maxColumns int) error {
	if maxColumns <= 0 {
		maxColumns = 80
	}
	for _, ip := range out.Profile.Instances {
		capacity := ip.Instance.Resource.Capacity
		vals := downsampleColumns(ip.Consumption, maxColumns)
		avg := 0.0
		for _, c := range ip.Consumption {
			avg += c
		}
		if out.Slices.Count > 0 {
			avg /= float64(out.Slices.Count)
		}
		fmt.Fprintf(w, "%-14s |%s| avg %5.1f%%\n",
			ip.Instance.Key(), Sparkline(vals, capacity), avg/capacity*100)
	}
	return nil
}

func downsampleColumns(vals []float64, cols int) []float64 {
	if len(vals) <= cols {
		return vals
	}
	out := make([]float64, cols)
	per := float64(len(vals)) / float64(cols)
	for i := 0; i < cols; i++ {
		lo := int(float64(i) * per)
		hi := int(float64(i+1) * per)
		if hi > len(vals) {
			hi = len(vals)
		}
		if hi <= lo {
			hi = lo + 1
		}
		sum := 0.0
		for _, v := range vals[lo:hi] {
			sum += v
		}
		out[i] = sum / float64(hi-lo)
	}
	return out
}

// WriteConsumptionCSV exports the upsampled per-slice consumption of every
// resource instance: one row per timeslice, one column per instance.
func WriteConsumptionCSV(w io.Writer, out *grade10.Output) error {
	cols := out.Profile.Instances
	fmt.Fprint(w, "slice,start_ns")
	for _, ip := range cols {
		fmt.Fprintf(w, ",%s", ip.Instance.Key())
	}
	fmt.Fprintln(w)
	for k := 0; k < out.Slices.Count; k++ {
		t0, _ := out.Slices.Bounds(k)
		fmt.Fprintf(w, "%d,%d", k, int64(t0))
		for _, ip := range cols {
			fmt.Fprintf(w, ",%.6g", ip.Consumption[k])
		}
		fmt.Fprintln(w)
	}
	return nil
}

// WriteAll renders the full report.
func WriteAll(w io.Writer, out *grade10.Output) error {
	if err := WriteSummary(w, out); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== phase timeline ==")
	if err := WriteTimeline(w, out, 80); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== resource utilization (upsampled) ==")
	if err := WriteUtilization(w, out, 80); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== replayed critical path ==")
	if err := WriteCriticalPath(w, out); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== bottlenecks ==")
	if err := WriteBottlenecks(w, out); err != nil {
		return err
	}
	fmt.Fprintln(w, "\n== performance issues ==")
	return WriteIssues(w, out)
}
