package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"

	"grade10/internal/core"
	"grade10/internal/issues"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// Fig6Worker is one row of Figure 6: the per-thread durations of one
// worker's Gather step in the inspected iteration.
type Fig6Worker struct {
	Worker    int
	Durations []vtime.Duration
	Median    vtime.Duration
}

// Fig6Result reproduces Figure 6 and the §IV-D bug analysis.
type Fig6Result struct {
	// Iteration is the inspected gather step (the one with the worst
	// straggler).
	Iteration int
	// Workers holds per-worker thread durations for that step.
	Workers []Fig6Worker
	// StepSlowdown is slowest-outlier / slowest-clean-thread for the
	// inspected step (the paper reports 2.38×).
	StepSlowdown float64
	// WorstThreadRatio is the outlier's duration over its worker's mean
	// (the paper reports 2.88×).
	WorstThreadRatio float64
	// AffectedSteps / TotalSteps: how many non-trivial gather steps contain
	// an outlier (the paper reports 20%).
	AffectedSteps, TotalSteps int
	// SlowdownMin/Max bound the step slowdowns across affected steps (the
	// paper reports 1.10–2.50×).
	SlowdownMin, SlowdownMax float64
}

// Figure6 reproduces Figure 6: CDLP on the GAS engine with the
// synchronization bug enabled; Grade10's outlier detection localizes the
// straggling gather threads that expose the bug.
func Figure6() (*Fig6Result, error) {
	spec := workload.Spec{Dataset: workload.Datasets()[1], Algorithm: "cdlp"}
	run, err := workload.RunPowerGraph(spec, PowerGraphConfig(2, true))
	if err != nil {
		return nil, err
	}
	out, err := run.Characterize(MonitorInterval, Timeslice)
	if err != nil {
		return nil, err
	}
	return fig6FromTrace(out.Trace)
}

func fig6FromTrace(tr *core.ExecutionTrace) (*Fig6Result, error) {
	// Outlier detection over gather-thread groups. Steps in this simulation
	// last tens of milliseconds, not the paper's seconds; "non-trivial"
	// scales accordingly.
	minStep := 10 * vtime.Millisecond
	outs := issues.DetectOutliers(tr, issues.Config{MinOutlierGroupDuration: minStep})
	gatherOutliers := filterGather(outs)
	if len(gatherOutliers) == 0 {
		return nil, fmt.Errorf("fig6: no gather outliers detected (bug not manifest)")
	}

	// The inspected step: the gather iteration holding the worst straggler.
	worst := gatherOutliers[0]
	iteration := iterationOf(worst.Phase)

	res := &Fig6Result{
		Iteration:        iteration,
		StepSlowdown:     worst.StepSlowdown,
		WorstThreadRatio: worst.Ratio,
	}

	// Collect per-worker thread durations for that iteration's gather.
	gatherThreads := map[int][]vtime.Duration{}
	tr.Root.Walk(func(p *core.Phase) {
		if p.Type == nil || !strings.HasSuffix(p.Type.Path(), "/gather/thread") {
			return
		}
		if iterationOf(p) != iteration {
			return
		}
		gatherThreads[p.Machine] = append(gatherThreads[p.Machine], p.Duration())
	})
	var workers []int
	for w := range gatherThreads {
		workers = append(workers, w)
	}
	sort.Ints(workers)
	for _, w := range workers {
		durs := gatherThreads[w]
		sorted := append([]vtime.Duration(nil), durs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		res.Workers = append(res.Workers, Fig6Worker{
			Worker: w, Durations: durs, Median: sorted[len(sorted)/2],
		})
	}

	// Aggregate statistics over all non-trivial gather steps: a step is a
	// (iteration, all workers) gather group.
	affected := map[string]float64{} // group key → slowdown
	for _, o := range gatherOutliers {
		key := groupKeyOf(o.Phase)
		if o.StepSlowdown > affected[key] {
			affected[key] = o.StepSlowdown
		}
	}
	total := map[string]bool{}
	tr.Root.Walk(func(p *core.Phase) {
		if p.Type == nil || !strings.HasSuffix(p.Type.Path(), "/gather/thread") {
			return
		}
		if p.Duration() >= minStep {
			total[groupKeyOf(p)] = true
		}
	})
	res.TotalSteps = len(total)
	res.AffectedSteps = len(affected)
	for _, s := range affected {
		if res.SlowdownMin == 0 || s < res.SlowdownMin {
			res.SlowdownMin = s
		}
		if s > res.SlowdownMax {
			res.SlowdownMax = s
		}
	}
	return res, nil
}

func filterGather(outs []issues.Outlier) []issues.Outlier {
	var g []issues.Outlier
	for _, o := range outs {
		if o.Phase.Type != nil && strings.HasSuffix(o.Phase.Type.Path(), "/gather/thread") {
			g = append(g, o)
		}
	}
	return g
}

// iterationOf walks up to the iteration ancestor and returns its index.
func iterationOf(p *core.Phase) int {
	for q := p; q != nil; q = q.Parent {
		if q.Type != nil && q.Type.Sequential {
			return q.Index()
		}
	}
	return -1
}

// groupKeyOf identifies the concurrency group (iteration-level gather step)
// of a gather thread.
func groupKeyOf(p *core.Phase) string {
	for q := p; q != nil; q = q.Parent {
		if q.Type != nil && q.Type.Sequential {
			return q.Path
		}
	}
	return "/"
}

// PrintFig6 renders the per-worker thread durations and the bug statistics.
func PrintFig6(w io.Writer, r *Fig6Result) {
	fmt.Fprintf(w, "Gather step of iteration %d — per-thread durations:\n", r.Iteration)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKER\tMEDIAN\tTHREADS (sorted)")
	for _, wk := range r.Workers {
		sorted := append([]vtime.Duration(nil), wk.Durations...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		strs := make([]string, len(sorted))
		for i, d := range sorted {
			strs[i] = d.String()
		}
		fmt.Fprintf(tw, "%d\t%v\t%s\n", wk.Worker, wk.Median, strings.Join(strs, " "))
	}
	tw.Flush()
	fmt.Fprintf(w, "worst straggler: %.2fx its worker's mean; step slowed %.2fx\n",
		r.WorstThreadRatio, r.StepSlowdown)
	fmt.Fprintf(w, "outliers affect %d of %d non-trivial gather steps (%.0f%%), slowdowns %.2f–%.2fx\n",
		r.AffectedSteps, r.TotalSteps,
		100*float64(r.AffectedSteps)/float64(max(1, r.TotalSteps)),
		r.SlowdownMin, r.SlowdownMax)
}
