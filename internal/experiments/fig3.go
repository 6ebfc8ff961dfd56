package experiments

import (
	"fmt"
	"io"

	"grade10/internal/bottleneck"
	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/grade10"
	"grade10/internal/report"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// Fig3Point is one timeslice of Figure 3: the Compute phase's attributed CPU
// usage and estimated CPU demand (in cores) on one machine, and whether
// Grade10 flags a CPU bottleneck there.
type Fig3Point struct {
	Start        vtime.Time
	Usage        float64
	Demand       float64
	Bottlenecked bool
}

// Fig3Result holds both configurations of Figure 3.
type Fig3Result struct {
	// Machine is the inspected worker's machine index.
	Machine int
	// Untuned uses no attribution rules and no GC model (Figure 3a);
	// Tuned uses the full Giraph model (Figure 3b).
	Untuned, Tuned []Fig3Point
	// Cores is the machine's core count, for scaling plots.
	Cores float64
}

// Figure3 reproduces Figure 3: PageRank on the BSP engine, analyzed with and
// without attribution rules; the Compute phase's attributed usage and
// estimated demand over time, plus per-slice CPU bottleneck flags.
func Figure3() (*Fig3Result, error) {
	cfg := GiraphConfig(2)
	// Tighten the queue and heap so the run shows all three of the paper's
	// regions: sustained compute, GC pauses, and queue-full bursts.
	cfg.QueueCapacity = 512 << 10
	cfg.HeapCapacity = 8 << 20
	spec := workload.Spec{Dataset: workload.Datasets()[0], Algorithm: "pagerank"}
	run, err := workload.RunGiraph(spec, cfg)
	if err != nil {
		return nil, err
	}
	untunedModels, err := grade10.GiraphModelUntuned(grade10.ModelParams{
		Job: "pagerank", Cores: cfg.Machine.Cores,
		NetBandwidth: cfg.Machine.NetBandwidth, ThreadsPerWorker: cfg.ThreadsPerWorker,
	})
	if err != nil {
		return nil, err
	}

	monitoring, err := cluster.Monitor(run.Result.Cluster, run.Result.Start, run.Result.End,
		8*Timeslice)
	if err != nil {
		return nil, err
	}

	const machine = 0
	result := &Fig3Result{Machine: machine, Cores: cfg.Machine.Cores}

	// Untuned: no rules, GC and queue events invisible.
	untunedOut, err := grade10.Characterize(grade10.Input{
		Log:        grade10.FilterBlocking(run.Result.Log, grade10.ResGC, grade10.ResMsgQueue),
		Monitoring: monitoring,
		Models:     untunedModels,
		Timeslice:  Timeslice,
	})
	if err != nil {
		return nil, err
	}
	result.Untuned = fig3Series(untunedOut, machine)

	tunedOut, err := grade10.Characterize(grade10.Input{
		Log:        run.Result.Log,
		Monitoring: monitoring,
		Models:     run.Models,
		Timeslice:  Timeslice,
	})
	if err != nil {
		return nil, err
	}
	result.Tuned = fig3Series(tunedOut, machine)
	return result, nil
}

// fig3Series extracts the Compute-phase usage/demand/bottleneck series for
// one machine: the sum over all ComputeThread leaves, as in the paper.
func fig3Series(out *grade10.Output, machine int) []Fig3Point {
	ip := out.Profile.Get(cluster.ResCPU, machine)
	threadType := out.Trace.Root.Children[0].Type.Path() + "/execute/superstep/worker/compute/thread"
	threads := out.Trace.PhasesOfType(threadType)

	// Per-phase bottleneck slice sets on the cpu resource.
	bottleneckSlices := map[*core.Phase]map[int]bool{}
	for i := range out.Bottlenecks.Bottlenecks {
		b := &out.Bottlenecks.Bottlenecks[i]
		if b.Resource != cluster.ResCPU || b.Kind == bottleneck.Blocking {
			continue
		}
		set, ok := bottleneckSlices[b.Phase]
		if !ok {
			set = map[int]bool{}
			bottleneckSlices[b.Phase] = set
		}
		for _, k := range b.Slices {
			set[k] = true
		}
	}

	points := make([]Fig3Point, out.Slices.Count)
	for k := range points {
		t0, _ := out.Slices.Bounds(k)
		points[k].Start = t0
	}
	for _, th := range threads {
		if th.Machine != machine {
			continue
		}
		usage := ip.UsageOf(th)
		rule := out.Profile.Rules.Get(th.Type.Path(), cluster.ResCPU)
		first, last := out.Slices.Range(th.Start, th.End)
		for k := first; k < last; k++ {
			t0, t1 := out.Slices.Bounds(k)
			a := th.ActiveFraction(t0, t1)
			if a <= 0 {
				continue
			}
			// Demand estimate: Exact amount or Variable weight, in cores.
			points[k].Demand += rule.Amount * a
			if usage != nil {
				points[k].Usage += usage.Rate(k)
			}
			if bottleneckSlices[th][k] {
				points[k].Bottlenecked = true
			}
		}
	}
	return points
}

// PrintFig3 renders both configurations as aligned sparkline timelines.
func PrintFig3(w io.Writer, r *Fig3Result) {
	render := func(name string, pts []Fig3Point) {
		usage := make([]float64, len(pts))
		demand := make([]float64, len(pts))
		btl := make([]float64, len(pts))
		for i, p := range pts {
			usage[i], demand[i] = p.Usage, p.Demand
			if p.Bottlenecked {
				btl[i] = 1
			}
		}
		cols := 100
		fmt.Fprintf(w, "%s (machine %d, cores=%g)\n", name, r.Machine, r.Cores)
		fmt.Fprintf(w, "  usage      |%s|\n", report.Sparkline(resample(usage, cols), r.Cores))
		fmt.Fprintf(w, "  demand     |%s|\n", report.Sparkline(resample(demand, cols), r.Cores))
		fmt.Fprintf(w, "  bottleneck |%s|\n", report.Sparkline(resample(btl, cols), 1))
	}
	render("Figure 3a — no attribution rules", r.Untuned)
	render("Figure 3b — tuned attribution rules", r.Tuned)
}

// Fig3CSV exports the two series for plotting.
func Fig3CSV(w io.Writer, r *Fig3Result) {
	fmt.Fprintln(w, "config,slice_start_ns,usage_cores,demand_cores,bottlenecked")
	emit := func(name string, pts []Fig3Point) {
		for _, p := range pts {
			b := 0
			if p.Bottlenecked {
				b = 1
			}
			fmt.Fprintf(w, "%s,%d,%.6g,%.6g,%d\n", name, int64(p.Start), p.Usage, p.Demand, b)
		}
	}
	emit("untuned", r.Untuned)
	emit("tuned", r.Tuned)
}

func resample(vals []float64, cols int) []float64 {
	if len(vals) <= cols {
		return vals
	}
	out := make([]float64, cols)
	per := float64(len(vals)) / float64(cols)
	for i := 0; i < cols; i++ {
		lo, hi := int(float64(i)*per), int(float64(i+1)*per)
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
