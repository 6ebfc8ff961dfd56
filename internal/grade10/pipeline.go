package grade10

import (
	"fmt"

	"grade10/internal/attribution"
	"grade10/internal/bottleneck"
	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/issues"
	"grade10/internal/obs"
	"grade10/internal/vtime"
)

// Input bundles everything one characterization run consumes (the paper's
// Figure 1: monitoring + logs + models).
type Input struct {
	// Log is the engine's execution log.
	Log *enginelog.Log
	// Monitoring holds the coarse resource samples per machine resource.
	Monitoring []cluster.ResourceSamples
	// Models are the framework's expert inputs.
	Models Models
	// Timeslice is the analysis granularity (§III-C); default 10ms.
	Timeslice vtime.Duration
	// Parallelism is the worker count for the attribution fan-out and the
	// issue detector's trace replays. Output is identical for every value;
	// 0 takes par.Default() (GOMAXPROCS).
	Parallelism int
	// Tracer collects self-trace spans for every pipeline stage (trace
	// build, resource trace assembly, attribution jobs, bottleneck scan,
	// issue replays). Nil disables self-tracing at zero cost.
	Tracer *obs.Tracer
}

// Output is the full performance profile of one execution.
type Output struct {
	Trace       *core.ExecutionTrace
	Slices      core.Timeslices
	Profile     *attribution.Profile
	Bottlenecks *bottleneck.Report
	Issues      *issues.Report
}

// DefaultTimeslice is the paper's "tens of milliseconds" granularity.
const DefaultTimeslice = 10 * vtime.Millisecond

// Characterize runs the full Grade10 pipeline: parse the log into an
// execution trace, assemble the resource trace from monitoring, attribute
// resources at timeslice granularity, and detect bottlenecks and issues.
func Characterize(in Input) (*Output, error) {
	if in.Log == nil {
		return nil, fmt.Errorf("grade10: no execution log")
	}
	span := in.Tracer.StartSpan("build-execution-trace", -1)
	span.SetItems(int64(len(in.Log.Events)))
	tr, err := core.BuildExecutionTrace(in.Log, in.Models.Exec)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("grade10: parsing log: %w", err)
	}
	return CharacterizeTrace(tr, in)
}

// CharacterizeTrace runs every pipeline stage after the execution trace is
// built: resource trace, attribution, bottleneck scan and issue analysis.
// in.Log is not read. The online engine calls it on the phase tree it
// assembled while ingesting.
func CharacterizeTrace(tr *core.ExecutionTrace, in Input) (*Output, error) {
	if in.Timeslice == 0 {
		in.Timeslice = DefaultTimeslice
	}
	span := in.Tracer.StartSpan("build-resource-trace", -1)
	span.SetItems(int64(len(in.Monitoring)))
	rt := core.NewResourceTrace()
	for _, rs := range in.Monitoring {
		res := in.Models.Res.Lookup(rs.Resource)
		if res == nil || res.Kind != core.Consumable {
			continue // monitored but not modeled: ignored, as in the paper
		}
		machine := rs.Machine
		if !res.PerMachine {
			machine = core.GlobalMachine
		}
		if err := rt.Add(res, machine, rs.Samples); err != nil {
			span.End()
			return nil, fmt.Errorf("grade10: resource trace: %w", err)
		}
	}
	span.End()

	slices := core.NewTimeslices(tr.Start, tr.End, in.Timeslice)
	span = in.Tracer.StartSpan("attribution", -1)
	span.SetItems(int64(slices.Count))
	span.SetWindow(int64(slices.Start), int64(slices.End))
	prof, err := attribution.AttributeWindow(tr, tr.Leaves(), rt, in.Models.Rules,
		slices, in.Parallelism, in.Tracer)
	span.End()
	if err != nil {
		return nil, fmt.Errorf("grade10: attribution: %w", err)
	}

	span = in.Tracer.StartSpan("bottleneck-scan", -1)
	btl := bottleneck.Detect(prof)
	span.SetItems(int64(len(btl.Bottlenecks)))
	span.End()

	span = in.Tracer.StartSpan("issue-analysis", -1)
	iss := issues.Analyze(prof, btl, issues.Config{Parallelism: in.Parallelism, Tracer: in.Tracer})
	span.SetItems(int64(len(iss.Issues)))
	span.End()

	return &Output{Trace: tr, Slices: slices, Profile: prof, Bottlenecks: btl, Issues: iss}, nil
}

// FilterBlocking returns a copy of the log without blocking events on the
// named resources. Used to build "untuned" models that do not know about GC
// or queue stalls (Table II's untuned configuration).
func FilterBlocking(log *enginelog.Log, resources ...string) *enginelog.Log {
	drop := map[string]bool{}
	for _, r := range resources {
		drop[r] = true
	}
	out := &enginelog.Log{}
	for _, e := range log.Events {
		if e.Kind == enginelog.Blocked && drop[e.Resource] {
			continue
		}
		out.Events = append(out.Events, e)
	}
	return out
}
