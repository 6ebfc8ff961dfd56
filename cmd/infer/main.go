// Command infer fits attribution-rule coefficients from a run directory —
// the paper's §V future work of reducing expert input. For each consumable
// resource it prints the fitted per-instance demand of every leaf phase type
// and, optionally, writes a complete models JSON whose rules come from the
// fit instead of an expert.
//
// Usage:
//
//	infer -run run/
//	infer -run run/ -out inferred-models.json
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"text/tabwriter"

	"grade10/internal/core"
	"grade10/internal/grade10"
	"grade10/internal/infer"
	"grade10/internal/metrics"
	"grade10/internal/obs"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
)

var logger *slog.Logger

func main() {
	var (
		runDir    = flag.String("run", "", "run directory from cmd/runsim (required)")
		timeslice = flag.Duration("timeslice", 0, "fitting granularity (default: the monitoring interval)")
		out       = flag.String("out", "", "write models JSON with the inferred rules to this file")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
		logLevel  = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, or error")
	)
	flag.Parse()
	var err error
	logger, err = obs.NewLogger(os.Stderr, "infer", *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "infer: %v\n", err)
		os.Exit(2)
	}
	if *runDir == "" {
		logger.Error("-run is required")
		os.Exit(2)
	}

	run, err := rundir.Load(*runDir)
	if err != nil {
		fail(err)
	}
	// The built-in framework model named in the run metadata: the execution
	// model is needed to parse the log, while the expert rules are replaced
	// by the fit.
	models, err := grade10.ModelsForEngine(run.Info.Engine, grade10.ModelParams{
		Job:              run.Info.Job,
		Cores:            run.Info.Cores,
		NetBandwidth:     run.Info.NetBandwidth,
		DiskBandwidth:    run.Info.DiskBandwidth,
		ThreadsPerWorker: run.Info.ThreadsPerWorker,
	})
	if err != nil {
		fail(err)
	}
	tr, err := core.BuildExecutionTrace(run.Log, models.Exec)
	if err != nil {
		fail(err)
	}

	// Group the monitoring by resource.
	byResource := map[string]map[int]*metrics.SampleSeries{}
	intervals := map[string]vtime.Duration{}
	for _, rs := range run.Monitoring {
		res := models.Res.Lookup(rs.Resource)
		if res == nil || res.Kind != core.Consumable {
			continue
		}
		m, ok := byResource[rs.Resource]
		if !ok {
			m = map[int]*metrics.SampleSeries{}
			byResource[rs.Resource] = m
		}
		machine := rs.Machine
		if !res.PerMachine {
			machine = core.GlobalMachine
		}
		m[machine] = rs.Samples
		if len(rs.Samples.Samples) > 0 {
			intervals[rs.Resource] = rs.Samples.Samples[0].Duration()
		}
	}

	inferredRules := core.NewRuleSet()
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "RESOURCE\tPHASE TYPE\tINFERRED DEMAND")
	for _, res := range models.Res.Consumables() {
		monitoring, ok := byResource[res.Name]
		if !ok {
			continue
		}
		opts := infer.Options{Timeslice: intervals[res.Name]}
		if *timeslice > 0 {
			opts.Timeslice = vtime.Duration(*timeslice)
		}
		result, err := infer.InferRules(tr, res.Name, monitoring, opts)
		if err != nil {
			fail(fmt.Errorf("fitting %s: %w", res.Name, err))
		}
		fitted := result.RuleSet()
		for _, c := range result.Coefficients {
			fmt.Fprintf(tw, "%s\t%s\t%.4g\n", res.Name, c.TypePath, c.Amount)
			inferredRules.Set(c.TypePath, res.Name, fitted.Get(c.TypePath, res.Name))
		}
	}
	tw.Flush()

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		models.Rules = inferredRules
		if err := grade10.SaveModels(f, models); err != nil {
			fail(err)
		}
		logger.Info(fmt.Sprintf("wrote %s (analyze with: grade10 -run %s -models %s)",
			*out, *runDir, *out))
	}
}

func fail(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
