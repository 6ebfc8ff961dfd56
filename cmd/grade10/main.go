// Command grade10 analyzes a run directory produced by cmd/runsim: it builds
// the framework models from the run metadata (or loads custom ones from
// JSON), executes the full characterization pipeline (trace building,
// resource attribution, bottleneck identification, performance-issue
// detection), and prints the performance profile.
//
// Usage:
//
//	grade10 -run run/
//	grade10 -run run/ -timeslice 20ms -untuned -csv consumption.csv
//	grade10 -run run/ -dump-models giraph.json
//	grade10 -run run/ -models custom.json
//	grade10 -run run/ -trace trace.json   # open in ui.perfetto.dev
//	grade10 -run run/ -explain 'phase=/pr/execute/superstep/worker/compute/thread machine=0 resource=cpu'
//	grade10 -run run/ -store profiles/ -run-label baseline
//	grade10 -store profiles/ -diff runA runB -diff-out delta.json
//	grade10 -run run/ -store profiles/ -alert-rules alerts.rules   # exit 4 when a rule fires
//	grade10 -blame runA runA/ runB/   # cross-job blame across co-scheduled runs
//	grade10 -convert run/ -o run-bin/           # text run dir → binary (auto)
//	grade10 -convert execution.log -o log.bin -to binary
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"time"

	"path/filepath"

	"grade10/internal/alert"
	"grade10/internal/enginelog"
	"grade10/internal/explain"
	"grade10/internal/fleet"
	"grade10/internal/grade10"
	"grade10/internal/obs"
	"grade10/internal/profdiff"
	"grade10/internal/profstore"
	"grade10/internal/report"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
)

var logger *slog.Logger

func main() {
	var (
		runDir    = flag.String("run", "", "run directory from cmd/runsim (required)")
		timeslice = flag.Duration("timeslice", 0, "analysis timeslice (default 10ms)")
		untuned   = flag.Bool("untuned", false, "giraph: analyze without attribution rules or GC/queue models")
		csvOut    = flag.String("csv", "", "write per-timeslice consumption CSV to this file")
		modelsIn  = flag.String("models", "", "load models from this JSON file instead of the built-ins")
		modelsOut = flag.String("dump-models", "", "write the models used to this JSON file")
		parallel  = flag.Int("parallelism", 0, "analysis worker count (0 = GOMAXPROCS); output is identical for every value")
		explainQ  = flag.String("explain", "", "provenance query: 'phase=<type-path> machine=<m> resource=<name> [t0..t1]'; prints the derivation chain instead of the report")
		format    = flag.String("format", "text", "-explain output format: text or json")
		traceOut  = flag.String("trace", "", "write a Chrome trace-event file (pipeline self-trace + job profile) to this path")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
		logLevel  = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, or error")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060) for the duration of the analysis")

		storeDir = flag.String("store", "", "profile archive directory: archive this analysis (with -run) or serve -diff")
		storeMax = flag.Int("store-max", 0, "archive retention: keep at most this many runs, evicting oldest first (0 = unbounded)")
		runLabel = flag.String("run-label", "", "free-form label recorded with the archived run")

		alertRulesPath = flag.String("alert-rules", "", "alert rules file: evaluate the finalized profile (baselines learned from -store history, before this run is archived) and exit 4 when any rule fires")
		alertOut       = flag.String("alert-out", "", "also write the alert snapshot as JSON to this file (needs -alert-rules)")

		convertIn = flag.String("convert", "", "convert an enginelog (or a whole run directory) between the text and binary formats: grade10 -convert INPUT -o OUTPUT [-to text|binary]")
		convertTo = flag.String("to", "", "-convert target format: text or binary (default: the opposite of the detected input format)")
		outPath   = flag.String("o", "", "-convert output path (file or directory, matching the input)")

		blameTarget   = flag.String("blame", "", "cross-job blame: grade10 -blame TARGET RUNDIR... characterizes every run directory (their run.json placement manifests declare the shared hosts) and splits TARGET's contended time across its co-scheduled neighbors")
		blameOut      = flag.String("blame-out", "", "also write the blame report as JSON to this file")
		diffMode      = flag.Bool("diff", false, "diff two archived runs: grade10 -store DIR -diff RUN_A RUN_B (IDs or unique prefixes)")
		diffOut       = flag.String("diff-out", "", "also write the diff report as JSON to this file")
		diffThreshold = flag.Float64("diff-threshold", 0, "makespan fraction separating neutral from improved/regressed (default 0.05)")
		failOnRegress = flag.Bool("fail-on-regress", false, "exit with status 3 when the diff verdict is regressed")
	)
	flag.Parse()
	var err error
	logger, err = obs.NewLogger(os.Stderr, "grade10", *logFormat, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "grade10: %v\n", err)
		os.Exit(2)
	}
	if *pprofAddr != "" {
		bound, stopPprof, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			logger.Error("pprof listener: " + err.Error())
			os.Exit(2)
		}
		defer stopPprof()
		logger.Info("pprof on http://" + bound + "/debug/pprof/")
	}
	if *convertIn != "" {
		if *outPath == "" {
			logger.Error("-convert needs -o OUTPUT")
			os.Exit(2)
		}
		runConvert(*convertIn, *outPath, *convertTo)
		return
	}
	if *diffMode {
		if *storeDir == "" || flag.NArg() != 2 {
			logger.Error("-diff needs -store DIR and exactly two run IDs: grade10 -store DIR -diff RUN_A RUN_B")
			os.Exit(2)
		}
		runDiff(*storeDir, *storeMax, flag.Arg(0), flag.Arg(1), *diffThreshold, *diffOut, *failOnRegress)
		return
	}
	if *blameTarget != "" {
		if flag.NArg() < 2 {
			logger.Error("-blame needs the target name and at least two run directories: grade10 -blame TARGET RUNDIR RUNDIR...")
			os.Exit(2)
		}
		runBlame(*blameTarget, flag.Args(), vtime.Duration(*timeslice), *parallel, *format, *blameOut)
		return
	}
	if *runDir == "" {
		logger.Error("-run is required")
		os.Exit(2)
	}

	// Alert rules parse before the (expensive) pipeline so a typo fails fast.
	var alertRuleSet []alert.Rule
	if *alertRulesPath != "" {
		if alertRuleSet, err = alert.LoadRules(*alertRulesPath); err != nil {
			logger.Error(err.Error())
			os.Exit(2)
		}
	}
	if *alertOut != "" && *alertRulesPath == "" {
		logger.Error("-alert-out needs -alert-rules")
		os.Exit(2)
	}

	run, err := rundir.Load(*runDir)
	if err != nil {
		fail(err)
	}
	models, log, err := resolveModels(run, *modelsIn, *untuned)
	if err != nil {
		fail(err)
	}
	if *modelsOut != "" {
		f, err := os.Create(*modelsOut)
		if err != nil {
			fail(err)
		}
		if err := grade10.SaveModels(f, models); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		logger.Info("wrote " + *modelsOut)
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}

	ts := grade10.DefaultTimeslice
	if *timeslice > 0 {
		ts = vtime.Duration(*timeslice)
	}
	in := grade10.Input{
		Log:         log,
		Monitoring:  run.Monitoring,
		Models:      models,
		Timeslice:   ts,
		Parallelism: *parallel,
		Tracer:      tracer,
	}
	var query explain.Query
	if *explainQ != "" {
		// Parse before the (expensive) pipeline runs so a typo fails fast.
		query, err = explain.ParseQuery(*explainQ)
		if err != nil {
			logger.Error(err.Error())
			os.Exit(2)
		}
		if *format != "text" && *format != "json" {
			logger.Error("-format must be text or json")
			os.Exit(2)
		}
	}
	out, err := grade10.Characterize(in)
	if err != nil {
		fail(err)
	}

	if *explainQ != "" {
		d, err := explain.NewExplainer(out.Profile).Explain(query)
		if err != nil {
			fail(err)
		}
		if *format == "json" {
			err = d.WriteJSON(os.Stdout)
		} else {
			err = d.WriteText(os.Stdout)
		}
		if err != nil {
			fail(err)
		}
		return
	}

	if err := report.WriteAll(os.Stdout, out); err != nil {
		fail(err)
	}
	writeParseFooter(os.Stdout, run)
	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := report.WriteConsumptionCSV(f, out); err != nil {
			fail(err)
		}
		logger.Info("wrote " + *csvOut)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := report.WriteTraceEvents(f, out, tracer); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		logger.Info("wrote trace", "path", *traceOut, "spans", len(tracer.Spans()))
	}
	var alertBase *alert.Baselines
	if *storeDir != "" {
		store, err := profstore.Open(*storeDir, profstore.Options{MaxRuns: *storeMax})
		if err != nil {
			fail(err)
		}
		if len(alertRuleSet) > 0 {
			// Learn before Put: this run must not contribute to the baseline
			// it is judged against.
			alertBase = alert.LearnArchive(store)
		}
		rec := profstore.BuildRecord(run.Info, out)
		rec.Label = *runLabel
		meta, evicted, err := store.Put(rec)
		if err != nil {
			fail(err)
		}
		fmt.Printf("\narchived run %s (%d runs stored)\n", meta.ID, store.Len())
		for _, id := range evicted {
			logger.Info("evicted oldest run", "id", id)
		}
	}
	if len(alertRuleSet) > 0 {
		runAlerts(alertRuleSet, alertBase, run, out, *runDir, *runLabel, *alertOut)
	}
}

// runAlerts evaluates the finalized profile against the rules file: threshold
// rules see the record's summary metrics (makespan_seconds, stragglers,
// underutilized_fraction, utilization[key]), baseline-regression rules
// compare against the archive-learned per-cell robust stats. Exit status 4
// flags firing alerts, so CI can gate on "this run is anomalous" (2 is usage,
// 3 is -fail-on-regress).
func runAlerts(rules []alert.Rule, base *alert.Baselines, run *rundir.Run, out *grade10.Output, runDir, label, jsonOut string) {
	if base != nil {
		logger.Info("learned alert baselines", "runs", base.Runs(), "cells", base.Len())
	}
	ev := alert.NewEvaluator(rules, base)
	rec := profstore.BuildRecord(run.Info, out)
	rec.Label = label
	ev.EvalRecord(rec, filepath.Base(filepath.Clean(runDir)))
	snap := ev.Snapshot()
	fmt.Println()
	alert.WriteText(os.Stdout, snap)
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		logger.Info("wrote " + jsonOut)
	}
	if snap.Firing > 0 {
		logger.Error("alerts firing", "firing", snap.Firing)
		os.Exit(4)
	}
}

// runBlame characterizes every run directory with the batch pipeline, builds
// each run's shared-host demand timeline from its placement manifest, and
// prints the cross-job blame split for the target run (named by its
// directory base name).
func runBlame(target string, dirs []string, timeslice vtime.Duration, parallel int, format, jsonOut string) {
	ts := grade10.DefaultTimeslice
	if timeslice > 0 {
		ts = timeslice
	}
	profiles := make([]*fleet.BlameProfile, 0, len(dirs))
	for _, dir := range dirs {
		name := filepath.Base(filepath.Clean(dir))
		run, err := rundir.Load(dir)
		if err != nil {
			fail(err)
		}
		if len(run.Info.Placement) == 0 {
			logger.Warn("run has no placement manifest (runsim -hosts); it shares nothing", "run", name)
		}
		models, log, err := resolveModels(run, "", false)
		if err != nil {
			fail(err)
		}
		out, err := grade10.Characterize(grade10.Input{
			Log: log, Monitoring: run.Monitoring, Models: models,
			Timeslice: ts, Parallelism: parallel,
		})
		if err != nil {
			fail(fmt.Errorf("characterizing %s: %w", dir, err))
		}
		profiles = append(profiles, fleet.BuildBlameProfile(name, run.Info, out, ts))
	}
	rep, err := fleet.Blame(profiles, target, fleet.BlameConfig{SliceWidth: ts, Parallelism: parallel})
	if err != nil {
		fail(err)
	}
	if format == "json" {
		err = fleet.WriteBlameJSON(os.Stdout, rep)
	} else {
		err = fleet.WriteBlameText(os.Stdout, rep)
	}
	if err != nil {
		fail(err)
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			fail(err)
		}
		if err := fleet.WriteBlameJSON(f, rep); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		logger.Info("wrote " + jsonOut)
	}
}

// runDiff loads two archived runs (by ID or unique prefix), diffs them, and
// writes the ranked text report to stdout plus optional JSON. Exit status 3
// flags a regression when -fail-on-regress is set.
func runDiff(dir string, maxRuns int, idA, idB string, threshold float64, jsonOut string, failOnRegress bool) {
	store, err := profstore.Open(dir, profstore.Options{MaxRuns: maxRuns})
	if err != nil {
		fail(err)
	}
	a, err := store.Get(idA)
	if err != nil {
		fail(err)
	}
	b, err := store.Get(idB)
	if err != nil {
		fail(err)
	}
	rep, err := profdiff.Diff(a, b, threshold)
	if err != nil {
		fail(err)
	}
	if err := profdiff.WriteText(os.Stdout, rep); err != nil {
		fail(err)
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			fail(err)
		}
		if err := profdiff.WriteJSON(f, rep); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		logger.Info("wrote " + jsonOut)
	}
	if failOnRegress && rep.Verdict == profdiff.Regressed {
		logger.Error("regression detected", "a", rep.A.ID, "b", rep.B.ID)
		os.Exit(3)
	}
}

// writeParseFooter appends the log-robustness summary (enginelog.ParseStats
// plus input format and decode throughput) to the report. It lives here
// rather than in report.WriteAll so the HTTP /report endpoint stays
// byte-identical to the batch report body. The throughput line is
// wall-clock-derived and therefore host-dependent; byte-identity tests strip
// it along with the other diagnostics.
func writeParseFooter(w *os.File, run *rundir.Run) {
	st := run.LogStats
	fmt.Fprintf(w, "\nlog parse: %s format, %d lines, %d events, %d malformed skipped, %d truncated\n",
		run.LogFormat, st.Lines, st.Events, st.Skipped, st.Truncated)
	if st.Skipped > 0 && st.FirstError != "" {
		fmt.Fprintf(w, "  first parse error: %s\n", st.FirstError)
	}
	if run.LogBytes > 0 && run.LogParse > 0 {
		secs := run.LogParse.Seconds()
		fmt.Fprintf(w, "  decoded %.2f MB in %s (%.1f MB/s, %.0f events/s)\n",
			float64(run.LogBytes)/1e6, run.LogParse.Round(time.Microsecond),
			float64(run.LogBytes)/1e6/secs, float64(st.Events)/secs)
	}
}

// runConvert rewrites an enginelog — a bare log file or a whole run
// directory — in the other format (or the one forced with -to). Run-dir
// conversion rewrites execution.log and copies run.json and monitoring.csv
// verbatim, so the converted directory is drop-in for every consumer.
func runConvert(input, output, to string) {
	if to != "" && to != "text" && to != "binary" {
		logger.Error("-to must be text or binary")
		os.Exit(2)
	}
	fi, err := os.Stat(input)
	if err != nil {
		fail(err)
	}
	if fi.IsDir() {
		if err := os.MkdirAll(output, 0o755); err != nil {
			fail(err)
		}
		for _, name := range []string{"run.json", "monitoring.csv"} {
			data, err := os.ReadFile(filepath.Join(input, name))
			if err != nil {
				fail(err)
			}
			if err := os.WriteFile(filepath.Join(output, name), data, 0o644); err != nil {
				fail(err)
			}
		}
		convertLogFile(filepath.Join(input, "execution.log"), filepath.Join(output, "execution.log"), to)
		logger.Info("converted run directory", "from", input, "to", output)
		return
	}
	convertLogFile(input, output, to)
}

func convertLogFile(input, output, to string) {
	in, err := os.Open(input)
	if err != nil {
		fail(err)
	}
	defer in.Close()
	log, stats, format, err := enginelog.ReadStats(in)
	if err != nil {
		fail(err)
	}
	if stats.Degraded() {
		logger.Warn("input log is degraded; converting the surviving events",
			"skipped", stats.Skipped, "truncated", stats.Truncated, "first_error", stats.FirstError)
	}
	target := enginelog.FormatBinary
	switch {
	case to == "text":
		target = enginelog.FormatText
	case to == "binary":
	case format == enginelog.FormatBinary:
		target = enginelog.FormatText
	}
	out, err := os.Create(output)
	if err != nil {
		fail(err)
	}
	var werr error
	if target == enginelog.FormatBinary {
		werr = enginelog.WriteBinary(out, log)
	} else {
		werr = enginelog.Write(out, log)
	}
	if werr != nil {
		out.Close()
		fail(werr)
	}
	if err := out.Close(); err != nil {
		fail(err)
	}
	var outSize int64
	if ofi, err := os.Stat(output); err == nil {
		outSize = ofi.Size()
	}
	var inSize int64
	if ifi, err := os.Stat(input); err == nil {
		inSize = ifi.Size()
	}
	logger.Info("converted enginelog",
		"events", stats.Events, "from", format.String(), "to", target.String(),
		"in_bytes", inSize, "out_bytes", outSize)
}

// resolveModels picks the models: a JSON file when given, otherwise the
// built-in framework model named in the run metadata (with the untuned
// variant filtering GC/queue events from the log, as in Table II).
func resolveModels(run *rundir.Run, modelsIn string, untuned bool) (grade10.Models, *enginelog.Log, error) {
	if modelsIn != "" {
		f, err := os.Open(modelsIn)
		if err != nil {
			return grade10.Models{}, nil, err
		}
		defer f.Close()
		models, err := grade10.LoadModels(f)
		return models, run.Log, err
	}
	params := grade10.RunParams(run.Info)
	if !untuned {
		models, err := grade10.ModelsForEngine(run.Info.Engine, params)
		return models, run.Log, err
	}
	if run.Info.Engine != "giraph" {
		return grade10.Models{}, nil, fmt.Errorf("-untuned is only meaningful for the giraph engine")
	}
	models, err := grade10.GiraphModelUntuned(params)
	log := grade10.FilterBlocking(run.Log, grade10.ResGC, grade10.ResMsgQueue)
	return models, log, err
}

func fail(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
