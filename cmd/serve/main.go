// Command serve is the live characterization service: it tails a run
// directory while cmd/runsim (or any engine) is still writing it, feeds the
// execution log and monitoring through the streaming engine, and serves the
// evolving performance profile over HTTP — JSON endpoints for dashboards,
// Prometheus text metrics for scraping, the self-trace as a Perfetto-loadable
// Chrome trace-event file, and, once the run completes, the exact final
// report (byte-identical to cmd/grade10 on the same directory).
//
// Usage:
//
//	serve -run run/ -addr :7070
//	open  localhost:7070/ui/         # embedded visual profiler (heatmap,
//	                                 # timeline, click-through explain;
//	                                 # live SSE on /api/events)
//	curl localhost:7070/profile      # live profile (JSON)
//	curl localhost:7070/metrics      # Prometheus text format
//	curl localhost:7070/trace        # Chrome trace-event JSON (Perfetto)
//	curl localhost:7070/report       # final report (503 until the run ends)
//	curl localhost:7070/explain      # provenance query ?q=... (finalized run)
//	curl localhost:7070/healthz      # 503 + reasons (JSON) when degraded
//	curl localhost:7070/alerts       # -alert-rules: rules + firing/pending/resolved (JSON)
//
// The service is robust to producers in progress: files that do not exist
// yet, partially written lines, and garbled log content are handled by
// waiting, buffering, and counting respectively. With -stale, /healthz
// reports degraded (HTTP 503) when an active run has had no input for the
// given wall-clock duration.
//
// Every run is owned by one fleet (internal/fleet). -run pins its one run:
// an empty ?run= names it, its engine keeps serving after the run ends,
// -bounded drops phases and samples once their windows flush, and its
// window flushes drive the SSE stream and the threshold alert rules. -fleet
// (mutually exclusive with -run) watches a directory for new run
// subdirectories; each is admitted through a bounded scheduler
// (-fleet-active concurrent engines, -fleet-queue backlog, everything
// beyond that shed and counted), retains its phase tree and monitoring for
// the exact finalize, and is torn down once archived. The cross-run
// endpoints serve in both modes:
//
//	serve -fleet runs/ -addr :7070 -store archive/
//	curl localhost:7070/fleet/runs          # every run + admission counters
//	curl -X POST -d '{"dir":"runs/x"}' localhost:7070/fleet/runs
//	curl localhost:7070/fleet/bottlenecks   # top-K across all runs
//	curl localhost:7070/fleet/regressions   # top-K archive diff verdicts
//	curl 'localhost:7070/fleet/blame?run=a' # cross-job blame split
//	curl 'localhost:7070/profile?run=a'     # any per-run endpoint, for an active run
//	curl localhost:7070/runs                # archived runs (with -store)
//	curl 'localhost:7070/diff?a=ID&b=ID'    # archived-run diff (JSON or ?format=text)
//	open  localhost:7070/ui/                # visual profiler with run picker + diff view
//
// Both modes are one service (internal/service): the same HTTP server, the
// same per-run endpoints, and the same flight recorder, alerting, archive,
// and metrics wiring.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"grade10/internal/alert"
	"grade10/internal/flight"
	"grade10/internal/obs"
	"grade10/internal/service"
	"grade10/internal/stream"
	"grade10/internal/vtime"
)

var logger *slog.Logger

func main() {
	var (
		runDir    = flag.String("run", "", "run directory to tail (required)")
		addr      = flag.String("addr", ":7070", "HTTP listen address")
		poll      = flag.Duration("poll", 100*time.Millisecond, "file polling interval")
		idle      = flag.Duration("idle", time.Second, "fallback for a run whose content never completes (its producer died or stopped mid-run): finish it once its files have been idle this long; a complete run finishes at once")
		timeslice = flag.Duration("timeslice", 0, "analysis timeslice (virtual; default 10ms)")
		window    = flag.Int("window", 64, "timeslices per live analysis window")
		maxWin    = flag.Int("max-windows", 32, "recent windows retained for /windows")
		bounded   = flag.Bool("bounded", false, "strictly bounded memory: drop phases and samples once their windows flush, /report serves no exact text")
		parallel  = flag.Int("parallelism", 0, "analysis worker count (0 = GOMAXPROCS); results are identical for every value")
		pprofOn   = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		uiOn      = flag.Bool("ui", true, "serve the embedded visual profiler under /ui/ (view models under /api/, live updates over SSE on /api/events)")
		stale     = flag.Duration("stale", 0, "report /healthz degraded (503) when an active run's last ingested input is older than this (0 disables)")
		storeDir  = flag.String("store", "", "profile archive directory: serve /runs and /diff, and archive this run once finalized")
		storeMax  = flag.Int("store-max", 0, "archive retention: keep at most this many runs, evicting oldest first (0 = unbounded)")
		runLabel  = flag.String("run-label", "", "free-form label recorded with the archived run")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
		logLevel  = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, or error")

		alertRules   = flag.String("alert-rules", "", "alert rules file: threshold rules fire on every window flush of the -run run, baseline-regression rules on finalized runs (vs the -store archive); serves /alerts")
		alertWebhook = flag.String("alert-webhook", "", "POST each batch of alert lifecycle transitions to this URL as JSON, with retry/backoff (needs -alert-rules)")

		bundleDir    = flag.String("bundle-dir", "", "flight recorder: write triggered diagnostics bundles (pprof, self-trace, log ring, window and alert snapshots) under this directory; empty disables bundle capture (the in-memory rings stay on)")
		bundleMax    = flag.Int("bundle-max", 16, "flight recorder: retain at most this many bundles, evicting oldest first")
		bundleMinGap = flag.Duration("bundle-min-interval", time.Minute, "flight recorder: minimum interval between bundles of the same trigger kind")
		bundleCPU    = flag.Duration("bundle-cpu-profile", 250*time.Millisecond, "flight recorder: CPU-profile sampling duration per bundle (negative disables the CPU profile)")

		fleetDir     = flag.String("fleet", "", "fleet mode: watch this directory for run subdirectories and characterize them all (mutually exclusive with -run)")
		fleetActive  = flag.Int("fleet-active", 8, "fleet mode: max concurrently ingesting runs")
		fleetQueue   = flag.Int("fleet-queue", 64, "fleet mode: admission backlog depth; registrations beyond active+queue are shed")
		stallTimeout = flag.Duration("stall-timeout", 0, "fleet mode: tear a run down if run.json has not appeared this long after admission (0 disables)")
		shutdownTO   = flag.Duration("shutdown-timeout", 5*time.Second, "graceful shutdown budget: drain in-flight window flushes/finalizes and HTTP before exiting")
	)
	flag.Parse()
	var err error
	// Every log record tees into the flight recorder's bounded ring (down to
	// debug, regardless of -log-level) so /logs and bundle captures carry
	// recent history.
	logRing := obs.NewLogRing()
	logger, err = obs.NewLoggerWithRing(os.Stderr, "serve", *logFormat, *logLevel, logRing)
	if err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
		os.Exit(2)
	}
	if (*runDir == "") == (*fleetDir == "") {
		logger.Error("exactly one of -run (single run) or -fleet (watch directory) is required")
		os.Exit(2)
	}
	// Alert rules parse before anything expensive so a typo fails fast with
	// the rule text and position.
	var rules []alert.Rule
	if *alertRules != "" {
		rules, err = alert.LoadRules(*alertRules)
		if err != nil {
			logger.Error(err.Error())
			os.Exit(2)
		}
	}
	if *alertWebhook != "" && len(rules) == 0 {
		logger.Error("-alert-webhook needs -alert-rules")
		os.Exit(2)
	}

	cfg := service.Config{
		Dir: *runDir, RunLabel: *runLabel, Watch: *fleetDir,
		Addr: *addr, Logger: logger, LogRing: logRing,
		Poll: *poll, Idle: *idle,
		Engine: stream.Config{
			Timeslice: vtime.Duration(*timeslice), WindowSlices: *window, MaxWindows: *maxWin,
			RetainForFinal: !*bounded, Parallelism: *parallel,
		},
		MaxActive: *fleetActive, QueueDepth: *fleetQueue, StallTimeout: *stallTimeout,
		StaleAfter: *stale, Pprof: *pprofOn, UI: *uiOn,
		StoreDir: *storeDir, StoreMax: *storeMax,
		AlertRules: rules, AlertWebhook: *alertWebhook,
		BundleDir: *bundleDir, BundleMax: *bundleMax,
		BundleMinInterval: *bundleMinGap, BundleCPUProfile: *bundleCPU,
		ShutdownTimeout: *shutdownTO,
	}
	if cfg.Watch == "" {
		// The pinned run self-traces its window flushes and final pipeline,
		// feeding /trace, the stage metrics, and bundles. Watched runs carry
		// no tracer.
		cfg.Engine.Tracer = obs.NewTracer()
	}
	svc, err := service.Assemble(cfg)
	if err != nil {
		fail(err)
	}
	if cfg.Watch != "" {
		logger.Info(fmt.Sprintf("fleet mode: listening on %s, watching %s (active<=%d queue<=%d)",
			svc.Addr(), cfg.Watch, *fleetActive, *fleetQueue))
	} else {
		logger.Info(fmt.Sprintf("listening on %s, tailing %s", svc.Addr(), cfg.Dir))
	}

	stop := make(chan struct{})
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		close(stop)
	}()
	watchSIGQUIT(svc.Capturer())

	if err := svc.Run(stop); err != nil {
		fail(err)
	}
	svc.Shutdown()
}

// watchSIGQUIT captures a bundle on every SIGQUIT instead of the runtime's
// stack-dump-and-exit default: the process stays up and the operator gets
// profiles, trace, and logs on disk.
func watchSIGQUIT(capt *flight.Capturer) {
	if capt == nil {
		return
	}
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			logger.Info("SIGQUIT: capturing diagnostics bundle")
			capt.Trigger(flight.TriggerSignal, "SIGQUIT", nil)
		}
	}()
}

func fail(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
