// Command runsim executes a graph workload on one of the simulated engines
// and saves the run (execution log, monitoring samples, metadata) to a
// directory for cmd/grade10 to analyze — the SUT half of the paper's
// Figure 1 pipeline.
//
// Usage:
//
//	runsim -engine giraph -algorithm pagerank -graph rmat.el -out run/
//	runsim -engine powergraph -algorithm cdlp -dataset datagen -bug -out run/
//	runsim -engine giraph -algorithm pagerank -out run/ -serve :7070 -linger 30s
//	runsim -engine giraph -algorithm pagerank -out run/ -trace trace.json
//
// With -serve, a live characterization server (the same endpoints as
// cmd/serve, including the embedded visual profiler under /ui/) is up while
// the simulation runs and, once the run is saved, serves the -out directory
// through the same follow as serve -run; -linger keeps it up after the run
// for inspection. With
// -trace, the simulator's self-trace (supersteps/iterations with their
// virtual-time windows, plus any live-analysis stages) is written as a
// Chrome trace-event file loadable in Perfetto.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"
	"time"

	"grade10/internal/cluster"
	"grade10/internal/experiments"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/obs"
	"grade10/internal/pgsim"
	"grade10/internal/report"
	"grade10/internal/rundir"
	"grade10/internal/service"
	"grade10/internal/stream"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

var (
	logger *slog.Logger
	// logRing is the flight recorder's bounded log ring, teed from every
	// logger record; the live server exposes it at /logs.
	logRing *obs.LogRing
)

func main() {
	var (
		engine    = flag.String("engine", "giraph", "engine: giraph or powergraph")
		algorithm = flag.String("algorithm", "pagerank", "algorithm: bfs, pagerank, wcc, cdlp, sssp")
		graphFile = flag.String("graph", "", "edge-list file (overrides -dataset)")
		dataset   = flag.String("dataset", "rmat", "built-in dataset: rmat or datagen")
		workers   = flag.Int("workers", 4, "worker/machine count")
		threads   = flag.Int("threads", 8, "compute threads per worker")
		scale     = flag.Float64("scale", 1, "compute cost scale factor")
		noise     = flag.Float64("noise", -1, "OS background-noise cores per machine (cluster.Noise); -1 keeps the engine default, larger values inject a CPU slowdown for regression experiments")
		bug       = flag.Bool("bug", false, "powergraph: inject the §IV-D synchronization bug")
		interval  = flag.Duration("interval", 0, "monitoring interval (virtual; default 50ms)")
		out       = flag.String("out", "", "output run directory (required)")
		hosts     = flag.String("hosts", "", "co-scheduling manifest: comma-separated shared host names, one per worker (round-robin if fewer); recorded in run.json for fleet cross-job blame")
		serveAddr = flag.String("serve", "", "serve live characterization on this address while the simulation runs")
		linger    = flag.Duration("linger", 0, "with -serve: keep the server up this long after the run")
		parallel  = flag.Int("parallelism", 0, "host-side precompute/analysis worker count (0 = GOMAXPROCS); logs and results are identical for every value")
		pprofOn   = flag.Bool("pprof", false, "with -serve: expose net/http/pprof under /debug/pprof/")
		uiOn      = flag.Bool("ui", true, "with -serve: mount the embedded visual profiler under /ui/ (live SSE updates on /api/events)")
		traceOut  = flag.String("trace", "", "write the simulator/analysis self-trace as Chrome trace-event JSON to this path")
		binaryLog = flag.Bool("binary-log", false, "write execution.log in the compact binary enginelog format (consumers auto-detect either format)")
		logFormat = flag.String("log-format", "text", "diagnostic log format: text or json")
		logLevel  = flag.String("log-level", "info", "diagnostic log level: debug, info, warn, or error")
	)
	flag.Parse()
	var err error
	logRing = obs.NewLogRing(0)
	logger, err = obs.NewLoggerWithRing(os.Stderr, "runsim", *logFormat, *logLevel, logRing)
	if err != nil {
		fmt.Fprintf(os.Stderr, "runsim: %v\n", err)
		os.Exit(2)
	}
	if *out == "" {
		logger.Error("-out is required")
		os.Exit(2)
	}

	var tracer *obs.Tracer
	if *traceOut != "" {
		tracer = obs.NewTracer()
	}

	g, err := loadGraph(*graphFile, *dataset)
	if err != nil {
		fail(err)
	}
	prog, err := workload.NewProgram(*algorithm, g)
	if err != nil {
		fail(err)
	}
	monInterval := 50 * vtime.Millisecond
	if *interval > 0 {
		monInterval = vtime.Duration(*interval)
	}

	// The live service (with -serve) is the same assembly as cmd/serve, with
	// only what runsim's flags turn on. Its pinned endpoints answer 503 until
	// the saved run is followed. The tracer (which may be nil) is shared with
	// the simulator, so one -trace file interleaves engine supersteps with
	// analysis window flushes.
	var svc *service.Server
	if *serveAddr != "" {
		svc, err = service.Assemble(service.Config{
			Addr: *serveAddr, Logger: logger, LogRing: logRing,
			Engine: stream.Config{
				RetainForFinal: true, Parallelism: *parallel, Tracer: tracer,
			},
			Pprof: *pprofOn, UI: *uiOn,
			ShutdownTimeout: 3 * time.Second,
		})
		if err != nil {
			fail(err)
		}
		logger.Info("live characterization listening on " + svc.Addr())
	}
	run := &rundir.Run{}
	var (
		clu        *cluster.Cluster
		start, end vtime.Time
	)
	switch *engine {
	case "giraph":
		cfg := experiments.GiraphConfig(*scale)
		cfg.Workers, cfg.ThreadsPerWorker = *workers, *threads
		cfg.Parallelism, cfg.Tracer = *parallel, tracer
		if *noise >= 0 {
			cfg.OSNoiseCores = *noise
		}
		run.Info = runInfo("giraph", prog.Name(), cfg.Workers, cfg.ThreadsPerWorker, cfg.Machine)
		res, err := giraphsim.Run(prog, graph.HashPartition(g, cfg.Workers), cfg)
		if err != nil {
			fail(err)
		}
		run.Log, clu, start, end = res.Log, res.Cluster, res.Start, res.End
		logger.Info(fmt.Sprintf("%s on giraph: makespan %v", prog.Name(), res.End.Sub(res.Start)),
			"supersteps", res.Stats.Supersteps, "gcs", res.Stats.GCCount,
			"queue_stalls", res.Stats.QueueStalls)

	case "powergraph":
		cfg := experiments.PowerGraphConfig(*scale, *bug)
		cfg.Workers, cfg.ThreadsPerWorker = *workers, *threads
		cfg.Parallelism, cfg.Tracer = *parallel, tracer
		if *noise >= 0 {
			cfg.OSNoiseCores = *noise
		}
		run.Info = runInfo("powergraph", prog.Name(), cfg.Workers, cfg.ThreadsPerWorker, cfg.Machine)
		res, err := pgsim.Run(prog, cfg)
		if err != nil {
			fail(err)
		}
		run.Log, clu, start, end = res.Log, res.Cluster, res.Start, res.End
		logger.Info(fmt.Sprintf("%s on powergraph: makespan %v", prog.Name(), res.End.Sub(res.Start)),
			"iterations", res.Stats.Iterations,
			"replication", fmt.Sprintf("%.2f", res.Stats.ReplicationFactor))

	default:
		logger.Error(fmt.Sprintf("unknown engine %q", *engine))
		os.Exit(2)
	}
	run.Info.StartNS, run.Info.EndNS = int64(start), int64(end)
	if run.Monitoring, err = cluster.Monitor(clu, start, end, monInterval); err != nil {
		fail(err)
	}

	if *hosts != "" {
		run.Info.Placement = parsePlacement(*hosts, run.Info.Workers)
	}
	if err := rundir.SaveOpts(*out, run, rundir.SaveOptions{BinaryLog: *binaryLog}); err != nil {
		fail(err)
	}
	logger.Info(fmt.Sprintf("saved %d log events to %s", len(run.Log.Events), *out))
	if svc != nil {
		serveRun(svc, *out, *linger)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(err)
		}
		if err := report.WriteTraceEvents(f, nil, tracer); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		logger.Info("wrote trace", "path", *traceOut, "spans", len(tracer.Spans()))
	}
}

// serveRun follows the saved run directory as the service's pinned run —
// the follow serve -run does, which finishes a complete directory after one
// poll — and keeps serving for the linger duration before shutdown.
func serveRun(svc *service.Server, dir string, linger time.Duration) {
	if err := svc.Fleet().Follow(dir, "", nil); err != nil {
		logger.Error("live finalize: " + err.Error())
	} else if linger > 0 {
		logger.Info(fmt.Sprintf("exact report at /report for %v", linger))
	}
	time.Sleep(linger)
	svc.Shutdown()
}

// runInfo is the run metadata known before the simulation runs.
func runInfo(engine, job string, workers, threads int, m cluster.MachineSpec) rundir.Info {
	return rundir.Info{
		Engine: engine, Job: job, Workers: workers, ThreadsPerWorker: threads,
		Cores: m.Cores, NetBandwidth: m.NetBandwidth, DiskBandwidth: m.DiskBandwidth,
	}
}

// parsePlacement maps each run-local machine onto a shared host name,
// round-robin over the -hosts list, so co-scheduled runsim invocations can
// declare which physical hosts they contended on.
func parsePlacement(hosts string, workers int) []rundir.Placement {
	var names []string
	for _, h := range strings.Split(hosts, ",") {
		if h = strings.TrimSpace(h); h != "" {
			names = append(names, h)
		}
	}
	if len(names) == 0 {
		return nil
	}
	placement := make([]rundir.Placement, workers)
	for m := 0; m < workers; m++ {
		placement[m] = rundir.Placement{Machine: m, Host: names[m%len(names)]}
	}
	return placement
}

func loadGraph(file, dataset string) (*graph.Graph, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	}
	for _, d := range workload.Datasets() {
		if d.Name == dataset {
			return d.Graph(), nil
		}
	}
	return nil, fmt.Errorf("unknown dataset %q (have rmat, datagen)", dataset)
}

func fail(err error) {
	logger.Error(err.Error())
	os.Exit(1)
}
