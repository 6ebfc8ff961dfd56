package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"grade10/internal/cluster"
	"grade10/internal/enginelog"
	"grade10/internal/experiments"
	"grade10/internal/giraphsim"
	"grade10/internal/grade10"
	"grade10/internal/graph"
	"grade10/internal/pgsim"
	"grade10/internal/profstore"
	"grade10/internal/report"
	"grade10/internal/rundir"
	"grade10/internal/vtime"
	"grade10/internal/workload"
)

// Inputs are the paper's eight evaluation workloads (workload.All: BFS,
// PageRank, WCC and CDLP on an R-MAT and a community graph), each simulated
// as `runsim -engine E -algorithm A -dataset D` does with its defaults:
// the experiments engine configs at cost scale 1 (4 workers × 8 threads)
// and a 50 ms monitoring interval. The algorithms run 1 to 8 iterations, so
// one set of runs spans the working-set sizes a user's runs have.
const (
	costScale   = 1
	monInterval = 50 * vtime.Millisecond
)

// spec is one evaluation workload.
type spec struct {
	algorithm string
	g         *graph.Graph
}

// specs returns the eight evaluation workloads over graphs generated from
// seed. The generators take workload.Datasets' parameters; only their seed
// comes from the benchmark, so seeds vary each graph's shape, not its size.
func specs(seed int64) []spec {
	graphs := map[string]*graph.Graph{
		"rmat": graph.RMAT(12, 12, seed),
		"datagen": graph.Community(graph.CommunityParams{
			Vertices: 4096, Communities: 24, IntraDegree: 6,
			InterFraction: 0.04, Seed: seed,
		}),
	}
	var out []spec
	for _, w := range workload.All() {
		out = append(out, spec{w.Algorithm, graphs[w.Dataset.Name]})
	}
	return out
}

// runInput is one simulated run persisted as a run directory, plus what the
// benchmark needs to feed it and to check the program's output.
type runInput struct {
	dir string
	// sim is the simulator's in-memory run: its metadata, the reference's
	// input, and the event times that order the live feed.
	sim *rundir.Run

	// wantReport is the batch report of the in-memory simulator output,
	// analyzed serially; every path must reproduce it byte for byte (the
	// determinism contract), so a decode or parallelism bug shows as a
	// mismatch. wantID is the archive content ID of the same profile.
	wantReport []byte
	wantID     string

	// steps is the live feed of the text run directory (live-retain only).
	steps []feedStep
}

// simulate runs one workload on the named engine, as cmd/runsim does, and
// saves it under dir.
func simulate(dir, engine string, w spec, binary bool) (*runInput, error) {
	prog, err := workload.NewProgram(w.algorithm, w.g)
	if err != nil {
		return nil, err
	}
	var (
		log        *enginelog.Log
		cl         *cluster.Cluster
		start, end vtime.Time
		workers    int
		threads    int
		machine    cluster.MachineSpec
	)
	switch engine {
	case "giraph":
		cfg := experiments.GiraphConfig(costScale)
		res, err := giraphsim.Run(prog, graph.HashPartition(w.g, cfg.Workers), cfg)
		if err != nil {
			return nil, err
		}
		log, cl, start, end = res.Log, res.Cluster, res.Start, res.End
		workers, threads, machine = cfg.Workers, cfg.ThreadsPerWorker, cfg.Machine
	case "powergraph":
		cfg := experiments.PowerGraphConfig(costScale, false)
		res, err := pgsim.Run(prog, cfg)
		if err != nil {
			return nil, err
		}
		log, cl, start, end = res.Log, res.Cluster, res.Start, res.End
		workers, threads, machine = cfg.Workers, cfg.ThreadsPerWorker, cfg.Machine
	default:
		return nil, fmt.Errorf("unknown engine %q", engine)
	}
	mon, err := cluster.Monitor(cl, start, end, monInterval)
	if err != nil {
		return nil, err
	}
	run := &rundir.Run{
		Log:        log,
		Monitoring: mon,
		Info: rundir.Info{
			Engine: engine, Job: prog.Name(), Workers: workers,
			ThreadsPerWorker: threads, Cores: machine.Cores,
			NetBandwidth: machine.NetBandwidth, DiskBandwidth: machine.DiskBandwidth,
			StartNS: int64(start), EndNS: int64(end),
		},
	}
	if err := rundir.SaveOpts(dir, run, rundir.SaveOptions{BinaryLog: binary}); err != nil {
		return nil, err
	}
	return &runInput{dir: dir, sim: run}, nil
}

// expect fills in the reference output of a simulated run.
func expect(in *runInput) error {
	models, err := modelsFor(in.sim.Info)
	if err != nil {
		return err
	}
	out, err := grade10.Characterize(grade10.Input{
		Log: in.sim.Log, Monitoring: in.sim.Monitoring, Models: models, Parallelism: 1,
	})
	if err != nil {
		return err
	}
	// Independent of the pipeline: the profiled span must be the run the
	// simulator executed.
	if int64(out.Trace.Start) != in.sim.Info.StartNS || int64(out.Trace.End) != in.sim.Info.EndNS {
		return fmt.Errorf("reference profile spans [%d, %d), simulator ran [%d, %d)",
			out.Trace.Start, out.Trace.End, in.sim.Info.StartNS, in.sim.Info.EndNS)
	}
	var buf bytes.Buffer
	if err := report.WriteAll(&buf, out); err != nil {
		return err
	}
	in.wantReport = buf.Bytes()
	in.wantID = profstore.ContentID(profstore.BuildRecord(in.sim.Info, out))
	return nil
}

// modelsFor builds the built-in framework models from run metadata, as
// cmd/grade10, cmd/serve and the fleet do.
func modelsFor(info rundir.Info) (grade10.Models, error) {
	return grade10.ModelsForEngine(info.Engine, grade10.ModelParams{
		Job:              info.Job,
		Cores:            info.Cores,
		NetBandwidth:     info.NetBandwidth,
		DiskBandwidth:    info.DiskBandwidth,
		ThreadsPerWorker: info.ThreadsPerWorker,
	})
}

// monitoredInstances is the resource-instance count cmd/serve and the fleet
// size stream engines with: workers × (cpu, net-in, net-out, and disk when
// the machines have one).
func monitoredInstances(info rundir.Info) int {
	resources := 3
	if info.DiskBandwidth > 0 {
		resources++
	}
	return info.Workers * resources
}

// feedStep is what a live job has written after one more monitoring
// interval: the execution-log lines and monitoring rows produced since the
// previous step.
type feedStep struct {
	log []byte
	mon []string
}

// liveFeed splits a text run directory into the order a running job emits
// it: log lines as their events happen, monitoring rows once their sample
// interval has ended (interleaved across machines and resources, unlike the
// per-instance grouping of monitoring.csv).
func liveFeed(in *runInput) ([]feedStep, error) {
	logText, err := os.ReadFile(filepath.Join(in.dir, "execution.log"))
	if err != nil {
		return nil, err
	}
	lines := strings.SplitAfter(string(logText), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) != len(in.sim.Log.Events) {
		return nil, fmt.Errorf("text log has %d lines for %d events", len(lines), len(in.sim.Log.Events))
	}
	monText, err := os.ReadFile(filepath.Join(in.dir, "monitoring.csv"))
	if err != nil {
		return nil, err
	}
	type row struct {
		line string
		end  vtime.Time
	}
	var rows []row
	for _, line := range strings.Split(string(monText), "\n") {
		r, ok, err := rundir.ParseMonitoringLine(line)
		if err != nil {
			return nil, err
		}
		if ok {
			rows = append(rows, row{line, r.Sample.End})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].end < rows[j].end })

	var steps []feedStep
	ev, mr := 0, 0
	for t := vtime.Time(in.sim.Info.StartNS); ev < len(lines) || mr < len(rows); t = t.Add(monInterval) {
		var st feedStep
		var logBuf strings.Builder
		for ; ev < len(lines) && in.sim.Log.Events[ev].Time < t; ev++ {
			logBuf.WriteString(lines[ev])
		}
		st.log = []byte(logBuf.String())
		for ; mr < len(rows) && rows[mr].end <= t; mr++ {
			st.mon = append(st.mon, rows[mr].line)
		}
		steps = append(steps, st)
	}
	return steps, nil
}
