// Package workload defines the paper's evaluation workloads: two datasets
// (a Graph500-style R-MAT graph and an LDBC-Datagen-style community graph,
// substituting for the Graphalytics datasets per DESIGN.md §2) crossed with
// four algorithms (BFS, PageRank, WCC, CDLP) — the eight workloads of
// §IV-A — plus helpers to run them on either engine and feed the results to
// Grade10.
package workload

import (
	"fmt"
	"sync"

	"grade10/internal/cluster"
	"grade10/internal/giraphsim"
	"grade10/internal/grade10"
	"grade10/internal/graph"
	"grade10/internal/pgsim"
	"grade10/internal/vertexprog"
	"grade10/internal/vtime"
)

// Dataset is a named deterministic graph generator.
type Dataset struct {
	Name string
	Gen  func() *graph.Graph
}

// datasetCache memoizes generated graphs: experiments run many workloads
// over the same two datasets.
var (
	datasetMu    sync.Mutex
	datasetCache = map[string]*graph.Graph{}
)

// Graph returns the dataset's graph, generating it once.
func (d Dataset) Graph() *graph.Graph {
	datasetMu.Lock()
	defer datasetMu.Unlock()
	if g, ok := datasetCache[d.Name]; ok {
		return g
	}
	g := d.Gen()
	datasetCache[d.Name] = g
	return g
}

// Datasets returns the two evaluation datasets.
func Datasets() []Dataset {
	return []Dataset{
		{
			// Graph500-like: heavy-tailed degree distribution.
			Name: "rmat",
			Gen:  func() *graph.Graph { return graph.RMAT(12, 12, 100) },
		},
		{
			// Datagen-like: community structure with skewed community sizes.
			Name: "datagen",
			Gen: func() *graph.Graph {
				return graph.Community(graph.CommunityParams{
					Vertices: 4096, Communities: 24, IntraDegree: 6,
					InterFraction: 0.04, Seed: 100,
				})
			},
		},
	}
}

// Algorithms returns the four evaluation algorithm names.
func Algorithms() []string { return []string{"bfs", "pagerank", "wcc", "cdlp"} }

// NewProgram instantiates an algorithm on a graph. PageRank runs 8
// iterations and CDLP 8, following typical Graphalytics settings scaled to
// the simulation.
func NewProgram(algorithm string, g *graph.Graph) (vertexprog.Program, error) {
	switch algorithm {
	case "bfs":
		return vertexprog.NewBFS(g, 0), nil
	case "pagerank":
		return vertexprog.NewPageRank(g, 0.85, 8), nil
	case "wcc":
		return vertexprog.NewWCC(g), nil
	case "cdlp":
		return vertexprog.NewCDLP(g, 8), nil
	case "sssp":
		return vertexprog.NewSSSP(g, 0), nil
	default:
		return nil, fmt.Errorf("workload: unknown algorithm %q", algorithm)
	}
}

// Spec names one workload: a dataset × algorithm pair.
type Spec struct {
	Dataset   Dataset
	Algorithm string
}

// Name returns "algorithm-dataset".
func (s Spec) Name() string { return s.Algorithm + "-" + s.Dataset.Name }

// All returns the paper's eight workloads.
func All() []Spec {
	var out []Spec
	for _, a := range Algorithms() {
		for _, d := range Datasets() {
			out = append(out, Spec{Dataset: d, Algorithm: a})
		}
	}
	return out
}

// GiraphRun is a finished BSP-engine execution with everything Grade10
// needs.
type GiraphRun struct {
	Config giraphsim.Config
	Result *giraphsim.Result
	Models grade10.Models
}

// RunGiraph executes a workload on the BSP engine with the given config and
// builds the tuned Giraph models for it.
func RunGiraph(spec Spec, cfg giraphsim.Config) (*GiraphRun, error) {
	g := spec.Dataset.Graph()
	prog, err := NewProgram(spec.Algorithm, g)
	if err != nil {
		return nil, err
	}
	part := graph.HashPartition(g, cfg.Workers)
	res, err := giraphsim.Run(prog, part, cfg)
	if err != nil {
		return nil, err
	}
	models, err := grade10.GiraphModel(grade10.ModelParams{
		Job:              prog.Name(),
		Cores:            cfg.Machine.Cores,
		NetBandwidth:     cfg.Machine.NetBandwidth,
		DiskBandwidth:    cfg.Machine.DiskBandwidth,
		ThreadsPerWorker: cfg.ThreadsPerWorker,
	})
	if err != nil {
		return nil, err
	}
	return &GiraphRun{Config: cfg, Result: res, Models: models}, nil
}

// Characterize runs the Grade10 pipeline on the run with the given
// monitoring interval and timeslice.
func (r *GiraphRun) Characterize(interval, timeslice vtime.Duration) (*grade10.Output, error) {
	monitoring, err := cluster.Monitor(r.Result.Cluster, r.Result.Start, r.Result.End, interval)
	if err != nil {
		return nil, err
	}
	return grade10.Characterize(grade10.Input{
		Log:        r.Result.Log,
		Monitoring: monitoring,
		Models:     r.Models,
		Timeslice:  timeslice,
	})
}

// PowerGraphRun is a finished GAS-engine execution.
type PowerGraphRun struct {
	Config pgsim.Config
	Result *pgsim.Result
	Models grade10.Models
}

// RunPowerGraph executes a workload on the GAS engine with the given config
// and builds the tuned PowerGraph models for it.
func RunPowerGraph(spec Spec, cfg pgsim.Config) (*PowerGraphRun, error) {
	g := spec.Dataset.Graph()
	prog, err := NewProgram(spec.Algorithm, g)
	if err != nil {
		return nil, err
	}
	res, err := pgsim.Run(prog, cfg)
	if err != nil {
		return nil, err
	}
	models, err := grade10.PowerGraphModel(grade10.ModelParams{
		Job:              prog.Name(),
		Cores:            cfg.Machine.Cores,
		NetBandwidth:     cfg.Machine.NetBandwidth,
		DiskBandwidth:    cfg.Machine.DiskBandwidth,
		ThreadsPerWorker: cfg.ThreadsPerWorker,
	})
	if err != nil {
		return nil, err
	}
	return &PowerGraphRun{Config: cfg, Result: res, Models: models}, nil
}

// Characterize runs the Grade10 pipeline on the run.
func (r *PowerGraphRun) Characterize(interval, timeslice vtime.Duration) (*grade10.Output, error) {
	monitoring, err := cluster.Monitor(r.Result.Cluster, r.Result.Start, r.Result.End, interval)
	if err != nil {
		return nil, err
	}
	return grade10.Characterize(grade10.Input{
		Log:        r.Result.Log,
		Monitoring: monitoring,
		Models:     r.Models,
		Timeslice:  timeslice,
	})
}
