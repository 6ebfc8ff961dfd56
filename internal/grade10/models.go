// Package grade10 is the top-level facade of the characterization framework:
// it bundles the execution/resource models and attribution rules for the two
// supported engines (the expert input of §III-B, defined once per framework
// and reused across workloads), and orchestrates the full pipeline — ingest
// logs and monitoring, build traces, attribute resources, detect bottlenecks
// and performance issues.
package grade10

import (
	"fmt"

	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/rundir"
)

// ModelParams carries the SUT facts the models need.
type ModelParams struct {
	// Job is the root phase name, matching the engine's program name
	// ("pagerank", "bfs", ...).
	Job string
	// Cores per machine; capacity of the cpu resource.
	Cores float64
	// NetBandwidth per machine in bytes/second.
	NetBandwidth float64
	// DiskBandwidth per machine in bytes/second; 0 omits the disk resource.
	DiskBandwidth float64
	// ThreadsPerWorker is the engine's compute thread count (used by Exact
	// rules for load/write phases).
	ThreadsPerWorker int
}

// RunParams maps a run's metadata (run.json) onto the model parameters: the
// one mapping the batch CLIs and the live engine build their models from.
func RunParams(info rundir.Info) ModelParams {
	return ModelParams{
		Job:              info.Job,
		Cores:            info.Cores,
		NetBandwidth:     info.NetBandwidth,
		DiskBandwidth:    info.DiskBandwidth,
		ThreadsPerWorker: info.ThreadsPerWorker,
	}
}

// Models bundles the three expert inputs for one framework.
type Models struct {
	Exec  *core.ExecutionModel
	Res   *core.ResourceModel
	Rules *core.RuleSet
}

// Blocking resource names shared with the engines.
const (
	ResGC       = "gc"
	ResMsgQueue = "msgqueue"
	ResBarrier  = "barrier"
	ResStarved  = "starved"
)

func consumables(p ModelParams) []*core.Resource {
	out := []*core.Resource{
		{Name: cluster.ResCPU, Kind: core.Consumable, Capacity: p.Cores, PerMachine: true},
		{Name: cluster.ResNetOut, Kind: core.Consumable, Capacity: p.NetBandwidth, PerMachine: true},
		{Name: cluster.ResNetIn, Kind: core.Consumable, Capacity: p.NetBandwidth, PerMachine: true},
	}
	if p.DiskBandwidth > 0 {
		out = append(out, &core.Resource{Name: cluster.ResDisk, Kind: core.Consumable,
			Capacity: p.DiskBandwidth, PerMachine: true})
	}
	return out
}

// diskRules installs the storage rules: only the load and write workers
// touch the disk; every other modeled leaf gets an explicit None so the
// implicit Variable default cannot leak disk consumption onto compute
// phases.
func diskRules(p ModelParams, rules *core.RuleSet, em *core.ExecutionModel) {
	if p.DiskBandwidth <= 0 {
		return
	}
	prefix := "/" + p.Job
	for _, tp := range em.TypePaths() {
		if em.Lookup(tp).IsLeaf() {
			rules.Set(tp, cluster.ResDisk, core.None())
		}
	}
	rules.Set(prefix+"/load/worker", cluster.ResDisk, core.Variable(1)).
		Set(prefix+"/write/worker", cluster.ResDisk, core.Variable(1))
}

// ModelsForEngine builds the built-in tuned models for the named engine
// ("giraph" or "powergraph"). The batch CLIs (cmd/grade10 and cmd/infer)
// and the live serving layer resolve run metadata through this one entry
// point.
func ModelsForEngine(engine string, p ModelParams) (Models, error) {
	switch engine {
	case "giraph":
		return GiraphModel(p)
	case "powergraph":
		return PowerGraphModel(p)
	default:
		return Models{}, fmt.Errorf("grade10: unknown engine %q", engine)
	}
}

// GiraphModel returns the tuned models for the Giraph-like BSP engine: the
// phase hierarchy of its logs, its hardware and software resources (including
// GC and message queues), and the attribution rules the paper describes
// (each active compute thread demands exactly one core).
func GiraphModel(p ModelParams) (Models, error) {
	root := core.NewRootType(p.Job)
	load := root.Child("load", false)
	load.Child("worker", true)
	exec := root.Child("execute", false, "load")
	ss := exec.Child("superstep", true)
	ss.Sequential = true
	worker := ss.Child("worker", true)
	worker.Child("prepare", false)
	compute := worker.Child("compute", false, "prepare")
	compute.Child("thread", true)
	communicate := worker.Child("communicate", false, "prepare")
	communicate.ElasticWaits = true
	barrierType := worker.Child("barrier", false, "compute", "communicate")
	barrierType.SyncGroup = true
	write := root.Child("write", false, "execute")
	write.Child("worker", true)

	em, err := core.NewExecutionModel(root)
	if err != nil {
		return Models{}, err
	}
	rm, err := core.NewResourceModel(append(consumables(p),
		&core.Resource{Name: ResGC, Kind: core.Blocking, PerMachine: true},
		&core.Resource{Name: ResMsgQueue, Kind: core.Blocking, PerMachine: true},
		&core.Resource{Name: ResBarrier, Kind: core.Blocking},
		&core.Resource{Name: ResStarved, Kind: core.Blocking, PerMachine: true},
	)...)
	if err != nil {
		return Models{}, err
	}

	rules := core.NewRuleSet()
	prefix := "/" + p.Job
	thread := prefix + "/execute/superstep/worker/compute/thread"
	comm := prefix + "/execute/superstep/worker/communicate"
	prep := prefix + "/execute/superstep/worker/prepare"
	barrier := prefix + "/execute/superstep/worker/barrier"
	loadW := prefix + "/load/worker"
	writeW := prefix + "/write/worker"
	threads := float64(p.ThreadsPerWorker)

	// The paper's tuned Giraph model: "an active compute thread is expected
	// to always use precisely one CPU core".
	rules.Set(thread, cluster.ResCPU, core.Exact(1)).
		Set(thread, cluster.ResNetOut, core.None()).
		Set(thread, cluster.ResNetIn, core.None()).
		Set(comm, cluster.ResCPU, core.Variable(0.5)).
		Set(comm, cluster.ResNetOut, core.Variable(1)).
		Set(comm, cluster.ResNetIn, core.Variable(1)).
		Set(prep, cluster.ResCPU, core.Variable(1)).
		Set(prep, cluster.ResNetOut, core.None()).
		Set(prep, cluster.ResNetIn, core.None()).
		Set(barrier, cluster.ResCPU, core.None()).
		Set(barrier, cluster.ResNetOut, core.None()).
		Set(barrier, cluster.ResNetIn, core.None()).
		Set(loadW, cluster.ResCPU, core.Exact(threads)).
		Set(loadW, cluster.ResNetOut, core.None()).
		Set(loadW, cluster.ResNetIn, core.None()).
		Set(writeW, cluster.ResCPU, core.Exact(threads)).
		Set(writeW, cluster.ResNetOut, core.None()).
		Set(writeW, cluster.ResNetIn, core.None())
	diskRules(p, rules, em)

	return Models{Exec: em, Res: rm, Rules: rules}, nil
}

// GiraphModelUntuned returns the Giraph models with no attribution rules:
// every phase falls back to the implicit Variable(1) rule, reproducing the
// paper's Figure 3(a) configuration.
func GiraphModelUntuned(p ModelParams) (Models, error) {
	m, err := GiraphModel(p)
	if err != nil {
		return Models{}, err
	}
	m.Rules = core.NewRuleSet()
	return m, nil
}

// PowerGraphModel returns the tuned models for the PowerGraph-like GAS
// engine. The paper notes its model is "comprehensive and tuned", which is
// why its upsampling accuracy is the best in Table II.
func PowerGraphModel(p ModelParams) (Models, error) {
	root := core.NewRootType(p.Job)
	load := root.Child("load", false)
	load.Child("worker", true)
	exec := root.Child("execute", false, "load")
	it := exec.Child("iteration", true)
	it.Sequential = true
	worker := it.Child("worker", true)
	gather := worker.Child("gather", false)
	gather.Child("thread", true)
	exchange := worker.Child("exchange", false, "gather")
	exchange.SyncGroup = true
	apply := worker.Child("apply", false, "exchange")
	apply.Child("thread", true)
	syncX := worker.Child("sync", false, "apply")
	syncX.SyncGroup = true
	scatter := worker.Child("scatter", false, "sync")
	scatter.Child("thread", true)
	barrierType := worker.Child("barrier", false, "scatter")
	barrierType.SyncGroup = true
	write := root.Child("write", false, "execute")
	write.Child("worker", true)

	em, err := core.NewExecutionModel(root)
	if err != nil {
		return Models{}, err
	}
	rm, err := core.NewResourceModel(append(consumables(p),
		&core.Resource{Name: ResBarrier, Kind: core.Blocking},
	)...)
	if err != nil {
		return Models{}, err
	}

	rules := core.NewRuleSet()
	prefix := "/" + p.Job
	threads := float64(p.ThreadsPerWorker)
	for _, minor := range []string{"gather", "apply", "scatter"} {
		tp := fmt.Sprintf("%s/execute/iteration/worker/%s/thread", prefix, minor)
		rules.Set(tp, cluster.ResCPU, core.Exact(1)).
			Set(tp, cluster.ResNetOut, core.None()).
			Set(tp, cluster.ResNetIn, core.None())
	}
	for _, x := range []string{"exchange", "sync"} {
		tp := prefix + "/execute/iteration/worker/" + x
		rules.Set(tp, cluster.ResCPU, core.Variable(0.2)).
			Set(tp, cluster.ResNetOut, core.Variable(1)).
			Set(tp, cluster.ResNetIn, core.Variable(1))
	}
	barrier := prefix + "/execute/iteration/worker/barrier"
	rules.Set(barrier, cluster.ResCPU, core.None()).
		Set(barrier, cluster.ResNetOut, core.None()).
		Set(barrier, cluster.ResNetIn, core.None())
	for _, w := range []string{"/load/worker", "/write/worker"} {
		tp := prefix + w
		rules.Set(tp, cluster.ResCPU, core.Exact(threads)).
			Set(tp, cluster.ResNetOut, core.None()).
			Set(tp, cluster.ResNetIn, core.None())
	}
	diskRules(p, rules, em)

	return Models{Exec: em, Res: rm, Rules: rules}, nil
}
