// Package dataflowsim is a minimal Spark-like staged-dataflow engine on the
// simulation substrate. It implements the paper's §V ongoing work —
// "extending to broader DAG-based data processing systems such as Spark" —
// and demonstrates requirement R5: onboarding a third framework onto Grade10
// takes one execution model, one resource model, and a handful of
// attribution rules (see Model).
//
// A job is a linear sequence of stages; each stage runs a set of tasks over
// its input partitions on a fixed pool of executor slots (wave scheduling,
// as in Spark). Stages are separated by all-to-all shuffles whose routing
// can be skewed, producing the partition-size stragglers that dominate real
// dataflow performance work.
package dataflowsim

import (
	"fmt"
	"math"

	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/grade10"
	"grade10/internal/sim"
	"grade10/internal/vtime"
)

// StageSpec describes one stage of the job.
type StageSpec struct {
	// Tasks is the stage's task count.
	Tasks int
	// CostPerRow is the compute cost per input row, in core-seconds.
	CostPerRow float64
	// Selectivity is output rows per input row (0.1 = heavy filter,
	// 1 = map, >1 = flat-map).
	Selectivity float64
	// ShuffleSkew shapes how this stage's output distributes over the next
	// stage's partitions: 0 = uniform; larger values concentrate rows in
	// low-numbered partitions Zipf-style.
	ShuffleSkew float64
}

// Job is a linear dataflow: input rows flow through the stages.
type Job struct {
	// Name becomes the root phase name.
	Name string
	// InputRows is the initial row count, split uniformly over the first
	// stage's tasks.
	InputRows int64
	// Stages in execution order.
	Stages []StageSpec
}

// Config is the engine configuration.
type Config struct {
	// Machines is the cluster size.
	Machines int
	// SlotsPerMachine bounds concurrent tasks per machine (executor cores).
	SlotsPerMachine int
	// Machine describes the hardware.
	Machine cluster.MachineSpec
	// BytesPerRow is the wire size of a shuffled row.
	BytesPerRow float64
	// OSNoiseCores / NoiseSeed add unmodeled background load (0 disables).
	OSNoiseCores float64
	NoiseSeed    int64
}

// DefaultConfig returns a 4-machine, 4-slot configuration.
func DefaultConfig() Config {
	return Config{
		Machines:        4,
		SlotsPerMachine: 4,
		Machine:         cluster.MachineSpec{Cores: 4, NetBandwidth: 200e6},
		BytesPerRow:     100,
		OSNoiseCores:    0.3,
		NoiseSeed:       23,
	}
}

// Result is the outcome of one run.
type Result struct {
	Log        *enginelog.Log
	Cluster    *cluster.Cluster
	Start, End vtime.Time
	// RowsIn and RowsOut verify conservation through the pipeline.
	RowsIn, RowsOut float64
	// StageRows[i][t] is the input row count of stage i, task t.
	StageRows [][]float64
}

// Run executes the job.
func Run(job Job, cfg Config) (*Result, error) {
	if err := validate(job, cfg); err != nil {
		return nil, err
	}
	e := &engine{job: job, cfg: cfg}
	e.sched = sim.NewScheduler()
	e.cl = cluster.New(e.sched, cfg.Machines, cfg.Machine)
	e.log = enginelog.NewLogger(e.sched.Now)
	e.root = "/" + job.Name

	e.sched.Spawn("driver", e.driver)
	e.sched.Run()

	return &Result{
		Log:       e.log.Log(),
		Cluster:   e.cl,
		Start:     0,
		End:       e.endTime,
		RowsIn:    float64(job.InputRows),
		RowsOut:   e.rowsOut,
		StageRows: e.stageRows,
	}, nil
}

func validate(job Job, cfg Config) error {
	if job.Name == "" || len(job.Stages) == 0 || job.InputRows <= 0 {
		return fmt.Errorf("dataflowsim: job needs a name, stages, and input rows")
	}
	for i, st := range job.Stages {
		if st.Tasks <= 0 || st.CostPerRow < 0 || st.Selectivity < 0 {
			return fmt.Errorf("dataflowsim: stage %d invalid", i)
		}
	}
	if cfg.Machines <= 0 || cfg.SlotsPerMachine <= 0 {
		return fmt.Errorf("dataflowsim: need machines and slots")
	}
	if cfg.Machine.Cores <= 0 || cfg.Machine.NetBandwidth <= 0 {
		return fmt.Errorf("dataflowsim: machine spec invalid")
	}
	return nil
}

type engine struct {
	job   Job
	cfg   Config
	sched *sim.Scheduler
	cl    *cluster.Cluster
	log   *enginelog.Logger
	root  string

	stageRows [][]float64
	rowsOut   float64
	endTime   vtime.Time
}

// driver runs stages sequentially, tasks in waves over executor slots.
func (e *engine) driver(p *sim.Proc) {
	noise := cluster.StartNoise(e.cl, e.cfg.NoiseSeed, e.cfg.OSNoiseCores)
	defer noise.Stop()
	e.log.StartPhase(e.root, -1)

	// Initial partitions: uniform.
	rows := make([]float64, e.job.Stages[0].Tasks)
	per := float64(e.job.InputRows) / float64(len(rows))
	for t := range rows {
		rows[t] = per
	}

	for si, stage := range e.job.Stages {
		e.stageRows = append(e.stageRows, append([]float64(nil), rows...))
		stagePath := enginelog.JoinIndexed(e.root, "stage", si)
		e.log.StartPhase(stagePath, -1)

		// Destination partition sizes for the shuffle.
		var nextRows []float64
		var weights []float64
		if si+1 < len(e.job.Stages) {
			nextRows = make([]float64, e.job.Stages[si+1].Tasks)
			weights = zipfWeights(len(nextRows), stage.ShuffleSkew)
		}

		// Wave scheduling: one executor process per (machine, slot) runs its
		// share of tasks sequentially; tasks are assigned round-robin so the
		// waves interleave machines like Spark's scheduler.
		slots := e.cfg.Machines * e.cfg.SlotsPerMachine
		latch := sim.NewBarrier(slots + 1)
		for slot := 0; slot < slots; slot++ {
			slot := slot
			machine := slot % e.cfg.Machines
			e.sched.Spawn(fmt.Sprintf("exec-%d-%d", si, slot), func(xp *sim.Proc) {
				for task := slot; task < stage.Tasks; task += slots {
					e.runTask(xp, stagePath, si, task, machine, rows[task], stage, nextRows, weights)
				}
				latch.Wait(xp)
			})
		}
		latch.Wait(p)
		e.log.EndPhase(stagePath)

		if nextRows == nil {
			for _, r := range rows {
				e.rowsOut += r * stage.Selectivity
			}
			break
		}
		rows = nextRows
	}

	e.log.EndPhase(e.root)
	e.endTime = e.sched.Now()
}

// runTask computes one task and performs its shuffle writes.
func (e *engine) runTask(xp *sim.Proc, stagePath string, si, task, machine int,
	inRows float64, stage StageSpec, nextRows, weights []float64) {
	taskPath := enginelog.JoinIndexed(stagePath, "task", task)
	e.log.StartPhase(taskPath, machine)
	e.cl.CPUs[machine].Compute(xp, 1, inRows*stage.CostPerRow)

	if nextRows != nil {
		out := inRows * stage.Selectivity
		// Rows route to next-stage partitions by the stage's skew profile;
		// partitions map to machines round-robin (the next wave's layout).
		slots := e.cfg.Machines * e.cfg.SlotsPerMachine
		perDst := map[int]float64{}
		for d := range nextRows {
			share := out * weights[d]
			nextRows[d] += share
			dstMachine := (d % slots) % e.cfg.Machines
			if dstMachine != machine {
				perDst[dstMachine] += share * e.cfg.BytesPerRow
			}
		}
		for dst := 0; dst < e.cfg.Machines; dst++ {
			if b := perDst[dst]; b > 0 {
				e.cl.Net.Transfer(xp, machine, dst, b)
			}
		}
	}
	e.log.EndPhase(taskPath)
}

// zipfWeights returns normalized partition weights: uniform at skew 0,
// increasingly concentrated on low-numbered partitions as skew grows.
func zipfWeights(n int, skew float64) []float64 {
	w := make([]float64, n)
	total := 0.0
	for i := range w {
		w[i] = 1.0 / math.Pow(float64(i+1), skew)
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

// Model returns the Grade10 expert input for this engine: the execution
// model (sequential stages of concurrent tasks), the resource model, and the
// attribution rules (a running task burns exactly one executor core and
// writes shuffle output to the network). Defining a complete model for a new
// framework takes a dozen lines — the §III-B claim that expert input is
// written once per framework.
func Model(p grade10.ModelParams) (grade10.Models, error) {
	root := core.NewRootType(p.Job)
	stage := root.Child("stage", true)
	stage.Sequential = true
	stage.Child("task", true)
	exec, err := core.NewExecutionModel(root)
	if err != nil {
		return grade10.Models{}, err
	}
	res, err := core.NewResourceModel(
		&core.Resource{Name: cluster.ResCPU, Kind: core.Consumable,
			Capacity: p.Cores, PerMachine: true},
		&core.Resource{Name: cluster.ResNetOut, Kind: core.Consumable,
			Capacity: p.NetBandwidth, PerMachine: true},
		&core.Resource{Name: cluster.ResNetIn, Kind: core.Consumable,
			Capacity: p.NetBandwidth, PerMachine: true},
	)
	if err != nil {
		return grade10.Models{}, err
	}
	rules := core.NewRuleSet()
	task := "/" + p.Job + "/stage/task"
	rules.Set(task, cluster.ResCPU, core.Exact(1)).
		Set(task, cluster.ResNetOut, core.Variable(1)).
		Set(task, cluster.ResNetIn, core.Variable(1))
	return grade10.Models{Exec: exec, Res: res, Rules: rules}, nil
}
