package pgsim

import (
	"fmt"
	"math/rand"

	"grade10/internal/cluster"
	"grade10/internal/enginelog"
	"grade10/internal/graph"
	"grade10/internal/par"
	"grade10/internal/sim"
	"grade10/internal/vertexprog"
)

// Result is the outcome of one simulated run: the log, the cluster's ground
// truth and the run's bounds (cluster.Run), plus the engine's own results.
type Result struct {
	cluster.Run
	// Values are the final per-vertex algorithm values.
	Values []float64
	// Stats aggregates engine observations.
	Stats Stats
}

// Run executes a vertex program under the GAS engine on a greedy vertex-cut.
func Run(prog vertexprog.Program, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	g := prog.Graph()
	e := &engine{cfg: cfg, prog: prog, g: g}
	e.vc = graph.GreedyVertexCut(g, cfg.Workers)
	e.active = make([]bool, g.NumVertices())
	e.bugRNG = rand.New(rand.NewSource(cfg.BugSeed))
	e.stats.ReplicationFactor = e.vc.ReplicationFactor()

	run := cluster.RunJob(cluster.JobSpec{
		Name: prog.Name(), Machines: cfg.Workers, Machine: cfg.Machine,
		NoiseCores: cfg.OSNoiseCores, NoiseSeed: cfg.NoiseSeed,
	}, e.master)
	return &Result{Run: run, Values: prog.Values(), Stats: e.stats}, nil
}

type engine struct {
	*cluster.Job
	cfg  Config
	prog vertexprog.Program
	g    *graph.Graph
	vc   *graph.VertexCut

	active []bool // active flags for the current iteration
	bugRNG *rand.Rand
	stats  Stats
}

// master orchestrates the job inside its root phase: load, iteration loop,
// write.
func (e *engine) master(j *cluster.Job, p *sim.Proc) {
	e.Job = j
	threads := e.cfg.ThreadsPerWorker
	e.FanOut(p, "load", threads, func(w int) (float64, float64) {
		edges := float64(len(e.vc.PartEdges(w)))
		return edges * e.cfg.LoadCostPerEdge, edges * e.cfg.DiskBytesPerEdge
	})

	execPath := enginelog.Join(e.Root, "execute")
	e.Log.StartPhase(execPath, -1)
	for s := 0; ; s++ {
		step := e.prog.Advance(s)
		e.iteration(p, execPath, s, step)
		e.stats.Iterations++
		if step.Halt || s+1 >= e.prog.MaxSteps() {
			break
		}
	}
	e.Log.EndPhase(execPath)

	e.FanOut(p, "write", threads, func(w int) (float64, float64) {
		masters := 0
		for v := 0; v < e.g.NumVertices(); v++ {
			if e.vc.Master(graph.Vertex(v)) == w {
				masters++
			}
		}
		return float64(masters) * e.cfg.WriteCostPerVertex,
			float64(masters) * e.cfg.DiskBytesPerVertex
	})
}

// iterPlan precomputes one iteration's per-worker work and traffic.
type iterPlan struct {
	// gatherEdges[w] lists participating CSR edge indices on worker w.
	gatherEdges [][]int64
	// applyMasters[w] lists active master vertices on worker w.
	applyMasters [][]graph.Vertex
	// gatherWork/applyWork/scatterWork[w][t] list the per-chunk compute
	// work of worker w's thread t in the respective minor-step, using the
	// runThreads thread/chunk split.
	gatherWork, applyWork, scatterWork [][][]float64
	// exchange[w][d] is the mirror→master byte volume from w to d;
	// sync[w][d] the master→mirror volume.
	exchange, syncBytes [][]float64
	// bugThread/bugFactor: per worker, the injected straggler (-1 = none).
	bugThread []int
	bugFactor []float64
}

// plan precomputes one iteration's cost model. The per-worker edge filters
// and per-thread chunk work sums are independent, so they run on
// Config.Parallelism host workers — each job writes only its own slot, and
// within a job the accumulation order matches the former serial loops, so
// the plan (and therefore the simulated schedule) is identical.
func (e *engine) plan(step vertexprog.Step) *iterPlan {
	span := e.cfg.Tracer.StartSpan("precompute-plan", -1)
	defer span.End()
	if e.cfg.Tracer.Enabled() {
		span.SetItems(int64(len(step.Active)))
	}
	W := e.cfg.Workers
	pl := &iterPlan{
		gatherEdges:  make([][]int64, W),
		applyMasters: make([][]graph.Vertex, W),
		gatherWork:   make([][][]float64, W),
		applyWork:    make([][][]float64, W),
		scatterWork:  make([][][]float64, W),
		exchange:     make2D(W),
		syncBytes:    make2D(W),
		bugThread:    make([]int, W),
		bugFactor:    make([]float64, W),
	}
	for i := range e.active {
		e.active[i] = false
	}
	for _, v := range step.Active {
		e.active[v] = true
	}

	// Participating edges per worker: any edge incident to an active vertex.
	par.Do(W, e.cfg.Parallelism, func(w int) {
		partEdges := e.vc.PartEdges(w)
		mine := make([]int64, 0, len(partEdges))
		for _, idx := range partEdges {
			src, dst := e.g.EdgeSource(idx), e.g.EdgeDst(idx)
			if e.active[src] || e.active[dst] {
				mine = append(mine, idx)
			}
		}
		pl.gatherEdges[w] = mine
	})

	// Masters and replica traffic of active vertices (serial: the RNG-free
	// shared exchange matrices and stats make this cheap but order-coupled).
	for _, v := range step.Active {
		m := e.vc.Master(v)
		pl.applyMasters[m] = append(pl.applyMasters[m], v)
		e.vc.ReplicaParts(v, func(part int) {
			if part == m {
				return
			}
			pl.exchange[part][m] += e.cfg.BytesPerPartial
			pl.syncBytes[m][part] += e.cfg.BytesPerUpdate
			e.stats.MessagesSent += 2
		})
	}

	// Per-thread chunk work for the three compute minor-steps, one job per
	// (worker, minor-step).
	cfg := &e.cfg
	par.Do(3*W, e.cfg.Parallelism, func(j int) {
		w, kind := j/3, j%3
		switch kind {
		case 0:
			edges := pl.gatherEdges[w]
			pl.gatherWork[w] = e.chunkWork(len(edges), cfg.ChunkEdges, func(i int) float64 {
				idx := edges[i]
				src, dst := e.g.EdgeSource(idx), e.g.EdgeDst(idx)
				return cfg.CostPerEdgeGather * 0.5 * (step.WeightOf(src) + step.WeightOf(dst))
			})
		case 1:
			masters := pl.applyMasters[w]
			pl.applyWork[w] = e.chunkWork(len(masters), cfg.ChunkEdges, func(i int) float64 {
				return cfg.CostPerVertexApply * step.WeightOf(masters[i])
			})
		case 2:
			edges := pl.gatherEdges[w]
			pl.scatterWork[w] = e.chunkWork(len(edges), cfg.ChunkEdges, func(i int) float64 {
				return cfg.CostPerEdgeScatter
			})
		}
	})

	// Sync-bug injection: a seeded subset of (iteration, worker) gather
	// steps get one straggling thread.
	for w := 0; w < W; w++ {
		pl.bugThread[w] = -1
		if e.cfg.EnableSyncBug && len(pl.gatherEdges[w]) > 0 {
			if e.bugRNG.Float64() < e.cfg.BugProbability {
				pl.bugThread[w] = e.bugRNG.Intn(e.cfg.ThreadsPerWorker)
				span := e.cfg.BugFactorMax - e.cfg.BugFactorMin
				pl.bugFactor[w] = e.cfg.BugFactorMin + e.bugRNG.Float64()*span
				e.stats.BugInjections++
			}
		}
	}
	return pl
}

// chunkWork splits n items into ThreadsPerWorker contiguous blocks (the
// runThreads split) and sums cost(i) per ChunkEdges-sized quantum, in item
// order — the same floating-point accumulation the threads used to perform
// inside the simulation.
func (e *engine) chunkWork(n, chunkSize int, cost func(i int) float64) [][]float64 {
	threads := e.cfg.ThreadsPerWorker
	per := (n + threads - 1) / threads
	out := make([][]float64, threads)
	for t := 0; t < threads; t++ {
		lo := t * per
		hi := lo + per
		if lo > n {
			lo = n
		}
		if hi > n {
			hi = n
		}
		var works []float64
		if lo < hi {
			works = make([]float64, 0, (hi-lo+chunkSize-1)/chunkSize)
		}
		for start := lo; start < hi; start += chunkSize {
			end := start + chunkSize
			if end > hi {
				end = hi
			}
			work := 0.0
			for i := start; i < end; i++ {
				work += cost(i)
			}
			works = append(works, work)
		}
		out[t] = works
	}
	return out
}

func make2D(n int) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	return out
}

// iteration runs one GAS iteration across all workers.
func (e *engine) iteration(p *sim.Proc, execPath string, s int, step vertexprog.Step) {
	span := e.cfg.Tracer.StartSpan("iteration", -1)
	vStart := e.Sched.Now()
	itPath := enginelog.JoinIndexed(execPath, "iteration", s)
	e.Log.StartPhase(itPath, -1)
	e.Log.AddCounter("active-vertices", float64(len(step.Active)))

	pl := e.plan(step)
	W := e.cfg.Workers
	gatherXB := sim.NewBarrier(W)  // after gather exchange
	syncXB := sim.NewBarrier(W)    // after sync exchange
	iterEndB := sim.NewBarrier(W)  // end of iteration
	latch := sim.NewBarrier(W + 1) // master join
	for w := 0; w < W; w++ {
		w := w
		e.Sched.Spawn(fmt.Sprintf("it%d-w%d", s, w), func(wp *sim.Proc) {
			e.workerIteration(wp, itPath, s, w, step, pl, gatherXB, syncXB, iterEndB)
			latch.Wait(wp)
		})
	}
	latch.Wait(p)
	e.Log.EndPhase(itPath)
	if e.cfg.Tracer.Enabled() {
		span.SetDetail(itPath)
		span.SetItems(int64(len(step.Active)))
		span.SetWindow(int64(vStart), int64(e.Sched.Now()))
	}
	span.End()
}

// workerIteration runs one worker's minor-steps.
func (e *engine) workerIteration(wp *sim.Proc, itPath string, s, w int,
	step vertexprog.Step, pl *iterPlan, gatherXB, syncXB, iterEndB *sim.Barrier) {
	wPath := enginelog.JoinIndexed(itPath, "worker", w)
	e.Log.StartPhase(wPath, w)

	// Gather: threads over participating edges, contiguous blocks. The cost
	// of gathering over an edge scales with the program's vertex weights
	// (e.g. CDLP's label-histogram size), which is what makes gather so
	// imbalanced on community graphs.
	e.threadedPhase(wp, wPath, "gather", s, w, pl.gatherWork[w],
		pl.bugThread[w], pl.bugFactor[w])

	// Gather exchange: mirrors ship partial accumulators to masters, then
	// all workers synchronize (masters need every partial before apply).
	e.exchangePhase(wp, wPath, "exchange", w, pl.exchange, gatherXB)

	// Apply: threads over active masters, weighted per-vertex cost.
	e.threadedPhase(wp, wPath, "apply", s, w, pl.applyWork[w], -1, 0)

	// Sync exchange: masters broadcast updated values to mirrors.
	e.exchangePhase(wp, wPath, "sync", w, pl.syncBytes, syncXB)

	// Scatter: threads over participating edges again, cheaper per edge and
	// weight-independent.
	e.threadedPhase(wp, wPath, "scatter", s, w, pl.scatterWork[w], -1, 0)

	// Iteration barrier.
	bPath := enginelog.Join(wPath, "barrier")
	e.Log.StartPhase(bPath, -1)
	before := wp.Now()
	iterEndB.Wait(wp)
	e.stats.BarrierWait += wp.Now().Sub(before)
	e.Log.BlockedSince(bPath, ResBarrier, before)
	e.Log.EndPhase(bPath)

	e.Log.EndPhase(wPath)
}

// threadedPhase runs a thread-parallel minor-step (gather/apply/scatter)
// from its precomputed per-thread chunk work. bugThread (if ≥ 0) has its
// work multiplied by bugFactor, modeling the late-message-stream straggler
// of §IV-D.
func (e *engine) threadedPhase(wp *sim.Proc, wPath, name string, s, w int,
	thWork [][]float64, bugThread int, bugFactor float64) {
	path := enginelog.Join(wPath, name)
	e.Log.StartPhase(path, -1)
	e.runThreads(wp, path, s, w, thWork, bugThread, bugFactor)
	e.Log.EndPhase(path)
}

// runThreads runs one thread phase per precomputed chunk-work block
// (thWork[t] is thread t's ChunkEdges-quantum work sequence, from
// plan/chunkWork).
func (e *engine) runThreads(wp *sim.Proc, parent string, s, w int,
	thWork [][]float64, bugThread int, bugFactor float64) {
	cpu := e.Cluster.CPUs[w]
	threads := e.cfg.ThreadsPerWorker
	latch := sim.NewBarrier(threads + 1)
	for t := 0; t < threads; t++ {
		t := t
		e.Sched.Spawn(fmt.Sprintf("%s-it%d-w%d-t%d", parent, s, w, t), func(tp *sim.Proc) {
			tPath := enginelog.JoinIndexed(parent, "thread", t)
			e.Log.StartPhase(tPath, -1)
			for _, work := range thWork[t] {
				if t == bugThread {
					work *= bugFactor
				}
				cpu.Compute(tp, 1, work)
			}
			e.Log.EndPhase(tPath)
			latch.Wait(tp)
		})
	}
	latch.Wait(wp)
}

// exchangePhase ships this worker's row of the byte matrix to its
// destinations, then waits on the cluster-wide mini-barrier; the wait is
// logged as blocking on the exchange phase.
func (e *engine) exchangePhase(wp *sim.Proc, wPath, name string, w int,
	bytes [][]float64, barrier *sim.Barrier) {
	path := enginelog.Join(wPath, name)
	e.Log.StartPhase(path, -1)
	for d := 0; d < e.cfg.Workers; d++ {
		if b := bytes[w][d]; b > 0 && d != w {
			if cost := b * e.cfg.SerializeCostPerByte; cost > 0 {
				e.Cluster.CPUs[w].Compute(wp, 1, cost) // serialization work
			}
			e.Cluster.Net.Transfer(wp, w, d, b)
			e.stats.BytesSent += b
		}
	}
	before := wp.Now()
	barrier.Wait(wp)
	e.stats.BarrierWait += wp.Now().Sub(before)
	e.Log.BlockedSince(path, ResBarrier, before)
	e.Log.EndPhase(path)
}
