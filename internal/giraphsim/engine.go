package giraphsim

import (
	"fmt"
	"sort"
	"sync/atomic"

	"grade10/internal/cluster"
	"grade10/internal/enginelog"
	"grade10/internal/graph"
	"grade10/internal/par"
	"grade10/internal/sim"
	"grade10/internal/vertexprog"
	"grade10/internal/vtime"
)

// Result is the outcome of one simulated run.
type Result struct {
	// Log is the execution log Grade10 ingests.
	Log *enginelog.Log
	// Cluster holds ground-truth utilization for monitoring.
	Cluster *cluster.Cluster
	// Start and End bound the run in virtual time.
	Start, End vtime.Time
	// Values are the final per-vertex algorithm values, identical to the
	// sequential reference.
	Values []float64
	// Stats aggregates engine observations.
	Stats Stats
}

// Run executes a vertex program on a hash/range-partitioned graph under the
// BSP engine and returns the log, cluster ground truth, and results.
func Run(prog vertexprog.Program, part *graph.Partition, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if part.NumParts != cfg.Workers {
		return nil, fmt.Errorf("giraphsim: partition has %d parts, config has %d workers",
			part.NumParts, cfg.Workers)
	}
	e := &engine{
		cfg:  cfg,
		prog: prog,
		g:    prog.Graph(),
		part: part,
	}
	e.sched = sim.NewScheduler()
	e.cl = cluster.New(e.sched, cfg.Workers, cfg.Machine)
	e.log = enginelog.NewLogger(e.sched.Now)
	e.log.SetTee(cfg.Tee)
	e.root = "/" + prog.Name()
	e.owned = part.PartVertices()
	e.recv = make([]int32, e.g.NumVertices())
	e.jvms = make([]*jvmState, cfg.Workers)
	for w := range e.jvms {
		e.jvms[w] = &jvmState{gate: &sim.Gate{}}
		e.jvms[w].gate.Open()
	}

	e.sched.Spawn("master", e.master)
	e.sched.Run()

	return &Result{
		Log:     e.log.Log(),
		Cluster: e.cl,
		Start:   0,
		End:     e.endTime,
		Values:  prog.Values(),
		Stats:   e.stats,
	}, nil
}

type engine struct {
	cfg   Config
	prog  vertexprog.Program
	g     *graph.Graph
	part  *graph.Partition
	sched *sim.Scheduler
	cl    *cluster.Cluster
	log   *enginelog.Logger
	root  string
	owned [][]graph.Vertex

	// recv[v] is the number of messages v receives in the current superstep
	// (sent during the previous one).
	recv    []int32
	jvms    []*jvmState
	stats   Stats
	endTime vtime.Time
}

// jvmState models one worker's heap and collector.
type jvmState struct {
	heapUsed float64
	inGC     bool
	gate     *sim.Gate // open when no GC is running
}

// master orchestrates the whole job: load, superstep loop, write.
func (e *engine) master(p *sim.Proc) {
	noise := cluster.StartNoise(e.cl, e.cfg.NoiseSeed, e.cfg.OSNoiseCores)
	defer noise.Stop()
	e.log.StartPhase(e.root, -1)

	e.fanOutPhase(p, "load", func(w int) (float64, float64) {
		edges := 0
		for _, v := range e.owned[w] {
			edges += e.g.OutDegree(v)
		}
		return float64(edges) * e.cfg.LoadCostPerEdge,
			float64(edges) * e.cfg.DiskBytesPerEdge
	})

	execPath := enginelog.Join(e.root, "execute")
	e.log.StartPhase(execPath, -1)
	for s := 0; ; s++ {
		step := e.prog.Advance(s)
		e.superstep(p, execPath, s, step)
		e.stats.Supersteps++
		if step.Halt || s+1 >= e.prog.MaxSteps() {
			break
		}
	}
	e.log.EndPhase(execPath)

	e.fanOutPhase(p, "write", func(w int) (float64, float64) {
		return float64(len(e.owned[w])) * e.cfg.WriteCostPerVertex,
			float64(len(e.owned[w])) * e.cfg.DiskBytesPerVertex
	})

	e.log.EndPhase(e.root)
	e.endTime = e.sched.Now()
}

// fanOutPhase runs a simple parallel per-worker phase (load/write) where
// each worker streams workOf's bytes through the disk and burns its
// core-seconds across all threads.
func (e *engine) fanOutPhase(p *sim.Proc, name string, workOf func(w int) (cpu, disk float64)) {
	path := enginelog.Join(e.root, name)
	e.log.StartPhase(path, -1)
	latch := sim.NewBarrier(e.cfg.Workers + 1)
	for w := 0; w < e.cfg.Workers; w++ {
		w := w
		e.sched.Spawn(fmt.Sprintf("%s-%d", name, w), func(wp *sim.Proc) {
			wPath := enginelog.JoinIndexed(path, "worker", w)
			e.log.StartPhase(wPath, w)
			work, bytes := workOf(w)
			e.cl.ReadDisk(wp, w, bytes)
			e.cl.CPUs[w].Compute(wp, float64(e.cfg.ThreadsPerWorker), work)
			e.log.EndPhase(wPath)
			latch.Wait(wp)
		})
	}
	latch.Wait(p)
	e.log.EndPhase(path)
}

// chunk is one unit of thread work: compute cost, per-destination message
// bytes, and heap allocation.
type chunk struct {
	work      float64
	alloc     float64
	remote    []dstBytes // bytes per remote destination worker
	remoteSum float64
	messages  int64
}

type dstBytes struct {
	dst   int
	bytes float64
}

// superstep runs one BSP superstep across all workers. The per-thread cost
// model (chunk building) is precomputed concurrently on the host before the
// virtual-time schedule runs; the simulation itself stays on the serial
// discrete-event scheduler, so the engine log is byte-identical regardless
// of Config.Parallelism.
func (e *engine) superstep(p *sim.Proc, execPath string, s int, step vertexprog.Step) {
	span := e.cfg.Tracer.StartSpan("superstep", -1)
	vStart := e.sched.Now()
	ssPath := enginelog.JoinIndexed(execPath, "superstep", s)
	e.log.StartPhase(ssPath, -1)
	e.log.AddCounter("active-vertices", float64(len(step.Active)))

	// Per-worker active vertex lists.
	activeByWorker := make([][]graph.Vertex, e.cfg.Workers)
	for _, v := range step.Active {
		w := e.part.Owner(v)
		activeByWorker[w] = append(activeByWorker[w], v)
	}

	chunks := e.precomputeChunks(activeByWorker, step)

	globalBarrier := sim.NewBarrier(e.cfg.Workers)
	latch := sim.NewBarrier(e.cfg.Workers + 1)
	for w := 0; w < e.cfg.Workers; w++ {
		w := w
		e.sched.Spawn(fmt.Sprintf("ss%d-w%d", s, w), func(wp *sim.Proc) {
			e.workerSuperstep(wp, ssPath, s, w, chunks[w], globalBarrier)
			latch.Wait(wp)
		})
	}
	latch.Wait(p)
	e.log.EndPhase(ssPath)
	if e.cfg.Tracer.Enabled() {
		span.SetDetail(ssPath)
		span.SetItems(int64(len(step.Active)))
		span.SetWindow(int64(vStart), int64(e.sched.Now()))
	}
	span.End()

	e.updateRecv(step)
}

// precomputeChunks builds every thread's chunk sequence for one superstep —
// the data-dependent half of the engine's cost model — in parallel over
// (worker, thread) pairs. Each job writes only its own chunks[w][t] slot and
// replicates the exact iteration order of the former in-simulation path, so
// the produced chunks are identical to a serial build.
func (e *engine) precomputeChunks(activeByWorker [][]graph.Vertex,
	step vertexprog.Step) [][][]chunk {
	span := e.cfg.Tracer.StartSpan("precompute-chunks", -1)
	defer span.End()
	threads := e.cfg.ThreadsPerWorker
	if e.cfg.Tracer.Enabled() {
		span.SetItems(int64(e.cfg.Workers * threads))
	}
	chunks := make([][][]chunk, e.cfg.Workers)
	for w := range chunks {
		chunks[w] = make([][]chunk, threads)
	}
	par.Do(e.cfg.Workers*threads, e.cfg.Parallelism, func(j int) {
		w, t := j/threads, j%threads
		active := activeByWorker[w]
		// Interleaved assignment approximates Giraph's dynamic partition
		// scheduling: vertex counts balance; residual imbalance comes from
		// degree variance.
		n := 0
		if len(active) > t {
			n = (len(active) - t + threads - 1) / threads
		}
		mine := make([]graph.Vertex, 0, n)
		for i := t; i < len(active); i += threads {
			mine = append(mine, active[i])
		}
		list := make([]chunk, 0, (len(mine)+e.cfg.ChunkVertices-1)/e.cfg.ChunkVertices)
		remoteScratch := make([]float64, e.cfg.Workers)
		for start := 0; start < len(mine); start += e.cfg.ChunkVertices {
			end := start + e.cfg.ChunkVertices
			if end > len(mine) {
				end = len(mine)
			}
			list = append(list, e.buildChunk(remoteScratch, mine[start:end], step, w))
		}
		chunks[w][t] = list
	})
	return chunks
}

// updateRecv prepares receive counts for the next superstep: messages sent
// along the step's edges arrive at their endpoints. Counts are plain integer
// sums, so accumulating them with atomics over contiguous blocks of the
// active set yields the same counts as the serial loop.
func (e *engine) updateRecv(step vertexprog.Step) {
	for i := range e.recv {
		e.recv[i] = 0
	}
	if step.Halt {
		return
	}
	active := step.Active
	workers := par.Workers(e.cfg.Parallelism, len(active))
	if workers == 1 {
		for _, v := range active {
			if step.OutMessages {
				for _, u := range e.g.OutNeighbors(v) {
					e.recv[u]++
				}
			}
			if step.InMessages {
				for _, u := range e.g.InNeighbors(v) {
					e.recv[u]++
				}
			}
		}
		return
	}
	blockSize := (len(active) + workers - 1) / workers
	par.Do(workers, workers, func(b int) {
		lo := b * blockSize
		hi := lo + blockSize
		if hi > len(active) {
			hi = len(active)
		}
		for _, v := range active[lo:hi] {
			if step.OutMessages {
				for _, u := range e.g.OutNeighbors(v) {
					atomic.AddInt32(&e.recv[u], 1)
				}
			}
			if step.InMessages {
				for _, u := range e.g.InNeighbors(v) {
					atomic.AddInt32(&e.recv[u], 1)
				}
			}
		}
	})
}

// workerSuperstep is one worker's share of a superstep: prepare, chunked
// multi-threaded compute feeding the outgoing queue, concurrent
// communication, and the global barrier. thChunks[t] is thread t's
// precomputed chunk sequence.
func (e *engine) workerSuperstep(wp *sim.Proc, ssPath string, s, w int,
	thChunks [][]chunk, globalBarrier *sim.Barrier) {
	cfg := &e.cfg
	cpu := e.cl.CPUs[w]
	wPath := enginelog.JoinIndexed(ssPath, "worker", w)
	e.log.StartPhase(wPath, w)

	// Prepare.
	prepPath := enginelog.Join(wPath, "prepare")
	e.log.StartPhase(prepPath, -1)
	cpu.Compute(wp, 1, cfg.PrepareCost)
	e.log.EndPhase(prepPath)

	// Outgoing queue and its drain process (the "netty" thread).
	queue := sim.NewQueue(e.sched, cfg.QueueCapacity)
	fifo := &dstFIFO{}
	commDone := sim.NewBarrier(2)
	commPath := enginelog.Join(wPath, "communicate")
	e.sched.Spawn(fmt.Sprintf("comm-w%d", w), func(cp *sim.Proc) {
		e.log.StartPhase(commPath, w)
		for {
			before := cp.Now()
			amount, starved := queue.Get(cp, cfg.CommChunkBytes)
			if starved > 0 {
				// Idle waiting for producers: an elastic wait the replay
				// simulator strips (the drain is a consumer, not a cause).
				e.log.BlockedSince(commPath, ResStarved, before)
			}
			if amount == 0 {
				break // queue closed and drained
			}
			if cost := amount * cfg.SerializeCostPerByte; cost > 0 {
				cpu.Compute(cp, 1, cost) // serialization work
			}
			for _, db := range fifo.take(amount) {
				e.cl.Net.Transfer(cp, w, db.dst, db.bytes)
			}
		}
		e.log.EndPhase(commPath)
		commDone.Wait(cp)
	})

	// Compute with T threads over chunked active vertices.
	compPath := enginelog.Join(wPath, "compute")
	e.log.StartPhase(compPath, -1)
	threads := cfg.ThreadsPerWorker
	threadLatch := sim.NewBarrier(threads + 1)
	for t := 0; t < threads; t++ {
		t := t
		e.sched.Spawn(fmt.Sprintf("ss%d-w%d-t%d", s, w, t), func(tp *sim.Proc) {
			tPath := enginelog.JoinIndexed(compPath, "thread", t)
			e.log.StartPhase(tPath, -1)
			for _, ch := range thChunks[t] {
				e.maybeGC(tp, w, wPath)
				cpu.Compute(tp, 1, ch.work)
				e.allocate(w, ch.alloc)
				e.maybeGC(tp, w, wPath)
				if ch.remoteSum > 0 {
					before := tp.Now()
					fifo.push(ch.remote)
					// A single chunk can outsize the queue (one hub vertex
					// with thousands of edges); enqueue in queue-sized
					// pieces, as the real engine serializes message batches.
					var blocked vtime.Duration
					for remaining := ch.remoteSum; remaining > 0; {
						put := remaining
						if put > cfg.QueueCapacity {
							put = cfg.QueueCapacity
						}
						blocked += queue.Put(tp, put)
						remaining -= put
					}
					if blocked > 0 {
						e.log.BlockedSince(tPath, ResMsgQueue, before)
						e.stats.QueueStalls++
						e.stats.QueueStallTime += blocked
					}
					e.stats.MessagesSent += ch.messages
					e.stats.BytesSent += ch.remoteSum
				}
			}
			e.log.EndPhase(tPath)
			threadLatch.Wait(tp)
		})
	}
	threadLatch.Wait(wp)
	e.log.EndPhase(compPath)

	// Drain and close the queue, wait for communication to finish.
	queue.Close()
	commDone.Wait(wp)

	// Global superstep barrier.
	bPath := enginelog.Join(wPath, "barrier")
	e.log.StartPhase(bPath, -1)
	before := wp.Now()
	globalBarrier.Wait(wp)
	e.log.BlockedSince(bPath, ResBarrier, before) // zero-length waits are dropped
	e.log.EndPhase(bPath)

	e.log.EndPhase(wPath)
}

// buildChunk computes the cost model for a block of vertices: compute work,
// heap allocation, and per-destination remote message bytes. remoteScratch
// is a caller-owned zeroed array of Workers accumulators (re-zeroed before
// return); indexing it replaces the former per-chunk map without changing
// the floating-point accumulation order.
func (e *engine) buildChunk(remoteScratch []float64, vs []graph.Vertex,
	step vertexprog.Step, w int) chunk {
	cfg := &e.cfg
	ch := chunk{}
	remote := remoteScratch
	for _, v := range vs {
		edges := 0
		if step.OutMessages {
			edges += e.g.OutDegree(v)
		}
		if step.InMessages {
			edges += e.g.InDegree(v)
		}
		ch.work += cfg.CostPerVertex*step.WeightOf(v) +
			cfg.CostPerEdge*float64(edges) +
			cfg.CostPerMessage*float64(e.recv[v])
		ch.alloc += cfg.AllocPerVertex + cfg.AllocPerMessage*float64(edges)
		if step.OutMessages {
			for _, u := range e.g.OutNeighbors(v) {
				if d := e.part.Owner(u); d != w {
					remote[d] += cfg.BytesPerMessage
					ch.messages++
				}
			}
		}
		if step.InMessages {
			for _, u := range e.g.InNeighbors(v) {
				if d := e.part.Owner(u); d != w {
					remote[d] += cfg.BytesPerMessage
					ch.messages++
				}
			}
		}
	}
	for d := 0; d < e.cfg.Workers; d++ {
		if b := remote[d]; b > 0 {
			ch.remote = append(ch.remote, dstBytes{dst: d, bytes: b})
			ch.remoteSum += b
			remote[d] = 0
		}
	}
	return ch
}

// allocate adds heap pressure to worker w's JVM.
func (e *engine) allocate(w int, bytes float64) {
	e.jvms[w].heapUsed += bytes
}

// maybeGC triggers a stop-the-world collection when the heap threshold is
// crossed. The triggering thread pauses the machine's CPU, runs the collector
// at full core demand (so monitoring sees a busy machine while the workload
// is stalled), and logs the pause as a blocking event on the worker phase so
// it propagates to every child.
func (e *engine) maybeGC(tp *sim.Proc, w int, wPath string) {
	j := e.jvms[w]
	if j.inGC {
		j.gate.Wait(tp)
		return
	}
	if j.heapUsed < e.cfg.HeapCapacity {
		return
	}
	j.inGC = true
	j.gate.Close()
	cpu := e.cl.CPUs[w]
	cpu.Pause()
	before := tp.Now()
	pause := e.cfg.GCBaseSeconds + e.cfg.GCSecondsPerByte*j.heapUsed
	gcThreads := e.cfg.GCThreads
	if gcThreads <= 0 {
		gcThreads = 1
	}
	cpu.ComputeExempt(tp, gcThreads, gcThreads*pause)
	cpu.Resume()
	j.heapUsed *= e.cfg.HeapSurvivorFraction
	e.log.BlockedSince(wPath, ResGC, before)
	e.stats.GCCount++
	e.stats.GCTime += tp.Now().Sub(before)
	j.inGC = false
	j.gate.Open()
}

// dstFIFO tracks the destination breakdown of queued bytes. The simulation
// is single-threaded, so plain slices suffice.
type dstFIFO struct {
	records []dstBytes
}

func (f *dstFIFO) push(recs []dstBytes) {
	f.records = append(f.records, recs...)
}

// take removes up to `amount` bytes of records, splitting the last record if
// needed, and returns the removed portion aggregated by destination.
func (f *dstFIFO) take(amount float64) []dstBytes {
	agg := map[int]float64{}
	for amount > 0 && len(f.records) > 0 {
		r := &f.records[0]
		if r.bytes <= amount {
			agg[r.dst] += r.bytes
			amount -= r.bytes
			f.records = f.records[1:]
			continue
		}
		agg[r.dst] += amount
		r.bytes -= amount
		amount = 0
	}
	dsts := make([]int, 0, len(agg))
	for d := range agg {
		dsts = append(dsts, d)
	}
	sort.Ints(dsts)
	out := make([]dstBytes, 0, len(dsts))
	for _, d := range dsts {
		out = append(out, dstBytes{dst: d, bytes: agg[d]})
	}
	return out
}
