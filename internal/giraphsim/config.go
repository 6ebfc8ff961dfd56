// Package giraphsim simulates a Giraph-like distributed BSP (Pregel) graph
// processing engine on the discrete-event cluster substrate. It executes real
// vertex programs (internal/vertexprog) on real partitioned graphs, so
// per-superstep work, message volume, and imbalance are data-driven. The
// engine reproduces the behaviors the paper attributes to Giraph:
//
//   - per-worker compute threads, each pinned to one core of work at a time;
//   - bounded outgoing message queues drained by a communication thread —
//     when production outpaces the network, producers stall (logged as
//     "msgqueue" blocking events);
//   - a JVM heap filling with message allocations; crossing the threshold
//     triggers a stop-the-world GC that pauses the machine while the
//     collector burns all cores (logged as "gc" blocking events);
//   - a global superstep barrier (waits logged as "barrier" blocking).
//
// The engine emits an enginelog execution log and leaves ground-truth
// utilization in the cluster, which the monitoring layer samples coarsely —
// exactly the inputs Grade10 consumes.
package giraphsim

import (
	"errors"

	"grade10/internal/cluster"
	"grade10/internal/obs"
	"grade10/internal/vtime"
)

// Blocking resource names used in the engine's logs.
const (
	// ResGC marks stop-the-world garbage collection pauses.
	ResGC = "gc"
	// ResMsgQueue marks producer stalls on the bounded outgoing queue.
	ResMsgQueue = "msgqueue"
	// ResBarrier marks waits at the global superstep barrier.
	ResBarrier = "barrier"
	// ResStarved marks the communication drain idling for producer input.
	ResStarved = "starved"
)

// Config is the engine's cost and capacity model. All costs are in
// core-seconds, sizes in bytes, rates in bytes/second.
type Config struct {
	// Workers is the number of worker processes, one per machine.
	Workers int
	// ThreadsPerWorker is the compute thread count per worker.
	ThreadsPerWorker int
	// Machine describes each worker's host.
	Machine cluster.MachineSpec
	// ChunkVertices is the number of vertices a thread computes between
	// queue interactions (the granularity of message production and GC
	// checks).
	ChunkVertices int

	// CostPerVertex is charged for each computed vertex.
	CostPerVertex float64
	// CostPerEdge is charged for each edge scanned while sending messages.
	CostPerEdge float64
	// CostPerMessage is charged for each received message processed.
	CostPerMessage float64
	// PrepareCost is the per-worker fixed cost to set up a superstep.
	PrepareCost float64
	// LoadCostPerEdge is charged (across all threads) to load the partition.
	LoadCostPerEdge float64
	// WriteCostPerVertex is charged to write results.
	WriteCostPerVertex float64
	// DiskBytesPerEdge / DiskBytesPerVertex are the storage volumes read by
	// the load phase and written by the write phase (0 with no disk).
	DiskBytesPerEdge   float64
	DiskBytesPerVertex float64

	// BytesPerMessage is the wire size of one message.
	BytesPerMessage float64
	// QueueCapacity bounds the per-worker outgoing message queue.
	QueueCapacity float64
	// CommChunkBytes is the drain granularity of the communication thread.
	CommChunkBytes float64

	// HeapCapacity is the allocation volume that triggers a GC.
	HeapCapacity float64
	// AllocPerMessage / AllocPerVertex model heap pressure per unit of work.
	AllocPerMessage float64
	AllocPerVertex  float64
	// GCBaseSeconds + GCSecondsPerByte·liveHeap is the stop-the-world pause.
	GCBaseSeconds    float64
	GCSecondsPerByte float64
	// GCThreads is the collector's own core demand during the pause (a
	// serial old-generation collector uses one core while the mutators are
	// stopped).
	GCThreads float64
	// HeapSurvivorFraction is the heap fraction remaining after a GC.
	HeapSurvivorFraction float64

	// SerializeCostPerByte is the CPU the communication thread burns per
	// drained byte (message serialization).
	SerializeCostPerByte float64
	// OSNoiseCores enables per-machine unmodeled background CPU load up to
	// this many cores (0 disables); NoiseSeed makes it deterministic.
	OSNoiseCores float64
	NoiseSeed    int64

	// Tracer, when set, records self-trace spans for each superstep and its
	// host-side cost-model precomputation, annotated with the superstep's
	// virtual-time window. Nil disables tracing at zero cost.
	Tracer *obs.Tracer

	// Parallelism is the host-side worker count for precomputing the
	// engine's cost model (per-thread chunk building and receive counts).
	// The simulation itself stays on the deterministic discrete-event
	// scheduler, so logs and results are byte-identical for every value.
	// 0 takes par.Default(); 1 disables host parallelism.
	Parallelism int
}

// DefaultConfig returns a configuration calibrated so that message-heavy
// workloads (PageRank, CDLP) stress the communication subsystem and the GC,
// matching the paper's observations about Giraph.
func DefaultConfig() Config {
	return Config{
		Workers:          4,
		ThreadsPerWorker: 8,
		Machine:          cluster.MachineSpec{Cores: 8, NetBandwidth: 100e6, DiskBandwidth: 150e6},
		ChunkVertices:    128,

		CostPerVertex:  4e-7,
		CostPerEdge:    1.2e-7,
		CostPerMessage: 1.5e-7,
		PrepareCost:    0.002,

		LoadCostPerEdge:    4e-7,
		WriteCostPerVertex: 4e-7,
		DiskBytesPerEdge:   16,
		DiskBytesPerVertex: 8,

		BytesPerMessage: 64,
		QueueCapacity:   2 << 20, // 2 MiB
		CommChunkBytes:  128 << 10,

		HeapCapacity:         48 << 20,
		AllocPerMessage:      96,
		AllocPerVertex:       24,
		GCBaseSeconds:        0.015,
		GCSecondsPerByte:     4e-10,
		GCThreads:            1,
		HeapSurvivorFraction: 0.25,

		SerializeCostPerByte: 2e-9,
		OSNoiseCores:         0.4,
		NoiseSeed:            11,
	}
}

// validate rejects nonsensical configurations.
func (c Config) validate() error {
	switch {
	case c.Workers <= 0:
		return errors.New("giraphsim: Workers must be positive")
	case c.ThreadsPerWorker <= 0:
		return errors.New("giraphsim: ThreadsPerWorker must be positive")
	case c.Machine.Cores <= 0 || c.Machine.NetBandwidth <= 0:
		return errors.New("giraphsim: machine spec needs positive cores and bandwidth")
	case c.ChunkVertices <= 0:
		return errors.New("giraphsim: ChunkVertices must be positive")
	case c.QueueCapacity <= 0 || c.CommChunkBytes <= 0:
		return errors.New("giraphsim: queue sizes must be positive")
	case c.CommChunkBytes > c.QueueCapacity:
		return errors.New("giraphsim: CommChunkBytes exceeds QueueCapacity")
	case c.HeapCapacity <= 0:
		return errors.New("giraphsim: HeapCapacity must be positive")
	case c.HeapSurvivorFraction < 0 || c.HeapSurvivorFraction >= 1:
		return errors.New("giraphsim: HeapSurvivorFraction must be in [0,1)")
	}
	return nil
}

// Stats aggregates engine-level observations of one run.
type Stats struct {
	// Supersteps executed.
	Supersteps int
	// GCCount is the number of stop-the-world pauses.
	GCCount int
	// GCTime is the total pause time across workers.
	GCTime vtime.Duration
	// QueueStalls counts producer blockings on full queues.
	QueueStalls int
	// QueueStallTime is the total producer stall time.
	QueueStallTime vtime.Duration
	// MessagesSent counts remote messages.
	MessagesSent int64
	// BytesSent counts remote message bytes.
	BytesSent float64
}
