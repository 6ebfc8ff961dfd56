package issues_test

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"grade10/internal/core"
	"grade10/internal/dataflowsim"
	"grade10/internal/enginelog"
	"grade10/internal/giraphsim"
	"grade10/internal/grade10"
	"grade10/internal/graph"
	"grade10/internal/issues"
	"grade10/internal/pgsim"
	"grade10/internal/race"
	"grade10/internal/vertexprog"
	"grade10/internal/vtime"
)

// engineTraces builds small execution traces of the three engine families:
// Giraph (BSP supersteps with barriers and GC stalls), PowerGraph (GAS
// iterations with exchange and sync groups) and the dataflow engine
// (sequential stages of concurrent tasks).
func engineTraces(t testing.TB) map[string]*core.ExecutionTrace {
	t.Helper()
	out := map[string]*core.ExecutionTrace{"giraph": giraphTrace(t)}

	pcfg := pgsim.DefaultConfig()
	pcfg.Workers = 2
	pcfg.ThreadsPerWorker = 3
	cg := graph.Community(graph.CommunityParams{
		Vertices: 600, Communities: 6, IntraDegree: 5, InterFraction: 0.03, Seed: 4,
	})
	pres, err := pgsim.Run(vertexprog.NewCDLP(cg, 3), pcfg)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := grade10.PowerGraphModel(grade10.ModelParams{
		Job: "cdlp", Cores: pcfg.Machine.Cores,
		NetBandwidth: pcfg.Machine.NetBandwidth, ThreadsPerWorker: pcfg.ThreadsPerWorker,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["powergraph"] = buildTrace(t, pres.Log, pm)

	dcfg := dataflowsim.DefaultConfig()
	dres, err := dataflowsim.Run(dataflowsim.Job{
		Name: "etl", InputRows: 50_000,
		Stages: []dataflowsim.StageSpec{
			{Tasks: 8, CostPerRow: 2e-6, Selectivity: 1.0, ShuffleSkew: 0.8},
			{Tasks: 8, CostPerRow: 4e-6, Selectivity: 0.5},
			{Tasks: 4, CostPerRow: 1e-6, Selectivity: 0.1},
		},
	}, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := dataflowsim.Model(grade10.ModelParams{
		Job: "etl", Cores: dcfg.Machine.Cores,
		NetBandwidth: dcfg.Machine.NetBandwidth, ThreadsPerWorker: dcfg.SlotsPerMachine,
	})
	if err != nil {
		t.Fatal(err)
	}
	out["dataflow"] = buildTrace(t, dres.Log, dm)
	return out
}

// giraphTrace runs a small PageRank on the BSP engine.
func giraphTrace(t testing.TB) *core.ExecutionTrace {
	t.Helper()
	gcfg := giraphsim.DefaultConfig()
	gcfg.Workers = 2
	gcfg.ThreadsPerWorker = 3
	gcfg.HeapCapacity = 1 << 20 // force GC stalls
	g := graph.RMAT(9, 8, 42)
	gres, err := giraphsim.Run(vertexprog.NewPageRank(g, 0.85, 4), graph.HashPartition(g, gcfg.Workers), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	gm, err := grade10.GiraphModel(grade10.ModelParams{
		Job: "pagerank", Cores: gcfg.Machine.Cores,
		NetBandwidth: gcfg.Machine.NetBandwidth, ThreadsPerWorker: gcfg.ThreadsPerWorker,
	})
	if err != nil {
		t.Fatal(err)
	}
	return buildTrace(t, gres.Log, gm)
}

func buildTrace(t testing.TB, log *enginelog.Log, models grade10.Models) *core.ExecutionTrace {
	t.Helper()
	tr, err := core.BuildExecutionTrace(log, models.Exec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestScheduleMatchesOracle is the property behind the compiled replay: on
// every engine family's trace, with seeded random per-leaf durations, the
// schedule's makespan and critical path equal the recursive oracle's
// exactly. Half the seeds draw durations from a few multiples of the
// recorded one, so that ties — which the critical path breaks by path and
// child order — are common.
func TestScheduleMatchesOracle(t *testing.T) {
	for name, tr := range engineTraces(t) {
		leaves := tr.Leaves()
		for seed := int64(0); seed < 20; seed++ {
			var durs map[*core.Phase]vtime.Duration
			if seed > 0 { // seed 0 replays the recorded durations
				rng := rand.New(rand.NewSource(seed))
				durs = map[*core.Phase]vtime.Duration{}
				for _, leaf := range leaves {
					if rng.Intn(3) == 0 {
						continue
					}
					d := leaf.Duration()
					if seed%2 == 0 {
						durs[leaf] = d * vtime.Duration(rng.Intn(3)) / 2
					} else {
						durs[leaf] = vtime.Duration(rng.Int63n(int64(2*d)+1)) - d/10 // may clamp at 0
					}
				}
			}
			if err := issues.ScheduleMatchesOracle(tr, durs); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

// TestReplayScheduleZeroAlloc guards the replay hot path: once a schedule's
// scratch pool is warm, a what-if replay allocates nothing.
func TestReplayScheduleZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race mode randomly bypasses sync.Pool; alloc counts are nondeterministic")
	}
	s := issues.Compile(giraphTrace(t))
	durs := issues.Durations{{Leaf: 0, Dur: vtime.Millisecond}, {Leaf: 3, Dur: 0}}
	s.Replay(durs) // warm the scratch pool
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(100, func() { s.Replay(durs) }); allocs != 0 {
		t.Fatalf("warm replay allocated %v per run, want 0", allocs)
	}
}
