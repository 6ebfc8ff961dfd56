package infer

import (
	"math"
	"testing"

	"grade10/internal/cluster"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/giraphsim"
	"grade10/internal/graph"
	"grade10/internal/metrics"
	"grade10/internal/vertexprog"
	"grade10/internal/vtime"
)

const sec = vtime.Second

func at(s int64) vtime.Time { return vtime.Time(s) * vtime.Time(sec) }

// Synthetic ground truth: two phase types with known per-instance demands
// (3 and 1 units); the fit must recover them.
func TestInferRecoversKnownCoefficients(t *testing.T) {
	root := core.NewRootType("job")
	root.Child("heavy", true)
	root.Child("light", true)
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}

	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	emit := func(t0, t1 vtime.Time, path string) {
		now = t0
		l.StartPhase(path, -1)
		now = t1
		l.EndPhase(path)
	}
	now = at(0)
	l.StartPhase("/job", -1)
	// heavy alone [0,2), light alone [2,4), both [4,6).
	emit(at(0), at(2), "/job/heavy.0")
	emit(at(2), at(4), "/job/light.0")
	emit(at(4), at(6), "/job/heavy.1")
	emit(at(4), at(6), "/job/light.1")
	now = at(6)
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}

	// Consumption: 3 per heavy, 1 per light.
	truth := metrics.FromSteps(
		metrics.Point{T: at(0), V: 3},
		metrics.Point{T: at(2), V: 1},
		metrics.Point{T: at(4), V: 4},
		metrics.Point{T: at(6), V: 0},
	)
	samples := metrics.SampleSeriesOf(truth, at(0), at(6), 500*vtime.Millisecond)

	res, err := InferRules(tr, "cpu", map[int]*metrics.SampleSeries{
		core.GlobalMachine: samples,
	}, Options{Timeslice: 500 * vtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if h := amount(res, "/job/heavy"); math.Abs(h-3) > 0.05 {
		t.Fatalf("heavy coefficient %v, want 3", h)
	}
	if lgt := amount(res, "/job/light"); math.Abs(lgt-1) > 0.05 {
		t.Fatalf("light coefficient %v, want 1", lgt)
	}

	rules := res.RuleSet()
	if r := rules.Get("/job/heavy", "cpu"); r.Kind != core.RuleExact {
		t.Fatalf("heavy rule %+v", r)
	}
}

// giraphFixture runs PageRank on the BSP engine with the given worker count
// and returns its trace with per-machine CPU ground truth as monitoring.
func giraphFixture(t *testing.T, workers int) (*core.ExecutionTrace, map[int]*metrics.SampleSeries) {
	t.Helper()
	cfg := giraphsim.DefaultConfig()
	cfg.Workers = workers
	cfg.ThreadsPerWorker = 4
	cfg.OSNoiseCores = 0 // fit against clean ground truth
	g := graph.RMAT(11, 8, 42)
	part := graph.HashPartition(g, cfg.Workers)
	run, err := giraphsim.Run(vertexprog.NewPageRank(g, 0.85, 5), part, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Build the model only to parse the log (the rules are what we infer).
	models, err := giraphModels(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.BuildExecutionTrace(run.Log, models)
	if err != nil {
		t.Fatal(err)
	}

	monitoring := map[int]*metrics.SampleSeries{}
	for m := 0; m < cfg.Workers; m++ {
		truth, err := run.Cluster.GroundTruth(m, cluster.ResCPU)
		if err != nil {
			t.Fatal(err)
		}
		monitoring[m] = metrics.SampleSeriesOf(truth, run.Start, run.End, 10*vtime.Millisecond)
	}
	return tr, monitoring
}

// The §V headline: inferring the Giraph compute-thread rule from a real run
// recovers "one active thread uses about one core" without any expert input.
func TestInferGiraphThreadRule(t *testing.T) {
	tr, monitoring := giraphFixture(t, 2)
	res, err := InferRules(tr, cluster.ResCPU, monitoring,
		Options{Timeslice: 10 * vtime.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	thread := amount(res, "/pagerank/execute/superstep/worker/compute/thread")
	if thread < 0.6 || thread > 1.4 {
		t.Fatalf("inferred thread demand %v cores, expected ≈1", thread)
	}
	// The barrier consumes nothing; its coefficient must be far below the
	// thread's.
	barrier := amount(res, "/pagerank/execute/superstep/worker/barrier")
	if barrier > 0.3*thread {
		t.Fatalf("barrier coefficient %v not negligible vs thread %v", barrier, thread)
	}
}

// TestInferRulesDeterministic: the fit sums every machine's equations, so
// repeated calls on the same multi-machine input must return bit-identical
// coefficients, whatever order the monitoring map iterates in.
func TestInferRulesDeterministic(t *testing.T) {
	tr, monitoring := giraphFixture(t, 4)
	opts := Options{Timeslice: 10 * vtime.Millisecond}
	first, err := InferRules(tr, cluster.ResCPU, monitoring, opts)
	if err != nil {
		t.Fatal(err)
	}
	for call := 1; call < 30; call++ {
		res, err := InferRules(tr, cluster.ResCPU, monitoring, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Coefficients) != len(first.Coefficients) {
			t.Fatalf("call %d: %d coefficients, first call %d", call, len(res.Coefficients), len(first.Coefficients))
		}
		for i, c := range res.Coefficients {
			want := first.Coefficients[i]
			if c.TypePath != want.TypePath || math.Float64bits(c.Amount) != math.Float64bits(want.Amount) {
				t.Fatalf("call %d: coefficient %d = %s %v, first call %s %v",
					call, i, c.TypePath, c.Amount, want.TypePath, want.Amount)
			}
		}
	}
}

func giraphModels(cfg giraphsim.Config) (*core.ExecutionModel, error) {
	root := core.NewRootType("pagerank")
	root.Child("load", false).Child("worker", true)
	exec := root.Child("execute", false, "load")
	ss := exec.Child("superstep", true)
	ss.Sequential = true
	worker := ss.Child("worker", true)
	worker.Child("prepare", false)
	worker.Child("compute", false, "prepare").Child("thread", true)
	worker.Child("communicate", false, "prepare")
	worker.Child("barrier", false, "compute", "communicate")
	root.Child("write", false, "execute").Child("worker", true)
	return core.NewExecutionModel(root)
}

func TestInferValidation(t *testing.T) {
	root := core.NewRootType("job")
	root.Child("a", false)
	model, _ := core.NewExecutionModel(root)
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	l.StartPhase("/job", -1)
	l.StartPhase("/job/a", -1)
	now = at(1)
	l.EndPhase("/job/a")
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InferRules(tr, "cpu", nil, Options{}); err == nil {
		t.Fatal("no monitoring accepted")
	}
}

// amount returns the fitted coefficient of one phase type, or 0.
func amount(res *Result, typePath string) float64 {
	for _, c := range res.Coefficients {
		if c.TypePath == typePath {
			return c.Amount
		}
	}
	return 0
}
