package dataflowsim

import (
	"math"
	"testing"

	"grade10/internal/cluster"
	"grade10/internal/enginelog"
	"grade10/internal/grade10"
	"grade10/internal/issues"
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

func threeStageJob(skew float64) Job {
	return Job{
		Name:      "etl",
		InputRows: 200_000,
		Stages: []StageSpec{
			{Tasks: 32, CostPerRow: 2e-6, Selectivity: 1.0, ShuffleSkew: skew},
			{Tasks: 32, CostPerRow: 4e-6, Selectivity: 0.5, ShuffleSkew: 0},
			{Tasks: 16, CostPerRow: 1e-6, Selectivity: 0.1},
		},
	}
}

func TestRowConservation(t *testing.T) {
	res, err := Run(threeStageJob(0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsIn != 200_000 {
		t.Fatalf("rows in %v", res.RowsIn)
	}
	// Out = in × 1.0 × 0.5 × 0.1.
	want := 200_000 * 0.5 * 0.1
	if math.Abs(res.RowsOut-want) > 1e-6*want {
		t.Fatalf("rows out %v, want %v", res.RowsOut, want)
	}
	// Stage inputs respect selectivity.
	sum := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s
	}
	if math.Abs(sum(res.StageRows[1])-200_000) > 1 {
		t.Fatalf("stage 1 input %v", sum(res.StageRows[1]))
	}
	if math.Abs(sum(res.StageRows[2])-100_000) > 1 {
		t.Fatalf("stage 2 input %v", sum(res.StageRows[2]))
	}
}

func TestLogWellFormedAndModeled(t *testing.T) {
	res, err := Run(threeStageJob(0.5), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	models, err := Model(grade10.ModelParams{
		Job: "etl", Cores: 4, NetBandwidth: 200e6, ThreadsPerWorker: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range res.Log.Events {
		if ev.Kind == enginelog.PhaseStart {
			if models.Exec.LookupInstance(ev.Path) == nil {
				t.Fatalf("phase %q not covered by the model", ev.Path)
			}
		}
	}
}

func TestSkewCreatesStragglersDetectedByGrade10(t *testing.T) {
	cfg := DefaultConfig()
	uniform, err := Run(threeStageJob(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := Run(threeStageJob(1.2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if skewed.End <= uniform.End {
		t.Fatalf("skewed run %v not slower than uniform %v", skewed.End, uniform.End)
	}

	characterize := func(res *Result) *grade10.Output {
		t.Helper()
		models, err := Model(grade10.ModelParams{
			Job: "etl", Cores: cfg.Machine.Cores,
			NetBandwidth: cfg.Machine.NetBandwidth, ThreadsPerWorker: cfg.SlotsPerMachine,
		})
		if err != nil {
			t.Fatal(err)
		}
		monitoring, err := cluster.Monitor(res.Cluster, res.Start, res.End, 50*vtime.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		out, err := grade10.Characterize(grade10.Input{
			Log: res.Log, Monitoring: monitoring, Models: models,
			Timeslice: 10 * vtime.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	outU := characterize(uniform)
	outS := characterize(skewed)
	taskImbalance := func(out *grade10.Output) float64 {
		for _, is := range out.Issues.Issues {
			if is.Kind == issues.ImbalanceImpact && is.PhaseType == "/etl/stage/task" {
				return is.Impact
			}
		}
		return 0
	}
	iu, is := taskImbalance(outU), taskImbalance(outS)
	if is <= iu {
		t.Fatalf("skewed imbalance %.3f not above uniform %.3f", is, iu)
	}
	if is < 0.05 {
		t.Fatalf("skewed imbalance %.3f too small to be credible", is)
	}
}

func TestWaveSchedulingBoundsConcurrency(t *testing.T) {
	// 32 tasks over 16 slots: at most 16 concurrent task phases, so CPU
	// utilization can hit but never exceed capacity, and the stage runs in
	// (at least) two waves.
	cfg := DefaultConfig()
	res, err := Run(threeStageJob(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := 0; m < cfg.Machines; m++ {
		truth, err := res.Cluster.GroundTruth(m, cluster.ResCPU)
		if err != nil {
			t.Fatal(err)
		}
		if got := peak(truth); got > cfg.Machine.Cores+1e-9 {
			t.Fatalf("machine %d exceeded capacity: %v", m, got)
		}
	}
}

func TestValidation(t *testing.T) {
	good := threeStageJob(0)
	for name, fn := range map[string]func() (Job, Config){
		"no name":    func() (Job, Config) { j := good; j.Name = ""; return j, DefaultConfig() },
		"no stages":  func() (Job, Config) { j := good; j.Stages = nil; return j, DefaultConfig() },
		"no rows":    func() (Job, Config) { j := good; j.InputRows = 0; return j, DefaultConfig() },
		"bad stage":  func() (Job, Config) { j := good; j.Stages[0].Tasks = 0; return j, DefaultConfig() },
		"no slots":   func() (Job, Config) { c := DefaultConfig(); c.SlotsPerMachine = 0; return good, c },
		"no machine": func() (Job, Config) { c := DefaultConfig(); c.Machines = 0; return good, c },
	} {
		j, c := fn()
		if _, err := Run(j, c); err == nil {
			t.Errorf("%s: accepted", name)
		}
		good = threeStageJob(0) // reset any mutation
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(threeStageJob(0.8), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(threeStageJob(0.8), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.End != b.End || len(a.Log.Events) != len(b.Log.Events) {
		t.Fatal("nondeterministic run")
	}
}

// peak returns the largest value the step series takes.
func peak(s *metrics.Series) float64 {
	m := 0.0
	for _, p := range s.Points {
		m = max(m, p.V)
	}
	return m
}
