package issues

import (
	"math"
	"testing"

	"grade10/internal/attribution"
	"grade10/internal/bottleneck"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

// underutilProfile builds a one-phase, one-resource profile with an explicit
// per-second utilization pattern.
func underutilProfile(t *testing.T, capacity float64, utils []float64) *attribution.Profile {
	t.Helper()
	root := core.NewRootType("job")
	root.Child("work", false)
	m, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	end := at(int64(len(utils)))
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	now = at(0)
	l.StartPhase("/job", -1)
	l.StartPhase("/job/work", -1)
	now = end
	l.EndPhase("/job/work")
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), m)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: capacity}
	rt := core.NewResourceTrace()
	ss := &metrics.SampleSeries{}
	for i, u := range utils {
		ss.Samples = append(ss.Samples, metrics.Sample{
			Start: at(int64(i)), End: at(int64(i + 1)), Avg: u,
		})
	}
	if err := rt.Add(res, core.GlobalMachine, ss); err != nil {
		t.Fatal(err)
	}
	prof, err := attribution.Attribute(tr, rt, core.NewRuleSet(),
		core.NewTimeslices(at(0), end, sec))
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

func TestDetectUnderutilization(t *testing.T) {
	// Capacity 10; utilization 9,9,2,1,9 → slices 2 and 3 are below the 0.5
	// threshold while the phase is active.
	prof := underutilProfile(t, 10, []float64{9, 9, 2, 1, 9})
	u := DetectUnderutilization(prof)
	if len(u.Slices) != 2 || u.Slices[0] != 2 || u.Slices[1] != 3 {
		t.Fatalf("slices = %v", u.Slices)
	}
	if u.Time != 2*sec {
		t.Fatalf("time = %v", u.Time)
	}
	if math.Abs(u.Fraction-0.4) > 1e-9 {
		t.Fatalf("fraction = %v", u.Fraction)
	}
}

func TestUnderutilizationSaturatedRunClean(t *testing.T) {
	prof := underutilProfile(t, 10, []float64{9, 10, 8, 9})
	u := DetectUnderutilization(prof)
	if len(u.Slices) != 0 || u.Fraction != 0 {
		t.Fatalf("spurious underutilization: %+v", u)
	}
}

func TestUnderutilizationThresholdDefault(t *testing.T) {
	prof := underutilProfile(t, 10, []float64{4, 4})
	u := DetectUnderutilization(prof)
	if u.Threshold != UnderutilizationThreshold {
		t.Fatalf("threshold %v", u.Threshold)
	}
	if len(u.Slices) != 2 {
		t.Fatalf("slices %v", u.Slices)
	}
}

func TestUnderutilizationIgnoresIdleSlices(t *testing.T) {
	// Phase spans only the first 2 of 4 slices: trailing idle slices are not
	// counted even though utilization is zero there.
	root := core.NewRootType("job")
	root.Child("work", false)
	m, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	now = at(0)
	l.StartPhase("/job", -1)
	l.StartPhase("/job/work", -1)
	now = at(2)
	l.EndPhase("/job/work")
	now = at(4)
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), m)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: 10}
	rt := core.NewResourceTrace()
	if err := rt.Add(res, core.GlobalMachine, &metrics.SampleSeries{Samples: []metrics.Sample{
		{Start: at(0), End: at(4), Avg: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	prof, err := attribution.Attribute(tr, rt, core.NewRuleSet(),
		core.NewTimeslices(at(0), at(4), sec))
	if err != nil {
		t.Fatal(err)
	}
	u := DetectUnderutilization(prof)
	// The root phase "/job" is not a leaf... but "work" is the only leaf and
	// covers slices 0-1; slices 2-3 have no active leaves.
	if len(u.Slices) != 2 || u.Slices[0] != 0 || u.Slices[1] != 1 {
		t.Fatalf("slices = %v", u.Slices)
	}
}

func TestAnalyzeIncludesUnderutilization(t *testing.T) {
	prof := underutilProfile(t, 10, []float64{1, 1, 1})
	rep := Analyze(prof, emptyBottlenecks(prof), Config{})
	if rep.Underutilization.Fraction < 0.99 {
		t.Fatalf("fraction %v", rep.Underutilization.Fraction)
	}
}

func emptyBottlenecks(prof *attribution.Profile) *bottleneck.Report {
	return bottleneck.Detect(prof)
}
