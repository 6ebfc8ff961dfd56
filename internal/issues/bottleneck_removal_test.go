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

// twoResourceProfile: one phase saturating "fast" while using "slow" at a
// given utilization — removing the "fast" bottleneck should shrink the phase
// to what "slow" allows.
func twoResourceProfile(t *testing.T, slowUtil float64) (*attribution.Profile, *core.Phase) {
	t.Helper()
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
	now = at(10)
	l.EndPhase("/job/work")
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), m)
	if err != nil {
		t.Fatal(err)
	}

	fast := &core.Resource{Name: "fast", Kind: core.Consumable, Capacity: 10}
	slow := &core.Resource{Name: "slow", Kind: core.Consumable, Capacity: 10}
	rt := core.NewResourceTrace()
	add := func(res *core.Resource, avg float64) {
		err := rt.Add(res, core.GlobalMachine, &metrics.SampleSeries{Samples: []metrics.Sample{
			{Start: at(0), End: at(10), Avg: avg},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	add(fast, 10) // saturated
	add(slow, slowUtil*10)

	rules := core.NewRuleSet()
	rules.Set("/job/work", "fast", core.Variable(1)).
		Set("/job/work", "slow", core.Variable(1))
	prof, err := attribution.Attribute(tr, rt, rules, core.NewTimeslices(at(0), at(10), sec))
	if err != nil {
		t.Fatal(err)
	}
	return prof, tr.ByPath["/job/work"]
}

func TestRemoveBottleneckNextLimit(t *testing.T) {
	// The slow resource sits at 40%: with fast removed, each slice could run
	// in 40% of its time → phase shrinks from 10s to 4s.
	prof, work := twoResourceProfile(t, 0.4)
	btl := bottleneck.Detect(prof)
	rep := Analyze(prof, btl, Config{})
	var fastIssue *Issue
	for i := range rep.Issues {
		if rep.Issues[i].Kind == BottleneckImpact && rep.Issues[i].Resource == "fast" {
			fastIssue = &rep.Issues[i]
		}
	}
	if fastIssue == nil {
		t.Fatalf("no fast issue: %+v", rep.Issues)
	}
	if fastIssue.Original != 10*sec {
		t.Fatalf("original %v", fastIssue.Original)
	}
	if math.Abs(fastIssue.Optimistic.Seconds()-4.0) > 1e-6 {
		t.Fatalf("optimistic %v, want 4s", fastIssue.Optimistic)
	}
	if math.Abs(fastIssue.Impact-0.6) > 1e-6 {
		t.Fatalf("impact %v, want 0.6", fastIssue.Impact)
	}
	_ = work
}

func TestRemoveBottleneckFloor(t *testing.T) {
	// With the slow resource idle, BottleneckFloor bounds the shrink to 5%.
	prof, _ := twoResourceProfile(t, 0)
	btl := bottleneck.Detect(prof)
	rep := Analyze(prof, btl, Config{})
	for _, is := range rep.Issues {
		if is.Kind == BottleneckImpact && is.Resource == "fast" {
			if math.Abs(is.Optimistic.Seconds()-0.5) > 1e-6 {
				t.Fatalf("optimistic %v, want 0.5s (floor)", is.Optimistic)
			}
			return
		}
	}
	t.Fatal("no fast issue")
}

func TestIssueDescribeVariants(t *testing.T) {
	b := Issue{Kind: BottleneckImpact, Resource: "cpu", Impact: 0.5,
		Original: 10 * sec, Optimistic: 5 * sec}
	if got := b.Describe(); got == "" || got == "unknown issue" {
		t.Fatalf("describe: %q", got)
	}
	im := Issue{Kind: ImbalanceImpact, PhaseType: "/a/b", Impact: 0.25,
		Original: 10 * sec, Optimistic: 7500 * vtime.Millisecond}
	if got := im.Describe(); got == "" || got == "unknown issue" {
		t.Fatalf("describe: %q", got)
	}
	if got := (Issue{Kind: IssueKind(9)}).Describe(); got != "unknown issue" {
		t.Fatalf("describe: %q", got)
	}
	if IssueKind(9).String() != "unknown" {
		t.Fatal("unknown kind string")
	}
}
