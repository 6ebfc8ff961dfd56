package bottleneck

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"grade10/internal/attribution"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/metrics"
	"grade10/internal/race"
	"grade10/internal/vtime"
)

// constSamples is one sample of avg over [0s, n s).
func constSamples(n int64, avg float64) *metrics.SampleSeries {
	return &metrics.SampleSeries{Samples: []metrics.Sample{{Start: at(0), End: at(n), Avg: avg}}}
}

// TestDetectOrder pins the detection order on a profile with blocking and
// consumable bottlenecks: blocking in tree-walk order (each phase's
// resources by name), then per instance in key order, phases in Usage
// order with saturation before exact-limit. /job/y starts 1ns before
// /job/x, so both the tree walk and the leaf order (start, then path) put y
// first where a path sort would put x first.
func TestDetectOrder(t *testing.T) {
	root := core.NewRootType("job")
	root.Child("y", false)
	root.Child("x", false)
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	l.StartPhase("/job", -1)
	l.StartPhase("/job/y", -1)
	now = 1
	l.StartPhase("/job/x", -1)
	now = at(2)
	l.BlockedSince("/job/y", "gc", at(1))
	l.BlockedSince("/job/y", "barrier", at(1))
	l.BlockedSince("/job/x", "queue", at(1))
	now = at(4)
	l.EndPhase("/job/y")
	l.EndPhase("/job/x")
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}

	// r1 is saturated in [0s, 2s) and at x's Exact demand after; r2 is
	// saturated throughout and only y uses it. r2 is added first: instances
	// come in key order, not in insertion order.
	r1 := &core.Resource{Name: "r1", Kind: core.Consumable, Capacity: 100}
	r2 := &core.Resource{Name: "r2", Kind: core.Consumable, Capacity: 10}
	rt := core.NewResourceTrace()
	if err := rt.Add(r2, core.GlobalMachine, constSamples(4, 10)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add(r1, core.GlobalMachine, &metrics.SampleSeries{Samples: []metrics.Sample{
		{Start: at(0), End: at(2), Avg: 100}, {Start: at(2), End: at(4), Avg: 50},
	}}); err != nil {
		t.Fatal(err)
	}
	rules := core.NewRuleSet()
	rules.Set("/job/x", "r1", core.Exact(50)).
		Set("/job/x", "r2", core.None()).
		Set("/job/y", "r1", core.Variable(1)).
		Set("/job/y", "r2", core.Variable(1))
	prof, err := attribution.Attribute(tr, rt, rules, core.NewTimeslices(at(0), at(4), sec))
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, b := range Detect(prof).Bottlenecks {
		got = append(got, fmt.Sprintf("%s %s %s %v", b.Phase.Path, b.Resource, b.Kind, b.Slices))
	}
	want := []string{
		"/job/y barrier blocking []",
		"/job/y gc blocking []",
		"/job/x queue blocking []",
		"/job/y r1 saturation [0]",
		"/job/x r1 saturation [0]",
		"/job/x r1 exact-limit [2 3]",
		"/job/y r2 saturation [0 2 3]",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("detection order:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}

// wideProfile attributes n concurrent leaves, spread over machines, across
// a span of slices one-second slices. The per-machine resource is
// saturated throughout, so every leaf is bottlenecked on its machine's
// instance in every slice.
func wideProfile(t *testing.T, n, machines int, slices int64) *attribution.Profile {
	t.Helper()
	root := core.NewRootType("job")
	root.Child("worker", true)
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	l.StartPhase("/job", -1)
	for i := 0; i < n; i++ {
		l.StartPhase(fmt.Sprintf("/job/worker.%d", i), i%machines)
	}
	now = at(slices)
	for i := 0; i < n; i++ {
		l.EndPhase(fmt.Sprintf("/job/worker.%d", i))
	}
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}
	cpu := &core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: 4, PerMachine: true}
	rt := core.NewResourceTrace()
	for m := 0; m < machines; m++ {
		if err := rt.Add(cpu, m, constSamples(slices, 4)); err != nil {
			t.Fatal(err)
		}
	}
	rules := core.NewRuleSet()
	rules.Set("/job/worker", "cpu", core.Variable(1))
	prof, err := attribution.Attribute(tr, rt, rules, core.NewTimeslices(at(0), at(slices), sec))
	if err != nil {
		t.Fatal(err)
	}
	return prof
}

// TestDetectAllocsIndependentOfBottlenecks guards the table layout: Detect
// allocates per instance and per row, never per bottleneck or per evidence
// slice. The profile holds hundreds of bottlenecks with thousands of
// slices, far more than the bound.
func TestDetectAllocsIndependentOfBottlenecks(t *testing.T) {
	if race.Enabled {
		t.Skip("race mode adds allocations; alloc counts are nondeterministic")
	}
	prof := wideProfile(t, 400, 4, 50)
	rep := Detect(prof)
	nslices := 0
	for _, b := range rep.Bottlenecks {
		nslices += len(b.Slices)
	}
	bound := 4*(len(prof.Instances)+len(rep.Rows)) + 16
	if len(rep.Bottlenecks) < 4*bound || nslices < 40*bound {
		t.Fatalf("fixture too small: %d bottlenecks, %d slices against a bound of %d allocs",
			len(rep.Bottlenecks), nslices, bound)
	}
	allocs := testing.AllocsPerRun(20, func() { Detect(prof) })
	if allocs > float64(bound) {
		t.Fatalf("Detect allocated %v per run on %d instances and %d rows (bound %d); %d bottlenecks, %d slices",
			allocs, len(prof.Instances), len(rep.Rows), bound, len(rep.Bottlenecks), nslices)
	}
	t.Logf("%v allocs per Detect: %d instances, %d rows, %d bottlenecks, %d slices",
		allocs, len(prof.Instances), len(rep.Rows), len(rep.Bottlenecks), nslices)
}
