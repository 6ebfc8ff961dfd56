package reference_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"grade10/internal/attribution"
	"grade10/internal/attribution/reference"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/explain"
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

// The tests in this file are the equivalence contract of the columnar
// attribution core: on any input — misaligned monitoring windows, short
// final slices, per-machine resources, capacity saturation, model
// mismatch — attribution must reproduce the row-based reference oracle bit
// for bit, and every explain derivation chain, which the oracle recomputes
// per query, must sum to exactly the columnar profile's cells.

const sec = vtime.Second

func at(s int64) vtime.Time { return vtime.Time(s) * vtime.Time(sec) }

func ms(millis int64) vtime.Time { return vtime.Time(millis) * vtime.Time(vtime.Millisecond) }

// fixture is one generated attribution input.
type fixture struct {
	tr     *core.ExecutionTrace
	leaves []*core.Phase
	rt     *core.ResourceTrace
	rules  *core.RuleSet
	slices core.Timeslices
}

// buildFixture generates a randomized multi-resource, multi-machine input
// with misaligned monitoring windows and an odd slice width.
func buildFixture(t *testing.T, seed int64) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	spanMs := int64(4000 + rng.Intn(8)*1500)
	span0, span1 := at(0), ms(spanMs)

	root := core.NewRootType("job")
	globals := []string{"a", "b", "c", "d"}
	for _, name := range globals {
		root.Child(name, false)
	}
	root.Child("w", true)
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}

	type phaseSpec struct {
		path    string
		machine int
		s, e    vtime.Time
	}
	var specs []phaseSpec
	for _, name := range globals[:1+rng.Intn(len(globals))] {
		s := rng.Int63n(spanMs - 500)
		e := s + 200 + rng.Int63n(spanMs-s-200)
		specs = append(specs, phaseSpec{"/job/" + name, -1, ms(s), ms(e)})
	}
	for m := 0; m < 2; m++ {
		s := rng.Int63n(spanMs - 500)
		e := s + 200 + rng.Int63n(spanMs-s-200)
		specs = append(specs, phaseSpec{fmt.Sprintf("/job/w.%d", m), m, ms(s), ms(e)})
	}

	// Emit starts and ends in time order (ends before starts on ties).
	type ev struct {
		t     vtime.Time
		start bool
		i     int
	}
	var evs []ev
	for i, sp := range specs {
		evs = append(evs, ev{sp.s, true, i}, ev{sp.e, false, i})
	}
	sort.SliceStable(evs, func(x, y int) bool {
		if evs[x].t != evs[y].t {
			return evs[x].t < evs[y].t
		}
		return !evs[x].start && evs[y].start
	})
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	now = span0
	l.StartPhase("/job", -1)
	for _, e := range evs {
		now = e.t
		if e.start {
			l.StartPhase(specs[e.i].path, specs[e.i].machine)
		} else {
			l.EndPhase(specs[e.i].path)
		}
	}
	now = span1
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}

	res := &core.Resource{Name: "res", Kind: core.Consumable, Capacity: 100}
	cpu := &core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: 8, PerMachine: true}
	net := &core.Resource{Name: "net", Kind: core.Consumable, Capacity: 50}
	rt := core.NewResourceTrace()
	// Misaligned windows: boundaries land on multiples of 700 ms, never on
	// the 1.5 s slice grid; the last window runs past the span (clip path).
	sampleSeries := func(scale float64) *metrics.SampleSeries {
		ss := &metrics.SampleSeries{}
		for s := int64(0); s < spanMs; s += 700 {
			e := s + 700
			ss.Samples = append(ss.Samples, metrics.Sample{
				Start: ms(s), End: ms(e), Avg: rng.Float64() * scale,
			})
		}
		return ss
	}
	if err := rt.Add(res, core.GlobalMachine, sampleSeries(120)); err != nil {
		t.Fatal(err)
	}
	if err := rt.Add(net, core.GlobalMachine, sampleSeries(60)); err != nil {
		t.Fatal(err)
	}
	for m := 0; m < 2; m++ {
		if err := rt.Add(cpu, m, sampleSeries(10)); err != nil {
			t.Fatal(err)
		}
	}

	rules := core.NewRuleSet()
	for _, name := range append(append([]string{}, globals...), "w") {
		for _, r := range []string{"res", "cpu", "net"} {
			switch rng.Intn(4) {
			case 0:
				rules.Set("/job/"+name, r, core.Exact(float64(1+rng.Intn(60))))
			case 1:
				rules.Set("/job/"+name, r, core.Variable(float64(1+rng.Intn(3))))
			case 2:
				rules.Set("/job/"+name, r, core.None())
			default:
				// Leave unset: the Variable(1) default applies.
			}
		}
	}

	width := []vtime.Duration{sec, 1500 * vtime.Millisecond, 700 * vtime.Millisecond}[rng.Intn(3)]
	slices := core.NewTimeslices(span0, span1, width)
	return &fixture{tr: tr, leaves: tr.Leaves(), rt: rt, rules: rules, slices: slices}
}

// diffProfiles asserts the columnar profile equals the reference profile bit
// for bit.
func diffProfiles(t *testing.T, got *attribution.Profile, want *reference.Profile) {
	t.Helper()
	if len(got.Instances) != len(want.Instances) {
		t.Fatalf("instance counts: %d vs %d", len(got.Instances), len(want.Instances))
	}
	eqBits := func(key, what string, xs, ys []float64) {
		if len(xs) != len(ys) {
			t.Fatalf("%s %s: lengths %d vs %d", key, what, len(xs), len(ys))
		}
		for k := range xs {
			if math.Float64bits(xs[k]) != math.Float64bits(ys[k]) {
				t.Fatalf("%s %s slice %d: %v (%#x) vs %v (%#x)", key, what, k,
					xs[k], math.Float64bits(xs[k]), ys[k], math.Float64bits(ys[k]))
			}
		}
	}
	for i := range got.Instances {
		g, w := got.Instances[i], want.Instances[i]
		key := g.Instance.Key()
		if g.Instance != w.Instance {
			t.Fatalf("instance %d: %q vs %q", i, key, w.Instance.Key())
		}
		eqBits(key, "consumption", g.Consumption, w.Consumption)
		eqBits(key, "known", g.KnownDemand, w.KnownDemand)
		eqBits(key, "varw", g.VariableWeight, w.VariableWeight)
		eqBits(key, "unattributed", g.Unattributed, w.Unattributed)
		if (g.Usage == nil) != (w.Usage == nil) || len(g.Usage) != len(w.Usage) {
			t.Fatalf("%s: usage %d (nil=%v) vs %d (nil=%v)", key,
				len(g.Usage), g.Usage == nil, len(w.Usage), w.Usage == nil)
		}
		for j := range g.Usage {
			gu, wu := g.Usage[j], w.Usage[j]
			if gu.Phase != wu.Phase || gu.First != wu.First {
				t.Fatalf("%s usage %d: phase %v first %d vs phase %v first %d",
					key, j, gu.Phase.Path, gu.First, wu.Phase.Path, wu.First)
			}
			eqBits(key, "rates "+gu.Phase.Path, gu.Rates, wu.Rates)
		}
	}
}

// TestColumnarMatchesReference is the core equivalence sweep: randomized
// fixtures, several worker counts, profiles bit-identical.
func TestColumnarMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		f := buildFixture(t, seed)
		want, err := reference.Attribute(f.leaves, f.rt, f.rules, f.slices, nil)
		if err != nil {
			t.Fatalf("seed %d: reference: %v", seed, err)
		}
		for _, workers := range []int{1, 2, 4} {
			got, err := attribution.AttributeWindow(f.tr, f.leaves, f.rt, f.rules,
				f.slices, workers, nil)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			diffProfiles(t, got, want)
		}
	}
}

// TestExplainChainsReproduceProfile is the per-query check that the
// oracle's recomputed derivation chain reproduces the columnar profile: on
// every sweep fixture, each phase derivation of an all-instances explain
// sums to exactly the profile cells it explains, float64 bits and all.
func TestExplainChainsReproduceProfile(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		f := buildFixture(t, seed)
		prof, err := attribution.AttributeWindow(f.tr, f.leaves, f.rt, f.rules,
			f.slices, 4, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		d, err := explain.Explain(prof, explain.Query{})
		if err != nil {
			t.Fatalf("seed %d: explain: %v", seed, err)
		}
		if len(d.Instances) != len(f.rt.Instances()) {
			t.Fatalf("seed %d: %d explained instances, want %d",
				seed, len(d.Instances), len(f.rt.Instances()))
		}
		phases := 0
		for _, inst := range d.Instances {
			for _, pd := range inst.Phases {
				phases++
				if math.Float64bits(pd.AttributedUnitSeconds) != math.Float64bits(pd.ProfileUnitSeconds) {
					t.Fatalf("seed %d %s %s: chain sums to %v (%#x), profile holds %v (%#x)",
						seed, inst.Key, pd.Path,
						pd.AttributedUnitSeconds, math.Float64bits(pd.AttributedUnitSeconds),
						pd.ProfileUnitSeconds, math.Float64bits(pd.ProfileUnitSeconds))
				}
			}
		}
		if phases == 0 {
			t.Fatalf("seed %d: no phase derivation", seed)
		}
	}
}

// TestColumnarMatchesReferenceEdges pins the degenerate shapes: no
// competitors at all, competitors that never earn consumption, saturation
// above capacity, and windows entirely outside the span.
func TestColumnarMatchesReferenceEdges(t *testing.T) {
	root := core.NewRootType("job")
	root.Child("a", false)
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	now = at(2)
	l.StartPhase("/job", -1)
	l.StartPhase("/job/a", -1)
	now = at(5)
	l.EndPhase("/job/a")
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		rule    core.Rule
		samples []metrics.Sample
		cap     float64
	}{
		{"no-rule-unattributed", core.None(),
			[]metrics.Sample{{Start: at(2), End: at(5), Avg: 10}}, 100},
		{"zero-consumption", core.Variable(1),
			[]metrics.Sample{{Start: at(2), End: at(5), Avg: 0}}, 100},
		{"saturated", core.Exact(90),
			[]metrics.Sample{{Start: at(2), End: at(5), Avg: 95}}, 100},
		{"out-of-span-window", core.Variable(1),
			[]metrics.Sample{{Start: at(0), End: at(2), Avg: 50},
				{Start: at(2), End: at(5), Avg: 20}}, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := &core.Resource{Name: "res", Kind: core.Consumable, Capacity: tc.cap}
			rt := core.NewResourceTrace()
			if err := rt.Add(res, core.GlobalMachine,
				&metrics.SampleSeries{Samples: tc.samples}); err != nil {
				t.Fatal(err)
			}
			rules := core.NewRuleSet()
			rules.Set("/job/a", "res", tc.rule)
			slices := core.NewTimeslices(at(2), at(5), 700*vtime.Millisecond)
			want, err := reference.Attribute(tr.Leaves(), rt, rules, slices, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := attribution.AttributeWindow(tr, tr.Leaves(), rt, rules,
				slices, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			diffProfiles(t, got, want)
		})
	}
}
