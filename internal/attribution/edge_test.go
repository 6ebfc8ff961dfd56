package attribution

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

// scenario builds a one-resource trace from explicit phase intervals and
// monitoring samples.
type scenario struct {
	phases  map[string][2]vtime.Time // name → [start, end)
	blocks  map[string][][2]vtime.Time
	rules   map[string]core.Rule
	samples []metrics.Sample
	span    [2]vtime.Time
	width   vtime.Duration
	cap     float64
}

func (sc *scenario) run(t *testing.T) (*core.ExecutionTrace, *Profile) {
	t.Helper()
	root := core.NewRootType("job")
	names := make([]string, 0, len(sc.phases))
	for name := range sc.phases {
		names = append(names, name)
	}
	for _, name := range names {
		root.Child(name, false)
	}
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	now = sc.span[0]
	l.StartPhase("/job", -1)
	// Emit deterministic order: starts sorted by time then name.
	type ev struct {
		t     vtime.Time
		start bool
		name  string
	}
	var evs []ev
	for name, iv := range sc.phases {
		evs = append(evs, ev{iv[0], true, name}, ev{iv[1], false, name})
	}
	for i := 0; i < len(evs); i++ {
		for j := i + 1; j < len(evs); j++ {
			less := evs[j].t < evs[i].t ||
				(evs[j].t == evs[i].t && (!evs[j].start && evs[i].start)) ||
				(evs[j].t == evs[i].t && evs[j].start == evs[i].start && evs[j].name < evs[i].name)
			if less {
				evs[i], evs[j] = evs[j], evs[i]
			}
		}
	}
	for _, e := range evs {
		now = e.t
		if e.start {
			l.StartPhase("/job/"+e.name, -1)
		} else {
			l.EndPhase("/job/" + e.name)
		}
	}
	for name, blocks := range sc.blocks {
		for _, b := range blocks {
			now = b[1]
			l.BlockedSince("/job/"+name, "someblocker", b[0])
		}
	}
	now = sc.span[1]
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}

	res := &core.Resource{Name: "res", Kind: core.Consumable, Capacity: sc.cap}
	rt := core.NewResourceTrace()
	if err := rt.Add(res, core.GlobalMachine, &metrics.SampleSeries{Samples: sc.samples}); err != nil {
		t.Fatal(err)
	}
	rules := core.NewRuleSet()
	for name, r := range sc.rules {
		rules.Set("/job/"+name, "res", r)
	}
	// The synthetic root phase "/job" must not compete: its children do.
	rules.Set("/job", "res", core.None())
	slices := core.NewTimeslices(sc.span[0], sc.span[1], sc.width)
	prof, err := Attribute(tr, rt, rules, slices)
	if err != nil {
		t.Fatal(err)
	}
	return tr, prof
}

func TestPartialSliceActivityScalesDemand(t *testing.T) {
	// Phase covers only half of slice 1; Exact demand 10 → demand 5 there.
	sc := &scenario{
		phases: map[string][2]vtime.Time{"a": {at(1).Add(sec / 2), at(3)}},
		rules:  map[string]core.Rule{"a": core.Exact(10)},
		samples: []metrics.Sample{
			{Start: at(0), End: at(4), Avg: 5},
		},
		span: [2]vtime.Time{at(0), at(4)}, width: sec, cap: 100,
	}
	_, prof := sc.run(t)
	ip := prof.Get("res", core.GlobalMachine)
	approx(t, "known slice0", ip.KnownDemand[0], 0)
	approx(t, "known slice1", ip.KnownDemand[1], 5)
	approx(t, "known slice2", ip.KnownDemand[2], 10)
	// Upsampling puts consumption where demand is: 20 unit·seconds over
	// demands (0,5,10,0): demand is satisfied first (5,10), and the 5-unit
	// excess clings to the demand profile → 20·(5/15) and 20·(10/15).
	approx(t, "cons slice0", ip.Consumption[0], 0)
	approx(t, "cons slice1", ip.Consumption[1], 20.0/3)
	approx(t, "cons slice2", ip.Consumption[2], 40.0/3)
	approx(t, "cons slice3", ip.Consumption[3], 0)
}

func TestBlockingSuppressesDemand(t *testing.T) {
	// Phase [0,4) blocked during [1,2): demand vanishes in slice 1 and the
	// upsampled consumption avoids it.
	sc := &scenario{
		phases: map[string][2]vtime.Time{"a": {at(0), at(4)}},
		blocks: map[string][][2]vtime.Time{"a": {{at(1), at(2)}}},
		rules:  map[string]core.Rule{"a": core.Exact(8)},
		samples: []metrics.Sample{
			{Start: at(0), End: at(4), Avg: 6},
		},
		span: [2]vtime.Time{at(0), at(4)}, width: sec, cap: 100,
	}
	_, prof := sc.run(t)
	ip := prof.Get("res", core.GlobalMachine)
	approx(t, "known slice1", ip.KnownDemand[1], 0)
	approx(t, "cons slice1", ip.Consumption[1], 0)
	// 24 unit·seconds spread over slices 0,2,3 by demand 8 each → 8 rate.
	approx(t, "cons slice0", ip.Consumption[0], 8)
	approx(t, "cons slice2", ip.Consumption[2], 8)
	approx(t, "cons slice3", ip.Consumption[3], 8)
}

func TestUnattributedWhenNoRulesApply(t *testing.T) {
	// Consumption exists but the only phase has a None rule: upsampling
	// falls back to spreading, and everything lands in Unattributed.
	sc := &scenario{
		phases: map[string][2]vtime.Time{"a": {at(0), at(2)}},
		rules:  map[string]core.Rule{"a": core.None()},
		samples: []metrics.Sample{
			{Start: at(0), End: at(2), Avg: 10},
		},
		span: [2]vtime.Time{at(0), at(2)}, width: sec, cap: 100,
	}
	_, prof := sc.run(t)
	ip := prof.Get("res", core.GlobalMachine)
	total := 0.0
	for k := range ip.Unattributed {
		total += ip.Unattributed[k]
	}
	approx(t, "unattributed total rate", total, 20)
	if len(ip.Usage) != 0 {
		t.Fatalf("usage = %v", ip.Usage)
	}
}

func TestCapacityRespectedDuringUpsampling(t *testing.T) {
	// Demand concentrated in slice 0 but exceeding capacity: the excess
	// spills into the other slice of the window.
	sc := &scenario{
		phases: map[string][2]vtime.Time{
			"a": {at(0), at(1)}, // Exact 100 (= capacity) in slice 0
			"b": {at(0), at(2)}, // Variable everywhere
		},
		rules: map[string]core.Rule{"a": core.Exact(100), "b": core.Variable(1)},
		samples: []metrics.Sample{
			{Start: at(0), End: at(2), Avg: 75},
		},
		span: [2]vtime.Time{at(0), at(2)}, width: sec, cap: 100,
	}
	_, prof := sc.run(t)
	ip := prof.Get("res", core.GlobalMachine)
	for k, c := range ip.Consumption {
		if c > 100+1e-9 {
			t.Fatalf("slice %d consumption %v exceeds capacity", k, c)
		}
	}
	// 150 unit·seconds: slice 0 takes its cap 100, slice 1 the remaining 50.
	approx(t, "cons slice0", ip.Consumption[0], 100)
	approx(t, "cons slice1", ip.Consumption[1], 50)
}

func TestMachineScopedCompetition(t *testing.T) {
	// Two phases on different machines; per-machine resource instances only
	// see their own phase.
	root := core.NewRootType("job")
	root.Child("w", true)
	model, err := core.NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	var now vtime.Time
	l := enginelog.NewLogger(func() vtime.Time { return now })
	l.StartPhase("/job", -1)
	l.StartPhase("/job/w.0", 0)
	l.StartPhase("/job/w.1", 1)
	now = at(2)
	l.EndPhase("/job/w.0")
	l.EndPhase("/job/w.1")
	l.EndPhase("/job")
	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}
	res := &core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: 4, PerMachine: true}
	rt := core.NewResourceTrace()
	for m := 0; m < 2; m++ {
		avg := float64(m + 1)
		err := rt.Add(res, m, &metrics.SampleSeries{Samples: []metrics.Sample{
			{Start: at(0), End: at(2), Avg: avg},
		}})
		if err != nil {
			t.Fatal(err)
		}
	}
	rules := core.NewRuleSet()
	rules.Set("/job", "cpu", core.None())
	slices := core.NewTimeslices(at(0), at(2), sec)
	prof, err := Attribute(tr, rt, rules, slices)
	if err != nil {
		t.Fatal(err)
	}
	w0 := tr.ByPath["/job/w.0"]
	w1 := tr.ByPath["/job/w.1"]
	cpu0 := prof.Get("cpu", 0)
	cpu1 := prof.Get("cpu", 1)
	if cpu0.UsageOf(w1) != nil || cpu1.UsageOf(w0) != nil {
		t.Fatal("cross-machine attribution")
	}
	approx(t, "w0 on cpu0", cpu0.UsageOf(w0).Rate(0), 1)
	approx(t, "w1 on cpu1", cpu1.UsageOf(w1).Rate(0), 2)
}

func TestEmptySliceSpanRejected(t *testing.T) {
	f := buildFig2(t)
	empty := core.NewTimeslices(at(0), at(0), sec)
	if _, err := Attribute(f.tr, f.rt, f.rules, empty); err == nil {
		t.Fatal("empty span accepted")
	}
}

// Property: upsampling conserves mass and never exceeds capacity, for random
// phase layouts and monitoring data.
func TestUpsamplingConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		spanSlices := 4 + rng.Intn(12)
		sc := &scenario{
			phases: map[string][2]vtime.Time{},
			rules:  map[string]core.Rule{},
			span:   [2]vtime.Time{at(0), at(int64(spanSlices))},
			width:  sec,
			cap:    100,
		}
		names := []string{"a", "b", "c", "d"}
		for _, n := range names[:1+rng.Intn(4)] {
			s := rng.Intn(spanSlices)
			e := s + 1 + rng.Intn(spanSlices-s)
			sc.phases[n] = [2]vtime.Time{at(int64(s)), at(int64(e))}
			switch rng.Intn(3) {
			case 0:
				sc.rules[n] = core.Exact(float64(5 + rng.Intn(50)))
			case 1:
				sc.rules[n] = core.Variable(float64(1 + rng.Intn(3)))
			default:
				sc.rules[n] = core.None()
			}
		}
		// Random monitoring windows of 2 slices.
		for s := 0; s < spanSlices; s += 2 {
			e := s + 2
			if e > spanSlices {
				e = spanSlices
			}
			sc.samples = append(sc.samples, metrics.Sample{
				Start: at(int64(s)), End: at(int64(e)), Avg: rng.Float64() * 100,
			})
		}
		_, prof := sc.run(t)
		ip := prof.Get("res", core.GlobalMachine)
		measured := sampledConsumption(ip.Instance.Samples)
		upsampled := 0.0
		for k := 0; k < spanSlices; k++ {
			c := ip.Consumption[k]
			if c < -1e-9 || c > 100+1e-6 {
				return false
			}
			upsampled += c // 1-second slices
			// Attribution completeness.
			sum := ip.Unattributed[k]
			for _, u := range ip.Usage {
				sum += u.Rate(k)
			}
			if math.Abs(sum-c) > 1e-6 {
				return false
			}
		}
		return math.Abs(measured-upsampled) < 1e-6*(1+measured)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
