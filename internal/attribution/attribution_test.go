package attribution

import (
	"math"
	"testing"

	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

const sec = vtime.Second

func at(s int64) vtime.Time { return vtime.Time(s) * vtime.Time(sec) }

// fig2 builds the paper's Figure 2 worked example: four phases P1-P4, three
// resources R1-R3 of capacity 100, 1-second timeslices, 2-slice monitoring.
// The quoted numbers (upsampled 15%/65% on R2 in slices 2-3; P3 getting its
// Exact 50% leaving 15% to P2; P2 pinned at its Exact 80% cap on R3 while R3
// is not saturated in slice 2 and saturated in slice 3) are asserted exactly.
type fig2 struct {
	tr         *core.ExecutionTrace
	rt         *core.ResourceTrace
	rules      *core.RuleSet
	slices     core.Timeslices
	r1, r2, r3 *core.Resource
}

func buildFig2(t testing.TB) *fig2 {
	t.Helper()
	root := core.NewRootType("job")
	for _, name := range []string{"p1", "p2", "p3", "p4"} {
		root.Child(name, false)
	}
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
	emit(at(0), at(2), "/job/p1")
	emit(at(2), at(4), "/job/p2")
	emit(at(3), at(4), "/job/p3")
	emit(at(4), at(6), "/job/p4")
	now = at(6)
	l.EndPhase("/job")

	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}

	f := &fig2{tr: tr}
	f.r1 = &core.Resource{Name: "r1", Kind: core.Consumable, Capacity: 100}
	f.r2 = &core.Resource{Name: "r2", Kind: core.Consumable, Capacity: 100}
	f.r3 = &core.Resource{Name: "r3", Kind: core.Consumable, Capacity: 100}

	samples := func(avgs ...float64) *metrics.SampleSeries {
		ss := &metrics.SampleSeries{}
		for i, a := range avgs {
			ss.Samples = append(ss.Samples, metrics.Sample{
				Start: at(int64(i * 2)), End: at(int64(i*2 + 2)), Avg: a,
			})
		}
		return ss
	}
	f.rt = core.NewResourceTrace()
	mustAdd := func(r *core.Resource, ss *metrics.SampleSeries) {
		if err := f.rt.Add(r, core.GlobalMachine, ss); err != nil {
			t.Fatal(err)
		}
	}
	mustAdd(f.r1, samples(30, 60, 25))
	mustAdd(f.r2, samples(0, 40, 0))
	mustAdd(f.r3, samples(0, 90, 0))

	f.rules = core.NewRuleSet()
	// The Figure 2(b) rule matrix.
	f.rules.Set("/job/p1", "r1", core.Variable(1)).
		Set("/job/p1", "r2", core.None()).
		Set("/job/p1", "r3", core.None()).
		Set("/job/p2", "r1", core.Variable(2)).
		Set("/job/p2", "r2", core.Variable(1)).
		Set("/job/p2", "r3", core.Exact(80)).
		Set("/job/p3", "r1", core.None()).
		Set("/job/p3", "r2", core.Exact(50)).
		Set("/job/p3", "r3", core.Variable(1)).
		Set("/job/p4", "r1", core.Exact(30)).
		Set("/job/p4", "r2", core.None()).
		Set("/job/p4", "r3", core.None())

	f.slices = core.NewTimeslices(at(0), at(6), 1*sec)
	return f
}

func attributeFig2(t *testing.T) (*fig2, *Profile) {
	t.Helper()
	f := buildFig2(t)
	prof, err := Attribute(f.tr, f.rt, f.rules, f.slices)
	if err != nil {
		t.Fatal(err)
	}
	return f, prof
}

func approx(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

func TestFigure2UpsamplingR2(t *testing.T) {
	_, prof := attributeFig2(t)
	r2 := prof.Get("r2", core.GlobalMachine)
	if r2 == nil {
		t.Fatal("missing r2 profile")
	}
	// The paper's quoted result: 40% average over slices 2-3 upsamples to
	// 15% and 65%.
	approx(t, "r2 slice2", r2.Consumption[2], 15)
	approx(t, "r2 slice3", r2.Consumption[3], 65)
	for _, k := range []int{0, 1, 4, 5} {
		approx(t, "r2 idle slice", r2.Consumption[k], 0)
	}
	// Demand estimation matrix: slice 2 has only P2 (Variable y); slice 3
	// adds P3 (Exact 50).
	approx(t, "r2 known slice2", r2.KnownDemand[2], 0)
	approx(t, "r2 known slice3", r2.KnownDemand[3], 50)
	approx(t, "r2 varw slice2", r2.VariableWeight[2], 1)
	approx(t, "r2 varw slice3", r2.VariableWeight[3], 1)
}

func TestFigure2AttributionR2(t *testing.T) {
	f, prof := attributeFig2(t)
	r2 := prof.Get("r2", core.GlobalMachine)
	p2 := f.tr.ByPath["/job/p2"]
	p3 := f.tr.ByPath["/job/p3"]
	// Slice 3: Exact gives P3 its 50%, leaving 15% for P2 (paper §III-D3).
	approx(t, "P3 r2 slice3", r2.UsageOf(p3).Rate(3), 50)
	approx(t, "P2 r2 slice3", r2.UsageOf(p2).Rate(3), 15)
	// Slice 2: P2 alone takes the full 15%.
	approx(t, "P2 r2 slice2", r2.UsageOf(p2).Rate(2), 15)
}

func TestFigure2R3ExactCapAndSaturation(t *testing.T) {
	f, prof := attributeFig2(t)
	r3 := prof.Get("r3", core.GlobalMachine)
	p2 := f.tr.ByPath["/job/p2"]
	p3 := f.tr.ByPath["/job/p3"]
	// Slice 2: P2 pinned at its Exact 80 while the resource is below
	// capacity (the paper's non-saturated bottleneck case).
	approx(t, "r3 slice2", r3.Consumption[2], 80)
	approx(t, "P2 r3 slice2", r3.UsageOf(p2).Rate(2), 80)
	// Slice 3: resource saturated at 100; P2 keeps 80, P3 absorbs 20.
	approx(t, "r3 slice3", r3.Consumption[3], 100)
	approx(t, "P2 r3 slice3", r3.UsageOf(p2).Rate(3), 80)
	approx(t, "P3 r3 slice3", r3.UsageOf(p3).Rate(3), 20)
}

func TestFigure2R1ScarceExactScaling(t *testing.T) {
	f, prof := attributeFig2(t)
	r1 := prof.Get("r1", core.GlobalMachine)
	p1 := f.tr.ByPath["/job/p1"]
	p2 := f.tr.ByPath["/job/p2"]
	p4 := f.tr.ByPath["/job/p4"]
	// Slices 0-1: P1 variable, 30 average → 30 each.
	approx(t, "P1 r1 slice0", r1.UsageOf(p1).Rate(0), 30)
	approx(t, "P1 r1 slice1", r1.UsageOf(p1).Rate(1), 30)
	// Slices 2-3: P2 variable weight 2 absorbs the 60 average fully.
	approx(t, "P2 r1 slice2", r1.UsageOf(p2).Rate(2), 60)
	approx(t, "P2 r1 slice3", r1.UsageOf(p2).Rate(3), 60)
	// Slices 4-5: P4 demands Exact 30 but only 25 average was consumed:
	// scarce consumption scales the Exact allocation down.
	approx(t, "P4 r1 slice4", r1.UsageOf(p4).Rate(4), 25)
	approx(t, "P4 r1 slice5", r1.UsageOf(p4).Rate(5), 25)
}

func TestMassConservation(t *testing.T) {
	f, prof := attributeFig2(t)
	for _, ip := range prof.Instances {
		measured := sampledConsumption(ip.Instance.Samples)
		upsampled := 0.0
		for k := 0; k < f.slices.Count; k++ {
			upsampled += ip.Consumption[k] * f.slices.SliceSeconds(k)
		}
		if math.Abs(measured-upsampled) > 1e-6 {
			t.Errorf("%s: upsampled %v, measured %v", ip.Instance.Key(), upsampled, measured)
		}
		// Per slice: attributed + unattributed == consumption.
		for k := 0; k < f.slices.Count; k++ {
			sum := ip.Unattributed[k]
			for _, u := range ip.Usage {
				sum += u.Rate(k)
			}
			if math.Abs(sum-ip.Consumption[k]) > 1e-6 {
				t.Errorf("%s slice %d: attributed %v vs consumption %v",
					ip.Instance.Key(), k, sum, ip.Consumption[k])
			}
		}
	}
}

func TestUpsampledSeries(t *testing.T) {
	f, prof := attributeFig2(t)
	r2 := prof.Get("r2", core.GlobalMachine)
	s := r2.UpsampledSeries(f.slices)
	// A step series' value at t is its average over a window with no step.
	approx(t, "series at 2.5s", s.Average(at(2).Add(sec/2), at(3)), 15)
	approx(t, "series at 3.5s", s.Average(at(3).Add(sec/2), at(4)), 65)
	approx(t, "series after end", s.Average(at(7), at(8)), 0)
	// Integral equals measured consumption.
	approx(t, "series integral", s.Integral(at(0), at(6)), 80)
}

func TestEstimatedDemand(t *testing.T) {
	_, prof := attributeFig2(t)
	r2 := prof.Get("r2", core.GlobalMachine)
	approx(t, "estimated demand slice3", r2.KnownDemand[3]+r2.VariableWeight[3], 51)
}

func TestPhaseUsageTotal(t *testing.T) {
	f, prof := attributeFig2(t)
	r2 := prof.Get("r2", core.GlobalMachine)
	p2 := f.tr.ByPath["/job/p2"]
	// P2 on R2: 15 + 15 over two 1-second slices = 30 unit·seconds.
	approx(t, "P2 r2 total", r2.UsageOf(p2).Total(f.slices), 30)
}

// sampledConsumption integrates the monitoring samples, in unit·seconds.
func sampledConsumption(ss *metrics.SampleSeries) float64 {
	total := 0.0
	for _, s := range ss.Samples {
		total += s.Avg * s.Duration().Seconds()
	}
	return total
}
