package explain

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"grade10/internal/attribution"
	"grade10/internal/core"
	"grade10/internal/enginelog"
	"grade10/internal/metrics"
	"grade10/internal/vtime"
)

const sec = vtime.Second

func at(s int64) vtime.Time { return vtime.Time(s) * vtime.Time(sec) }

// fixture is a minimal worked example in the Figure 2 style: three leaf
// phases sharing one cpu of capacity 100 over 6 one-second timeslices, with
// p2 also stalling 1s on the blocking resource "gc".
//
//	p1 [0,2) Variable(1)   p2 [2,4) Exact(50)   p3 [3,4) Variable(1)
//	monitoring: [0,2)=30  [2,4)=60  [4,6)=25
type fixture struct {
	prof   *attribution.Profile
	slices core.Timeslices
}

func buildFixture(t testing.TB) *fixture {
	t.Helper()
	root := core.NewRootType("job")
	for _, name := range []string{"p1", "p2", "p3"} {
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
	now = at(2)
	l.StartPhase("/job/p2", -1)
	now = vtime.Time(3500 * vtime.Millisecond)
	l.BlockedSince("/job/p2", "gc", now.Add(-1*sec))
	now = at(4)
	l.EndPhase("/job/p2")
	emit(at(3), at(4), "/job/p3")
	now = at(6)
	l.EndPhase("/job")

	tr, err := core.BuildExecutionTrace(l.Log(), model)
	if err != nil {
		t.Fatal(err)
	}

	cpu := &core.Resource{Name: "cpu", Kind: core.Consumable, Capacity: 100}
	ss := &metrics.SampleSeries{}
	for i, a := range []float64{30, 60, 25} {
		ss.Samples = append(ss.Samples, metrics.Sample{
			Start: at(int64(i * 2)), End: at(int64(i*2 + 2)), Avg: a,
		})
	}
	rt := core.NewResourceTrace()
	if err := rt.Add(cpu, core.GlobalMachine, ss); err != nil {
		t.Fatal(err)
	}

	rules := core.NewRuleSet()
	rules.Set("/job/p1", "cpu", core.Variable(1)).
		Set("/job/p2", "cpu", core.Exact(50)).
		Set("/job/p3", "cpu", core.Variable(1))

	slices := core.NewTimeslices(at(0), at(6), 1*sec)
	prof, err := attribution.AttributeWindow(tr, tr.Leaves(), rt, rules,
		slices, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{prof: prof, slices: slices}
}

func explainQ(t *testing.T, f *fixture, query string) *Derivation {
	t.Helper()
	q, err := ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Explain(f.prof, q)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func approx(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

// TestExplainChainReproducesProfile is the acceptance check: summing the
// printed derivation chain reproduces the profile's attributed value exactly,
// for a single phase and for the whole resource.
func TestExplainChainReproducesProfile(t *testing.T) {
	f := buildFixture(t)

	d := explainQ(t, f, "phase=/job/p2 resource=cpu")
	if len(d.Instances) != 1 || len(d.Instances[0].Phases) != 1 {
		t.Fatalf("want 1 instance × 1 phase, got %d instances", len(d.Instances))
	}
	pd := d.Instances[0].Phases[0]
	if pd.RuleKind != "exact" || pd.RuleAmount != 50 {
		t.Fatalf("rule = %s(%v), want exact(50)", pd.RuleKind, pd.RuleAmount)
	}
	if len(pd.Cells) != 2 {
		t.Fatalf("p2 active in slices 2 and 3, got %d cells", len(pd.Cells))
	}
	var sum float64
	for _, c := range pd.Cells {
		// Exact phases get rule.Amount × activity × exactScale (§III-D3).
		approx(t, "exact share", c.ShareRate, c.Demand*c.ExactScale)
		sum += c.UnitSeconds
	}
	approx(t, "cell sum vs chain total", sum, pd.AttributedUnitSeconds)
	approx(t, "chain vs profile (phase)", pd.AttributedUnitSeconds, pd.ProfileUnitSeconds)
	if pd.ProfileUnitSeconds <= 0 {
		t.Fatal("profile attributed nothing to p2 on cpu")
	}

	whole := explainQ(t, f, "resource=cpu")
	if len(whole.Instances) != 1 {
		t.Fatalf("want 1 cpu instance, got %d", len(whole.Instances))
	}
	paths := map[string]bool{}
	for _, pd := range whole.Instances[0].Phases {
		paths[pd.TypePath] = true
		for _, c := range pd.Cells {
			if pd.RuleKind == "variable" && c.TotalVarW > 0 {
				// Variable phases split the remainder by weight (§III-D3).
				approx(t, "variable share "+pd.Path,
					c.ShareRate, c.Remainder*pd.RuleAmount*c.Activity/c.TotalVarW)
			}
		}
	}
	for _, p := range []string{"/job/p1", "/job/p2", "/job/p3"} {
		if !paths[p] {
			t.Fatalf("resource-wide derivation missing phase %s", p)
		}
	}
	approx(t, "chain vs profile (resource)",
		whole.AttributedUnitSeconds, whole.ProfileUnitSeconds)
	if whole.AttributedUnitSeconds <= 0 {
		t.Fatal("empty resource-wide derivation")
	}
}

// TestExplainRangeClipsCells checks the [t0..t1] window restricts both the
// slice span and the cells in the chain.
func TestExplainRangeClipsCells(t *testing.T) {
	f := buildFixture(t)
	d := explainQ(t, f, "phase=/job/p2 resource=cpu [2s..3s]")
	if d.Slices != 1 {
		t.Fatalf("window [2s..3s) covers 1 slice, got %d", d.Slices)
	}
	pd := d.Instances[0].Phases[0]
	if len(pd.Cells) != 1 || pd.Cells[0].Slice != 2 {
		t.Fatalf("want exactly slice 2, got %+v", pd.Cells)
	}
	approx(t, "clipped chain vs profile", pd.AttributedUnitSeconds, pd.ProfileUnitSeconds)

	// A range clipped to the span still answers; one fully outside errors.
	if _, err := Explain(f.prof, Query{
		Resource: "cpu", T0: at(5), T1: at(20), HasRange: true}); err != nil {
		t.Fatalf("partially overlapping range: %v", err)
	}
	_, err := Explain(f.prof, Query{
		Resource: "cpu", T0: at(10), T1: at(20), HasRange: true})
	var ee *EvalError
	if !errors.As(err, &ee) {
		t.Fatalf("out-of-span range: want *EvalError, got %v", err)
	}
}

// TestExplainBlockingResource checks stall queries are answered from the
// trace: gc has no consumable instance, so the evidence is p2's blocked
// interval, clipped to the queried window.
func TestExplainBlockingResource(t *testing.T) {
	f := buildFixture(t)

	d := explainQ(t, f, "resource=gc")
	if len(d.Instances) != 0 || len(d.Blocking) != 1 {
		t.Fatalf("want pure blocking answer, got %d instances, %d blocking",
			len(d.Instances), len(d.Blocking))
	}
	bd := d.Blocking[0]
	if bd.Resource != "gc" || len(bd.Phases) != 1 {
		t.Fatalf("blocking = %+v", bd)
	}
	bp := bd.Phases[0]
	if bp.TypePath != "/job/p2" || len(bp.Intervals) != 1 {
		t.Fatalf("blocked phase = %+v", bp)
	}
	approx(t, "stall seconds", bp.Seconds, 1.0)
	approx(t, "total stall", bd.TotalSeconds, 1.0)

	// Range clipping applies to stall intervals too: [3s..4s) sees half.
	clipped := explainQ(t, f, "resource=gc [3s..4s]")
	approx(t, "clipped stall", clipped.Blocking[0].TotalSeconds, 0.5)

	// A phase-only query reports consumable cells and stalls together.
	both := explainQ(t, f, "phase=/job/p2")
	if len(both.Instances) != 1 || len(both.Blocking) != 1 {
		t.Fatalf("phase-only: %d instances, %d blocking",
			len(both.Instances), len(both.Blocking))
	}
}

// TestExplainEvalErrors checks unknown names surface as typed *EvalError.
func TestExplainEvalErrors(t *testing.T) {
	f := buildFixture(t)
	for _, q := range []Query{
		{Resource: "quantum-bus"},
		{Phase: "/job/p9"},
		{Phase: "/job/p9", Resource: "cpu"},
	} {
		_, err := Explain(f.prof, q)
		var ee *EvalError
		if !errors.As(err, &ee) {
			t.Fatalf("query %q: want *EvalError, got %v", q.String(), err)
		}
	}
}

// TestExplainKnownOverWholeProfile checks names are known or unknown over
// the whole run, not the queried range: p2's gc stall and the phases p2 and
// p3 all lie after 2s, so a [0s..2s] query on them answers with no
// evidence, while names the profile never holds still fail.
func TestExplainKnownOverWholeProfile(t *testing.T) {
	f := buildFixture(t)
	for _, c := range []struct {
		query string
		known bool
	}{
		{"phase=/job/p2 resource=gc [0s..2s]", true}, // known resource, empty range
		{"phase=/job/p3 [0s..2s]", true},             // known phase type, empty range
		{"resource=quantum-bus [0s..2s]", false},     // unknown resource
		{"phase=/job/p9 [0s..2s]", false},            // unknown phase type
	} {
		q, err := ParseQuery(c.query)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Explain(f.prof, q)
		if !c.known {
			var ee *EvalError
			if !errors.As(err, &ee) {
				t.Fatalf("%s: want *EvalError, got %v", c.query, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if len(d.Instances) != 0 || len(d.Blocking) != 0 || d.AttributedUnitSeconds != 0 {
			t.Fatalf("%s: want an empty derivation, got %d instances, %d blocking, %v unit·s",
				c.query, len(d.Instances), len(d.Blocking), d.AttributedUnitSeconds)
		}
	}
}

// TestExplainRenderings smoke-checks both output formats: the text chain
// carries the sums, and the JSON parses back with the same totals.
func TestExplainRenderings(t *testing.T) {
	f := buildFixture(t)
	d := explainQ(t, f, "phase=/job/p2 resource=cpu")

	var text bytes.Buffer
	if err := d.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"explain phase=/job/p2 resource=cpu",
		"rule exact(50) on cpu", "chain sum:", "profile holds"} {
		if !strings.Contains(text.String(), want) {
			t.Fatalf("text derivation missing %q:\n%s", want, text.String())
		}
	}

	var js bytes.Buffer
	if err := d.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back Derivation
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	approx(t, "JSON round-trip total", back.AttributedUnitSeconds, d.AttributedUnitSeconds)
}

// TestExplainConcurrentQueries checks that queries recompute independently:
// one profile answering from several goroutines at once (as the service's
// handlers do on a finalized run) gives every caller the serial answer.
func TestExplainConcurrentQueries(t *testing.T) {
	f := buildFixture(t)
	render := func() ([]byte, error) {
		d, err := Explain(f.prof, Query{Resource: "cpu"})
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err = d.WriteJSON(&buf)
		return buf.Bytes(), err
	}
	want, err := render()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := render()
			if err != nil || !bytes.Equal(got, want) {
				t.Errorf("concurrent explain differs from serial (err %v)", err)
			}
		}()
	}
	wg.Wait()
}

// TestRecorderMemoryBound checks the per-instance row cap: a tiny bound
// stops the answer at the cap, counts the dropped rows, and the derivation
// carries the count and the warning.
func TestRecorderMemoryBound(t *testing.T) {
	f := buildFixture(t)
	q := Query{Resource: "cpu"}
	d, err := explain(f.prof, q, 4)
	if err != nil {
		t.Fatal(err)
	}
	if d.DroppedRows == 0 {
		t.Fatal("tiny bound dropped nothing")
	}
	if rows := answerRows(d); rows == 0 || rows > 4 {
		t.Fatalf("bounded answer holds %d rows, want at most the cap 4", rows)
	}
	var text bytes.Buffer
	if err := d.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "provenance rows dropped by the memory bound") {
		t.Fatalf("bounded derivation carries no warning:\n%s", text.String())
	}

	unbounded, err := Explain(f.prof, q)
	if err != nil {
		t.Fatal(err)
	}
	if unbounded.DroppedRows != 0 {
		t.Fatalf("default bound dropped %d rows on a 6-slice fixture", unbounded.DroppedRows)
	}
}

// TestExplainKeepsOnlySelectedCells checks the bound counts only what the
// answer keeps: a narrow query bounded at its own answer's rows drops
// nothing and equals the unbounded answer, although the instance it
// recomputes holds far more rows (p1's and p3's cells, other slices). One
// row less drops a row and warns, but still names the phase.
func TestExplainKeepsOnlySelectedCells(t *testing.T) {
	f := buildFixture(t)
	q, err := ParseQuery("phase=/job/p2 resource=cpu [2s..3s]")
	if err != nil {
		t.Fatal(err)
	}
	whole, err := Explain(f.prof, q)
	if err != nil {
		t.Fatal(err)
	}
	rows := answerRows(whole)
	if rows == 0 {
		t.Fatal("empty answer")
	}
	bounded, err := explain(f.prof, q, rows)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.DroppedRows != 0 {
		t.Fatalf("bound of %d rows dropped %d rows of its own answer", rows, bounded.DroppedRows)
	}
	var want, got bytes.Buffer
	if err := whole.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := bounded.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("bounded answer differs:\n%s\nwant:\n%s", got.Bytes(), want.Bytes())
	}

	short, err := explain(f.prof, q, rows-1)
	if err != nil {
		t.Fatalf("a bound one row short turned a partial chain into an error: %v", err)
	}
	if short.DroppedRows == 0 {
		t.Fatalf("a bound of %d rows kept an answer of %d", rows-1, rows)
	}
}

// answerRows counts the rows a derivation keeps: its cells plus the upsample
// contributions they carry.
func answerRows(d *Derivation) int {
	rows := 0
	for _, inst := range d.Instances {
		for _, pd := range inst.Phases {
			for _, c := range pd.Cells {
				rows += 1 + len(c.Upsample)
			}
		}
	}
	return rows
}
