package alert

import (
	"encoding/json"
	"strings"
	"testing"

	"grade10/internal/explain"
	"grade10/internal/profstore"
)

func mustRules(t *testing.T, src string) []Rule {
	t.Helper()
	rules, err := ParseRules(strings.NewReader(src))
	if err != nil {
		t.Fatalf("ParseRules: %v", err)
	}
	return rules
}

func windowObs(tick int, scalars map[string]float64) Obs {
	return Obs{Tick: tick, TimeNS: int64(tick) * 1e9, Scalars: scalars}
}

// transition is the compact golden form of one lifecycle event.
type transition struct {
	Tick     int
	Rule     string
	From, To State
}

func eventTransitions(evs []Event) []transition {
	out := make([]transition, len(evs))
	for i, ev := range evs {
		out[i] = transition{Tick: ev.Tick, Rule: ev.Rule, From: ev.From, To: ev.To}
	}
	return out
}

// TestLifecycleGolden drives one "for 3 windows" rule through the full
// pending → firing → resolved → pending-again lifecycle and checks the exact
// transition sequence.
func TestLifecycleGolden(t *testing.T) {
	rules := mustRules(t, "alert lag severity critical when lag_seconds > 2 for 3 windows\n")
	ev := NewEvaluator(rules, nil)

	lags := []float64{1, 3, 3, 3, 3, 1, 3}
	var got []transition
	for i, lag := range lags {
		evs := ev.Eval(windowObs(i, map[string]float64{"lag_seconds": lag}))
		got = append(got, eventTransitions(evs)...)
	}
	want := []transition{
		{Tick: 1, Rule: "lag", From: StateInactive, To: StatePending},
		{Tick: 3, Rule: "lag", From: StatePending, To: StateFiring},
		{Tick: 5, Rule: "lag", From: StateFiring, To: StateResolved},
		{Tick: 6, Rule: "lag", From: StateResolved, To: StatePending},
	}
	if len(got) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}

	snap := ev.Snapshot()
	if snap.Pending != 1 || snap.Firing != 0 || snap.Resolved != 0 {
		t.Errorf("snapshot counts = firing %d pending %d resolved %d, want 0/1/0",
			snap.Firing, snap.Pending, snap.Resolved)
	}
	if snap.EventsTotal != 4 || len(snap.History) != 4 {
		t.Errorf("events_total = %d, history = %d, want 4 and 4", snap.EventsTotal, len(snap.History))
	}
}

// TestLifecycleImmediateFiring: For=1 rules go straight to firing in one
// transition, and a pending instance whose condition clears before firing
// drops back to inactive (and out of the active listing).
func TestLifecycleImmediateFiring(t *testing.T) {
	rules := mustRules(t,
		"alert now when parse_errors > 0\nalert slow when invalid_events > 0 for 2 windows\n")
	ev := NewEvaluator(rules, nil)

	evs := ev.Eval(windowObs(0, map[string]float64{"parse_errors": 1, "invalid_events": 1}))
	got := eventTransitions(evs)
	want := []transition{
		{Tick: 0, Rule: "now", From: StateInactive, To: StateFiring},
		{Tick: 0, Rule: "slow", From: StateInactive, To: StatePending},
	}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("transitions = %+v, want %+v", got, want)
		}
	}

	evs = ev.Eval(windowObs(1, map[string]float64{"parse_errors": 1, "invalid_events": 0}))
	got = eventTransitions(evs)
	// "now" keeps firing silently (dedup); "slow" falls back to inactive.
	want = []transition{{Tick: 1, Rule: "slow", From: StatePending, To: StateInactive}}
	if len(got) != 1 || got[0] != want[0] {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	snap := ev.Snapshot()
	if snap.Firing != 1 || snap.Pending != 0 {
		t.Fatalf("counts = firing %d pending %d, want 1/0", snap.Firing, snap.Pending)
	}
	// The inactive instance is hidden from the listing.
	if len(snap.Instances) != 1 || snap.Instances[0].Rule != "now" {
		t.Fatalf("instances = %+v, want only the firing one", snap.Instances)
	}
}

// TestFingerprintDedup: repeated true evaluations reuse one instance, and
// distinct keyed targets of the same rule get distinct fingerprints.
func TestFingerprintDedup(t *testing.T) {
	rules := mustRules(t, "alert hot when utilization[cpu@0] > 0.9\n"+
		"alert hot2 when utilization[cpu@1] > 0.9\n")
	ev := NewEvaluator(rules, nil)
	for i := 0; i < 5; i++ {
		ev.Eval(Obs{Tick: i, TimeNS: int64(i), Keyed: map[string]map[string]float64{
			"utilization": {"cpu@0": 0.95, "cpu@1": 0.99},
		}})
	}
	snap := ev.Snapshot()
	if len(snap.Instances) != 2 {
		t.Fatalf("instances = %d, want 2", len(snap.Instances))
	}
	if snap.Instances[0].Fingerprint == snap.Instances[1].Fingerprint {
		t.Fatalf("distinct targets share fingerprint %s", snap.Instances[0].Fingerprint)
	}
	if snap.EventsTotal != 2 {
		t.Fatalf("events_total = %d, want 2 (one firing transition per instance)", snap.EventsTotal)
	}
	for _, inst := range snap.Instances {
		q := inst.ExplainQuery
		if q != "machine=0 resource=cpu" && q != "machine=1 resource=cpu" {
			t.Fatalf("explain query = %q", q)
		}
		if pq, err := explain.ParseQuery(q); err != nil || pq.String() != q {
			t.Fatalf("explain query %q is not canonical: reparses as %q, %v", q, pq.String(), err)
		}
	}
}

// baselineRecord builds a minimal record with one phase whose duration and
// attributed-cpu cells are scaled by f.
func baselineRecord(f float64) *profstore.Record {
	return &profstore.Record{
		Version: 1, Engine: "giraph", Job: "pr", Workers: 2,
		MakespanNS: int64(f * 10e9),
		Phases: []profstore.PhaseSummary{
			{TypePath: "/pr/compute", Machine: 0, Leaf: true, Count: 1,
				TotalNS: int64(f * 4e9), MeanNS: int64(f * 4e9), MaxNS: int64(f * 4e9),
				BlockedNS: map[string]int64{"barrier": int64(f * 1e9)}},
			{TypePath: "/pr/compute", Machine: 1, Leaf: true, Count: 1,
				TotalNS: int64(f * 5e9), MeanNS: int64(f * 5e9), MaxNS: int64(f * 5e9)},
		},
		Resources: []profstore.ResourceSummary{
			{Key: "cpu@0", Resource: "cpu", Machine: 0, Capacity: 4, AvgUtilization: 0.5 * f},
		},
		Attribution: []profstore.AttributionCell{
			{TypePath: "/pr/compute", Resource: "cpu", UnitSeconds: f * 8},
		},
		Bottlenecks: []profstore.BottleneckSummary{
			{TypePath: "/pr/compute", Resource: "cpu", Kind: "saturated", Phases: 1, TotalNS: int64(f * 2e9)},
		},
	}
}

// TestBaselineRegressionLifecycle: a duration-regression rule fires on an
// inflated run ingested after clean history, and resolves when a clean run
// follows — the fleet archive-ingest path in miniature.
func TestBaselineRegressionLifecycle(t *testing.T) {
	base := Learn([]*profstore.Record{baselineRecord(1), baselineRecord(1.02), baselineRecord(0.98)})
	rules := mustRules(t,
		"alert slow severity critical when phase=/pr/compute duration regressed > 20% vs baseline\n"+
			"alert cpu when phase=/pr/compute resource=cpu regressed > 20% vs baseline\n")
	ev := NewEvaluator(rules, base)

	evs := ev.EvalRecord(baselineRecord(1.8), "noisy")
	if len(evs) != 2 {
		t.Fatalf("noisy ingest events = %+v, want 2 firings", evs)
	}
	for _, e := range evs {
		if e.To != StateFiring {
			t.Errorf("event %+v: state = %s, want firing", e, e.To)
		}
		if e.Run != "noisy" {
			t.Errorf("event run = %q, want noisy", e.Run)
		}
	}
	snap := ev.Snapshot()
	if snap.Firing != 2 {
		t.Fatalf("firing = %d, want 2", snap.Firing)
	}
	inst := snap.Instances[0]
	if inst.Baseline == nil || inst.Baseline.N != 3 {
		t.Fatalf("instance baseline = %+v, want n=3", inst.Baseline)
	}
	if inst.ExplainQuery == "" || !strings.HasPrefix(inst.ExplainQuery, "phase=/pr/compute") {
		t.Fatalf("explain query = %q", inst.ExplainQuery)
	}

	evs = ev.EvalRecord(baselineRecord(1.0), "clean")
	if len(evs) != 2 {
		t.Fatalf("clean ingest events = %+v, want 2 resolutions", evs)
	}
	for _, e := range evs {
		if e.From != StateFiring || e.To != StateResolved {
			t.Errorf("event %+v: want firing -> resolved", e)
		}
	}
	if snap = ev.Snapshot(); snap.Firing != 0 || snap.Resolved != 2 {
		t.Fatalf("counts = firing %d resolved %d, want 0/2", snap.Firing, snap.Resolved)
	}
}

// TestBaselineGuards: baseline rules stay silent without a baseline and
// within the MAD guard band, and never evaluate on window observations.
func TestBaselineGuards(t *testing.T) {
	rules := mustRules(t, "alert slow when phase=/pr/compute duration regressed > 5% vs baseline\n")

	// No baselines at all: never fires.
	ev := NewEvaluator(rules, nil)
	if evs := ev.EvalRecord(baselineRecord(10), ""); evs != nil {
		t.Fatalf("no-baseline events = %+v, want none", evs)
	}

	// A noisy baseline: +7% exceeds pct but sits inside 3·MAD — suppressed.
	noisy := Learn([]*profstore.Record{
		baselineRecord(0.8), baselineRecord(1.0), baselineRecord(1.2),
	})
	ev = NewEvaluator(rules, noisy)
	if evs := ev.EvalRecord(baselineRecord(1.07), ""); evs != nil {
		t.Fatalf("inside-MAD events = %+v, want none", evs)
	}
	// Far outside the band fires.
	if evs := ev.EvalRecord(baselineRecord(2.5), ""); len(evs) != 1 || evs[0].To != StateFiring {
		t.Fatalf("outside-MAD events = %+v, want one firing", evs)
	}

	// Window observations never trigger baseline rules.
	ev = NewEvaluator(rules, Learn([]*profstore.Record{baselineRecord(1)}))
	if evs := ev.Eval(windowObs(0, map[string]float64{"coverage": 0})); evs != nil {
		t.Fatalf("window-tick baseline events = %+v, want none", evs)
	}
}

// TestHistoryRingBounded: the transition history is bounded by maxHistory.
func TestHistoryRingBounded(t *testing.T) {
	rules := mustRules(t, "alert flap when parse_errors > 0\n")
	ev := NewEvaluator(rules, nil)
	ticks := maxHistory + 20
	for i := 0; i < ticks; i++ {
		ev.Eval(windowObs(i, map[string]float64{"parse_errors": float64(i % 2)}))
	}
	snap := ev.Snapshot()
	if len(snap.History) != maxHistory {
		t.Fatalf("history = %d entries, want %d", len(snap.History), maxHistory)
	}
	if snap.EventsTotal <= maxHistory {
		t.Fatalf("events_total = %d, want > %d", snap.EventsTotal, maxHistory)
	}
	// Ring keeps the newest events.
	if last := snap.History[maxHistory-1].Tick; last != ticks-1 {
		t.Fatalf("last history tick = %d, want %d", last, ticks-1)
	}
}

// TestSnapshotDeterministic: snapshots of the same state marshal to
// identical bytes, and instances sort firing-first.
func TestSnapshotDeterministic(t *testing.T) {
	rules := mustRules(t, "alert a when utilization[cpu@0] > 0.5\n"+
		"alert b when utilization[cpu@1] > 0.5 for 5 windows\n")
	ev := NewEvaluator(rules, nil)
	ev.Eval(Obs{Tick: 0, Keyed: map[string]map[string]float64{
		"utilization": {"cpu@0": 0.9, "cpu@1": 0.9},
	}})
	a, _ := json.Marshal(ev.Snapshot())
	b, _ := json.Marshal(ev.Snapshot())
	if string(a) != string(b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
	snap := ev.Snapshot()
	if snap.Instances[0].State != StateFiring || snap.Instances[1].State != StatePending {
		t.Fatalf("instance order = %+v, want firing first", snap.Instances)
	}
}

// TestWriteText smoke-checks the CLI report rendering.
func TestWriteText(t *testing.T) {
	rules := mustRules(t, "alert hot when utilization[cpu@0] > 0.5\n")
	ev := NewEvaluator(rules, nil)
	ev.Eval(Obs{Tick: 0, Keyed: map[string]map[string]float64{"utilization": {"cpu@0": 0.9}}})
	var sb strings.Builder
	WriteText(&sb, ev.Snapshot())
	out := sb.String()
	for _, want := range []string{"1 firing", "[FIRING] hot", "machine=0 resource=cpu"} {
		if !strings.Contains(out, want) {
			t.Errorf("report %q missing %q", out, want)
		}
	}
}

// TestExplainQueriesCanonical pins the evidence pointers alerts attach: each
// is the canonical explain grammar (it reparses to itself), keyed instances
// name their machine unless global, and bare resource keys name none.
func TestExplainQueriesCanonical(t *testing.T) {
	for _, tc := range []struct{ got, want string }{
		{keyExplainQuery("utilization", "cpu@0"), "machine=0 resource=cpu"},
		{keyExplainQuery("saturated_slices", "lock@global"), "resource=lock"},
		{keyExplainQuery("bottleneck_seconds", "net-in"), "resource=net-in"},
		{baselineExplainQuery(BaselineCond{PhasePath: "/pr/load", Quantity: "duration"}), "phase=/pr/load"},
		{baselineExplainQuery(BaselineCond{PhasePath: "/pr/load", Machine: 2, HasMachine: true,
			Resource: "cpu", Quantity: "attributed"}), "phase=/pr/load machine=2 resource=cpu"},
	} {
		if tc.got != tc.want {
			t.Errorf("explain query = %q, want %q", tc.got, tc.want)
		}
		if q, err := explain.ParseQuery(tc.got); err != nil || q.String() != tc.got {
			t.Errorf("explain query %q reparses as %q, %v", tc.got, q.String(), err)
		}
	}
	if q := keyExplainQuery("events", "cpu@0"); q != "" {
		t.Errorf("unkeyed metric got explain query %q", q)
	}
}
