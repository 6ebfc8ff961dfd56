package fleet

import (
	"bytes"
	"math"
	"testing"

	"grade10/internal/explain"
	"grade10/internal/vtime"
)

const blameSlice = vtime.Duration(1e9) // 1s slices: shares come out in round numbers

// twoRunProfiles is the golden scenario: runs "a" and "b" share host h0's
// 8-core cpu. In slice 0 they demand 6+6=12 (overcommitted by 4), in slice 1
// exactly 8 (at capacity: no contention), in slice 2 only 2.
func twoRunProfiles() []*BlameProfile {
	return []*BlameProfile{
		{Run: "a", Hosts: []HostDemand{
			{Host: "h0", Resource: "cpu", Machine: 0, Capacity: 8, First: 0, Demand: []float64{6, 6, 2}},
		}},
		{Run: "b", Hosts: []HostDemand{
			{Host: "h0", Resource: "cpu", Machine: 0, Capacity: 8, First: 0, Demand: []float64{6, 2, 0}},
		}},
	}
}

func TestBlameGoldenSplit(t *testing.T) {
	rep, err := Blame(twoRunProfiles(), "a", BlameConfig{SliceWidth: blameSlice})
	if err != nil {
		t.Fatal(err)
	}
	// Slice 0: total demand 12 on capacity 8 → the slice stretches by 12/8,
	// so a loses (12-8)/12 = 1/3 of the second — all blamed on b (the only
	// other participant). Slices 1 and 2 are within capacity.
	wantContended := 1e9 / 3.0
	if !approx(rep.TotalContendedNS, wantContended) {
		t.Fatalf("contended = %g ns, want %g", rep.TotalContendedNS, wantContended)
	}
	if !approx(rep.SelfNS, 0) {
		t.Fatalf("self = %g ns, want 0", rep.SelfNS)
	}
	if len(rep.Neighbors) != 1 || rep.Neighbors[0].Run != "b" {
		t.Fatalf("neighbors = %+v, want exactly b", rep.Neighbors)
	}
	if !approx(rep.Neighbors[0].BlamedNS, wantContended) {
		t.Fatalf("blame(b) = %g ns, want %g", rep.Neighbors[0].BlamedNS, wantContended)
	}

	// Evidence points at the overcommitted slice with an explain query.
	res := rep.Neighbors[0].Resources
	if len(res) != 1 || len(res[0].Evidence) != 1 {
		t.Fatalf("evidence = %+v, want one pointer", res)
	}
	ev := res[0].Evidence[0]
	if ev.T0NS != 0 || ev.T1NS != 1e9 || ev.TargetDemand != 6 || ev.NeighborDemand != 6 {
		t.Fatalf("evidence = %+v", ev)
	}
	if want := "machine=0 resource=cpu [0ns..1000000000ns]"; ev.ExplainQuery != want {
		t.Fatalf("explain query = %q, want %q", ev.ExplainQuery, want)
	}
	if q, err := explain.ParseQuery(ev.ExplainQuery); err != nil || q.String() != ev.ExplainQuery {
		t.Fatalf("explain query %q is not canonical: reparses as %q, %v", ev.ExplainQuery, q.String(), err)
	}

	// Blame is symmetric here: b loses the same third, blamed on a.
	rev, err := Blame(twoRunProfiles(), "b", BlameConfig{SliceWidth: blameSlice})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(rev.Neighbors[0].BlamedNS, wantContended) || rev.Neighbors[0].Run != "a" {
		t.Fatalf("reverse blame = %+v", rev.Neighbors)
	}
}

// TestBlameSelfContention: the target's own second machine shares the host,
// so part of the contention is self-inflicted, and the per-slice residual
// keeps self + neighbors ≡ total exactly.
func TestBlameSelfContention(t *testing.T) {
	profiles := []*BlameProfile{
		{Run: "a", Hosts: []HostDemand{
			{Host: "h0", Resource: "cpu", Machine: 0, Capacity: 8, First: 0, Demand: []float64{6}},
			{Host: "h0", Resource: "cpu", Machine: 1, Capacity: 8, First: 0, Demand: []float64{6}},
		}},
		{Run: "b", Hosts: []HostDemand{
			{Host: "h0", Resource: "cpu", Machine: 0, Capacity: 8, First: 0, Demand: []float64{4}},
		}},
	}
	rep, err := Blame(profiles, "a", BlameConfig{SliceWidth: blameSlice})
	if err != nil {
		t.Fatal(err)
	}
	// Per target machine: total 16 on 8 → contended 0.5s; b holds 4 of the
	// other 10 units → 0.2s; the colocated sibling's 6 units are self: 0.3s.
	if !approx(rep.TotalContendedNS, 1e9) {
		t.Fatalf("contended = %g, want 1e9", rep.TotalContendedNS)
	}
	if !approx(rep.SelfNS, 0.6e9) {
		t.Fatalf("self = %g, want 0.6e9", rep.SelfNS)
	}
	if !approx(rep.Neighbors[0].BlamedNS, 0.4e9) {
		t.Fatalf("blame(b) = %g, want 0.4e9", rep.Neighbors[0].BlamedNS)
	}
	assertSharesSum(t, rep)
}

func TestBlameNoOverlapNoBlame(t *testing.T) {
	profiles := []*BlameProfile{
		{Run: "a", Hosts: []HostDemand{
			{Host: "h0", Resource: "cpu", Machine: 0, Capacity: 8, First: 0, Demand: []float64{6, 6}},
		}},
		// b overcommits a different host; c overlaps h0 but after a ended.
		{Run: "b", Hosts: []HostDemand{
			{Host: "h1", Resource: "cpu", Machine: 0, Capacity: 8, First: 0, Demand: []float64{9, 9}},
		}},
		{Run: "c", Hosts: []HostDemand{
			{Host: "h0", Resource: "cpu", Machine: 0, Capacity: 8, First: 2, Demand: []float64{8, 8}},
		}},
	}
	rep, err := Blame(profiles, "a", BlameConfig{SliceWidth: blameSlice})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalContendedNS != 0 || len(rep.Neighbors) != 0 {
		t.Fatalf("expected a clean report, got %+v", rep)
	}
	if _, err := Blame(profiles, "nope", BlameConfig{}); err == nil {
		t.Fatal("blaming an unknown run did not error")
	}
}

// TestBlameDeterministicAcrossParallelism: the report is byte-identical for
// every -parallelism, per the repo invariant.
func TestBlameDeterministicAcrossParallelism(t *testing.T) {
	// A denser scenario: 3 runs, 2 hosts, staggered overcommit.
	profiles := []*BlameProfile{
		{Run: "a", Hosts: []HostDemand{
			{Host: "h0", Resource: "cpu", Machine: 0, Capacity: 8, First: 0, Demand: []float64{7, 5, 3, 9}},
			{Host: "h1", Resource: "cpu", Machine: 1, Capacity: 8, First: 1, Demand: []float64{4, 4, 4}},
		}},
		{Run: "b", Hosts: []HostDemand{
			{Host: "h0", Resource: "cpu", Machine: 0, Capacity: 8, First: 0, Demand: []float64{3, 6, 6}},
			{Host: "h1", Resource: "cpu", Machine: 1, Capacity: 8, First: 0, Demand: []float64{2, 6, 2}},
		}},
		{Run: "c", Hosts: []HostDemand{
			{Host: "h1", Resource: "cpu", Machine: 0, Capacity: 8, First: 2, Demand: []float64{5, 5}},
		}},
	}
	var golden []byte
	for _, par := range []int{1, 2, 4, 9} {
		rep, err := Blame(profiles, "a", BlameConfig{SliceWidth: blameSlice, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		assertSharesSum(t, rep)
		var buf bytes.Buffer
		if err := WriteBlameJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = buf.Bytes()
		} else if !bytes.Equal(golden, buf.Bytes()) {
			t.Fatalf("parallelism %d changed the report:\n%s\nvs\n%s", par, golden, buf.Bytes())
		}
	}
	// Text rendering stays stable too.
	rep, _ := Blame(profiles, "a", BlameConfig{SliceWidth: blameSlice})
	var txt bytes.Buffer
	if err := WriteBlameText(&txt, rep); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(txt.Bytes(), []byte(`neighbor "b"`)) {
		t.Fatalf("text report missing neighbor b:\n%s", txt.String())
	}
}

// assertSharesSum checks the report invariant: self plus every neighbor
// share sums to the total contended time.
func assertSharesSum(t *testing.T, rep *BlameReport) {
	t.Helper()
	sum := rep.SelfNS
	for _, nb := range rep.Neighbors {
		sum += nb.BlamedNS
		var rsum float64
		for _, rb := range nb.Resources {
			rsum += rb.BlamedNS
		}
		if !approx(rsum, nb.BlamedNS) {
			t.Fatalf("neighbor %s resources sum to %g, not %g", nb.Run, rsum, nb.BlamedNS)
		}
	}
	if math.Abs(sum-rep.TotalContendedNS) > 1e-6*math.Max(1, rep.TotalContendedNS) {
		t.Fatalf("self %g + neighbors = %g, want total %g", rep.SelfNS, sum, rep.TotalContendedNS)
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) <= 1e-6*math.Max(1, math.Abs(b)) }
