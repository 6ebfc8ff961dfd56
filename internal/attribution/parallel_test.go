package attribution

import (
	"testing"

	"grade10/internal/core"
)

// equalProfiles asserts two profiles are identical in instance order and in
// every per-slice number — the determinism contract of the parallel fan-out.
func equalProfiles(t *testing.T, a, b *Profile) {
	t.Helper()
	if len(a.Instances) != len(b.Instances) {
		t.Fatalf("instance counts differ: %d vs %d", len(a.Instances), len(b.Instances))
	}
	for i := range a.Instances {
		ia, ib := a.Instances[i], b.Instances[i]
		if ia.Instance.Key() != ib.Instance.Key() {
			t.Fatalf("instance %d: key %q vs %q", i, ia.Instance.Key(), ib.Instance.Key())
		}
		eqSlice := func(what string, xs, ys []float64) {
			if len(xs) != len(ys) {
				t.Fatalf("%s %s: lengths %d vs %d", ia.Instance.Key(), what, len(xs), len(ys))
			}
			for k := range xs {
				if xs[k] != ys[k] {
					t.Fatalf("%s %s slice %d: %v vs %v", ia.Instance.Key(), what, k, xs[k], ys[k])
				}
			}
		}
		eqSlice("consumption", ia.Consumption, ib.Consumption)
		eqSlice("known", ia.KnownDemand, ib.KnownDemand)
		eqSlice("varw", ia.VariableWeight, ib.VariableWeight)
		eqSlice("unattributed", ia.Unattributed, ib.Unattributed)
		if len(ia.Usage) != len(ib.Usage) {
			t.Fatalf("%s: usage counts %d vs %d", ia.Instance.Key(), len(ia.Usage), len(ib.Usage))
		}
		for j := range ia.Usage {
			if ia.Usage[j].Phase != ib.Usage[j].Phase {
				t.Fatalf("%s usage %d: phase %q vs %q", ia.Instance.Key(), j,
					ia.Usage[j].Phase.Path, ib.Usage[j].Phase.Path)
			}
			for k := 0; k < len(ia.Consumption); k++ {
				if ia.Usage[j].Rate(k) != ib.Usage[j].Rate(k) {
					t.Fatalf("%s usage %s slice %d: %v vs %v", ia.Instance.Key(),
						ia.Usage[j].Phase.Path, k, ia.Usage[j].Rate(k), ib.Usage[j].Rate(k))
				}
			}
		}
	}
}

// TestAttributeParallelBitIdentical is the determinism guard for the
// instance fan-out: any worker count must produce exactly the serial result,
// bit for bit, because each instance is computed independently and merged in
// rt.Instances() order.
func TestAttributeParallelBitIdentical(t *testing.T) {
	f := buildFig2(t)
	serial, err := AttributeWindow(f.tr, f.tr.Leaves(), f.rt, f.rules, f.slices, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		parallel, err := AttributeWindow(f.tr, f.tr.Leaves(), f.rt, f.rules, f.slices, workers, nil)
		if err != nil {
			t.Fatal(err)
		}
		equalProfiles(t, serial, parallel)
	}
	// Profile.Get resolves the same instances in both.
	for _, name := range []string{"r1", "r2", "r3"} {
		p8, _ := AttributeWindow(f.tr, f.tr.Leaves(), f.rt, f.rules, f.slices, 8, nil)
		if p8.Get(name, core.GlobalMachine) == nil {
			t.Fatalf("parallel profile missing %s", name)
		}
	}
}
