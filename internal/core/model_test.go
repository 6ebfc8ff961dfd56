package core

import (
	"strings"
	"testing"
)

func buildBSPModel(t *testing.T) *ExecutionModel {
	t.Helper()
	root := NewRootType("app")
	root.Child("load", false)
	exec := root.Child("execute", false, "load")
	ss := exec.Child("superstep", true)
	worker := ss.Child("worker", true)
	worker.Child("compute", false)
	worker.Child("communicate", false)
	ss.Child("barrier", false, "worker")
	root.Child("write", false, "execute")
	m, err := NewExecutionModel(root)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExecutionModelPathsAndLookup(t *testing.T) {
	m := buildBSPModel(t)
	pt := m.Lookup("/app/execute/superstep/worker/compute")
	if pt == nil || pt.Name != "compute" || !pt.IsLeaf() {
		t.Fatalf("lookup failed: %+v", pt)
	}
	if pt.Path() != "/app/execute/superstep/worker/compute" {
		t.Fatalf("path = %q", pt.Path())
	}
	if got := m.LookupInstance("/app/execute/superstep.3/worker.1/compute"); got != pt {
		t.Fatal("instance lookup wrong")
	}
	if m.Lookup("/app/nope") != nil {
		t.Fatal("bogus lookup succeeded")
	}
	paths := m.TypePaths()
	if len(paths) != 9 || paths[0] != "/app" {
		t.Fatalf("type paths = %v", paths)
	}
}

func TestChildIdempotentAndAccumulatesAfter(t *testing.T) {
	root := NewRootType("app")
	a := root.Child("a", false)
	b := root.Child("a", false, "x") // same name: returns a, adds edge
	if a != b {
		t.Fatal("Child not idempotent")
	}
	if len(a.After) != 1 || a.After[0] != "x" {
		t.Fatalf("After = %v", a.After)
	}
}

func TestModelRejectsUnknownAfter(t *testing.T) {
	root := NewRootType("app")
	root.Child("a", false, "ghost")
	if _, err := NewExecutionModel(root); err == nil {
		t.Fatal("unknown After sibling accepted")
	}
}

func TestModelRejectsCyclicAfter(t *testing.T) {
	root := NewRootType("app")
	root.Child("a", false, "b")
	root.Child("b", false, "a")
	if _, err := NewExecutionModel(root); err == nil {
		t.Fatal("cyclic precedence accepted")
	}
}

// A type both Sequential and SyncGroup would wait on itself in the replay:
// each instance starts after its predecessor ends, and every instance ends
// with the latest one. The model rejects it, naming the type.
func TestModelRejectsSequentialSyncGroup(t *testing.T) {
	root := NewRootType("app")
	step := root.Child("step", true)
	step.Sequential = true
	step.SyncGroup = true
	_, err := NewExecutionModel(root)
	if err == nil || !strings.Contains(err.Error(), "/app/step") {
		t.Fatalf("err = %v, want a rejection naming /app/step", err)
	}
}

func TestInvalidTypeNamePanics(t *testing.T) {
	for _, name := range []string{"", "a/b", "a.b", "a b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", name)
				}
			}()
			NewRootType(name)
		}()
	}
}

func TestResourceModel(t *testing.T) {
	m, err := NewResourceModel(
		&Resource{Name: "cpu", Kind: Consumable, Capacity: 16, PerMachine: true},
		&Resource{Name: "net-out", Kind: Consumable, Capacity: 1e9, PerMachine: true},
		&Resource{Name: "gc", Kind: Blocking, PerMachine: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	if m.Lookup("cpu") == nil || m.Lookup("disk") != nil {
		t.Fatal("lookup wrong")
	}
	if len(m.Consumables()) != 2 {
		t.Fatalf("consumables = %d", len(m.Consumables()))
	}
	if len(m.Resources()) != 3 {
		t.Fatalf("resources = %d", len(m.Resources()))
	}
}

func TestResourceModelValidation(t *testing.T) {
	if _, err := NewResourceModel(&Resource{Name: "", Kind: Blocking}); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, err := NewResourceModel(&Resource{Name: "cpu", Kind: Consumable, Capacity: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := NewResourceModel(
		&Resource{Name: "gc", Kind: Blocking},
		&Resource{Name: "gc", Kind: Blocking},
	); err == nil {
		t.Fatal("duplicate accepted")
	}
}

func TestRuleKindStrings(t *testing.T) {
	if RuleNone.String() != "none" || RuleExact.String() != "exact" || RuleVariable.String() != "variable" {
		t.Fatal("rule kind strings wrong")
	}
	if Consumable.String() != "consumable" || Blocking.String() != "blocking" {
		t.Fatal("resource kind strings wrong")
	}
}

func TestRuleSetDefaultAndOverride(t *testing.T) {
	rs := NewRuleSet()
	// Paper default: implicit Variable(1).
	r := rs.Get("/app/x", "cpu")
	if r.Kind != RuleVariable || r.Amount != 1 {
		t.Fatalf("default rule %+v", r)
	}
	if rs.Explicit("/app/x", "cpu") {
		t.Fatal("default reported explicit")
	}
	rs.Set("/app/x", "cpu", Exact(2)).
		Set("/app/x", "net-out", None()).
		Set("/app/y", "cpu", Variable(3))
	if r := rs.Get("/app/x", "cpu"); r.Kind != RuleExact || r.Amount != 2 {
		t.Fatalf("exact rule %+v", r)
	}
	if r := rs.Get("/app/x", "net-out"); r.Kind != RuleNone {
		t.Fatalf("none rule %+v", r)
	}
	if r := rs.Get("/app/y", "cpu"); r.Kind != RuleVariable || r.Amount != 3 {
		t.Fatalf("variable rule %+v", r)
	}
	if !rs.Explicit("/app/x", "cpu") {
		t.Fatal("explicit not reported")
	}
}
