package vertexprog

import (
	"math"
	"testing"

	"grade10/internal/algo"
	"grade10/internal/graph"
)

// drive runs a program to completion and returns final values plus the
// per-step active counts.
func drive(t *testing.T, p Program) ([]float64, []int) {
	t.Helper()
	var actives []int
	for s := 0; s < p.MaxSteps(); s++ {
		step := p.Advance(s)
		actives = append(actives, len(step.Active))
		if step.Halt {
			return p.Values(), actives
		}
	}
	t.Fatalf("%s did not halt within MaxSteps", p.Name())
	return nil, nil
}

func testGraph() *graph.Graph { return graph.RMAT(8, 8, 21) }

func TestPageRankMatchesReference(t *testing.T) {
	g := testGraph()
	vals, actives := drive(t, NewPageRank(g, 0.85, 12))
	want := algo.PageRank(g, 0.85, 12)
	for v := range want {
		if math.Abs(vals[v]-want[v]) > 1e-12 {
			t.Fatalf("rank[%d] = %v, want %v", v, vals[v], want[v])
		}
	}
	if len(actives) != 12 {
		t.Fatalf("%d steps", len(actives))
	}
	for _, a := range actives {
		if a != g.NumVertices() {
			t.Fatalf("PageRank step active %d", a)
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	g := testGraph()
	vals, actives := drive(t, NewBFS(g, 0))
	want := algo.BFS(g, 0)
	for v := range want {
		if want[v] == algo.Unreachable {
			if !math.IsInf(vals[v], 1) {
				t.Fatalf("dist[%d] = %v, want +Inf", v, vals[v])
			}
			continue
		}
		if vals[v] != float64(want[v]) {
			t.Fatalf("dist[%d] = %v, want %d", v, vals[v], want[v])
		}
	}
	// Frontier sizes must match the reference level sizes.
	levels := algo.BFSLevels(g, 0)
	for i, l := range levels {
		if i >= len(actives) {
			break
		}
		if actives[i] != l {
			t.Fatalf("step %d active %d, want frontier %d", i, actives[i], l)
		}
	}
}

func TestSSSPMatchesReference(t *testing.T) {
	g := testGraph()
	vals, _ := drive(t, NewSSSP(g, 3))
	want := algo.SSSP(g, 3)
	for v := range want {
		if want[v] == algo.Unreachable {
			if !math.IsInf(vals[v], 1) {
				t.Fatalf("dist[%d] = %v, want +Inf", v, vals[v])
			}
			continue
		}
		if vals[v] != float64(want[v]) {
			t.Fatalf("dist[%d] = %v, want %d", v, vals[v], want[v])
		}
	}
}

func TestWCCMatchesReference(t *testing.T) {
	g := testGraph()
	vals, actives := drive(t, NewWCC(g))
	want := algo.WCC(g)
	for v := range want {
		if vals[v] != float64(want[v]) {
			t.Fatalf("label[%d] = %v, want %d", v, vals[v], want[v])
		}
	}
	// Activity must shrink as labels converge.
	if len(actives) < 2 {
		t.Fatalf("%d steps", len(actives))
	}
	if actives[len(actives)-1] != 0 && actives[len(actives)-1] >= actives[0] {
		t.Fatalf("activity did not shrink: %v", actives)
	}
}

func TestCDLPMatchesReference(t *testing.T) {
	g := graph.Community(graph.CommunityParams{
		Vertices: 500, Communities: 10, IntraDegree: 4, InterFraction: 0.03, Seed: 9,
	})
	const iters = 6
	vals, actives := drive(t, NewCDLP(g, iters))
	want := algo.CDLP(g, iters)
	for v := range want {
		if vals[v] != float64(want[v]) {
			t.Fatalf("label[%d] = %v, want %d", v, vals[v], want[v])
		}
	}
	if len(actives) != iters {
		t.Fatalf("%d steps", len(actives))
	}
}

func TestStepDirections(t *testing.T) {
	g := graph.Ring(8)
	pr := NewPageRank(g, 0.85, 1).Advance(0)
	if !pr.OutMessages || pr.InMessages {
		t.Fatal("PageRank directions wrong")
	}
	wcc := NewWCC(g).Advance(0)
	if !wcc.OutMessages || !wcc.InMessages {
		t.Fatal("WCC directions wrong")
	}
	cdlp := NewCDLP(g, 2).Advance(0)
	if !cdlp.OutMessages || !cdlp.InMessages {
		t.Fatal("CDLP directions wrong")
	}
}

func TestBFSUnreachableHaltsEarly(t *testing.T) {
	// Star pointing inward: from leaf 1 only vertex 0 is reachable.
	g := graph.FromEdges(4, []graph.Edge{{Src: 1, Dst: 0}, {Src: 2, Dst: 0}, {Src: 3, Dst: 0}})
	p := NewBFS(g, 1)
	steps := 0
	for s := 0; s < p.MaxSteps(); s++ {
		steps++
		if p.Advance(s).Halt {
			break
		}
	}
	if steps > 2 {
		t.Fatalf("BFS took %d steps", steps)
	}
}

func TestProgramNames(t *testing.T) {
	g := graph.Ring(4)
	names := map[string]Program{
		"pagerank": NewPageRank(g, 0.85, 1),
		"bfs":      NewBFS(g, 0),
		"sssp":     NewSSSP(g, 0),
		"wcc":      NewWCC(g),
		"cdlp":     NewCDLP(g, 1),
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("name %q, want %q", p.Name(), want)
		}
		if p.Graph() != g {
			t.Errorf("%s: Graph() wrong", want)
		}
	}
}
