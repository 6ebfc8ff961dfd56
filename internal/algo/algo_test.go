package algo

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"grade10/internal/graph"
)

func TestBFSChain(t *testing.T) {
	// 0→1→2→3, 4 isolated.
	g := graph.FromEdges(5, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	dist := BFS(g, 0)
	want := []int64{0, 1, 2, 3, Unreachable}
	for v, w := range want {
		if dist[v] != w {
			t.Fatalf("dist = %v", dist)
		}
	}
}

func TestBFSDiamondShortest(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}})
	dist := BFS(g, 0)
	if dist[3] != 2 {
		t.Fatalf("dist[3] = %d", dist[3])
	}
}

func TestBFSLevels(t *testing.T) {
	g := graph.FromEdges(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 2, Dst: 3}})
	levels := BFSLevels(g, 0)
	want := []int{1, 2, 1}
	if len(levels) != len(want) {
		t.Fatalf("levels = %v", levels)
	}
	for i := range want {
		if levels[i] != want[i] {
			t.Fatalf("levels = %v", levels)
		}
	}
}

func TestBFSRing(t *testing.T) {
	g := graph.Ring(16)
	dist := BFS(g, 3)
	for v := 0; v < 16; v++ {
		want := int64((v - 3 + 16) % 16)
		if dist[v] != want {
			t.Fatalf("dist[%d] = %d, want %d", v, dist[v], want)
		}
	}
}

func TestSSSPAgreesWithBFSOnUnitWeights(t *testing.T) {
	// SSSP dominated by BFS×1..8: check basic reachability agreement and
	// triangle inequality against BFS.
	g := graph.RMAT(7, 8, 3)
	bfs := BFS(g, 0)
	sssp := SSSP(g, 0)
	for v := range bfs {
		if (bfs[v] == Unreachable) != (sssp[v] == Unreachable) {
			t.Fatalf("reachability disagrees at %d: bfs=%d sssp=%d", v, bfs[v], sssp[v])
		}
		if bfs[v] != Unreachable {
			if sssp[v] < bfs[v] || sssp[v] > 8*bfs[v] {
				t.Fatalf("sssp[%d]=%d outside [bfs, 8·bfs]=[%d,%d]", v, sssp[v], bfs[v], 8*bfs[v])
			}
		}
	}
}

func TestSSSPOptimality(t *testing.T) {
	// No edge may offer an improvement at a fixed point.
	g := graph.RMAT(7, 6, 9)
	dist := SSSP(g, 1)
	g.Edges(func(_ int64, e graph.Edge) {
		if dist[e.Src] == Unreachable {
			return
		}
		if nd := dist[e.Src] + EdgeWeight(e.Src, e.Dst); nd < dist[e.Dst] {
			t.Fatalf("edge (%d,%d) relaxable: %d < %d", e.Src, e.Dst, nd, dist[e.Dst])
		}
	})
}

func TestPageRankSumsToOne(t *testing.T) {
	g := graph.RMAT(8, 8, 4)
	pr := PageRank(g, 0.85, 20)
	sum := 0.0
	for _, r := range pr {
		if r < 0 {
			t.Fatal("negative rank")
		}
		sum += r
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Fatalf("rank sum %v", sum)
	}
}

func TestPageRankUniformOnRing(t *testing.T) {
	g := graph.Ring(10)
	pr := PageRank(g, 0.85, 30)
	for v, r := range pr {
		if math.Abs(r-0.1) > 1e-9 {
			t.Fatalf("ring rank[%d] = %v", v, r)
		}
	}
}

func TestPageRankHub(t *testing.T) {
	// Star: all point to 0. Vertex 0 must far outrank the leaves.
	edges := make([]graph.Edge, 0, 9)
	for v := graph.Vertex(1); v < 10; v++ {
		edges = append(edges, graph.Edge{Src: v, Dst: 0})
	}
	g := graph.FromEdges(10, edges)
	pr := PageRank(g, 0.85, 30)
	for v := 1; v < 10; v++ {
		if pr[0] < 3*pr[v] {
			t.Fatalf("hub rank %v vs leaf %v", pr[0], pr[v])
		}
	}
}

func TestWCC(t *testing.T) {
	// Two components: {0,1,2} (directed chain) and {3,4}.
	g := graph.FromEdges(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 4, Dst: 3}})
	label := WCC(g)
	if label[0] != 0 || label[1] != 0 || label[2] != 0 {
		t.Fatalf("labels = %v", label)
	}
	if label[3] != 3 || label[4] != 3 {
		t.Fatalf("labels = %v", label)
	}
	if label[5] != 5 {
		t.Fatalf("labels = %v", label)
	}
}

// Property: WCC labels are consistent along any edge, and the label is the
// minimum vertex id of its component.
func TestWCCProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(50)
		b := graph.NewBuilder(n)
		m := rng.Intn(120)
		for i := 0; i < m; i++ {
			b.AddEdge(graph.Vertex(rng.Intn(n)), graph.Vertex(rng.Intn(n)))
		}
		g := b.Build(false)
		label := WCC(g)
		ok := true
		g.Edges(func(_ int64, e graph.Edge) {
			if label[e.Src] != label[e.Dst] {
				ok = false
			}
		})
		for v := 0; v < n; v++ {
			if label[v] > graph.Vertex(v) {
				ok = false // label must be ≤ own id (min of component)
			}
			if int(label[v]) < n && label[label[v]] != label[v] {
				ok = false // the root vertex carries its own label
			}
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDLPTwoCliques(t *testing.T) {
	// Two triangles joined by one edge: labels converge per triangle.
	g := graph.FromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 2, Dst: 1}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 3}, {Src: 4, Dst: 5}, {Src: 5, Dst: 4}, {Src: 5, Dst: 3}, {Src: 3, Dst: 5},
		{Src: 2, Dst: 3},
	})
	label := CDLP(g, 10)
	if label[0] != label[1] || label[1] != label[2] {
		t.Fatalf("triangle 1 labels = %v", label[:3])
	}
	if label[3] != label[4] || label[4] != label[5] {
		t.Fatalf("triangle 2 labels = %v", label[3:])
	}
}

func TestCDLPDeterministic(t *testing.T) {
	g := graph.Community(graph.CommunityParams{
		Vertices: 300, Communities: 6, IntraDegree: 4, InterFraction: 0.02, Seed: 5,
	})
	a := CDLP(g, 5)
	b := CDLP(g, 5)
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("CDLP nondeterministic")
		}
	}
}

func TestCDLPFindsCommunities(t *testing.T) {
	g := graph.Community(graph.CommunityParams{
		Vertices: 400, Communities: 8, IntraDegree: 5, InterFraction: 0.01, Seed: 7,
	})
	label := CDLP(g, 10)
	distinct := map[graph.Vertex]int{}
	for _, l := range label {
		distinct[l]++
	}
	// Label propagation must compress 400 vertices into far fewer labels.
	if len(distinct) > 100 {
		t.Fatalf("%d distinct labels, expected heavy compression", len(distinct))
	}
}

func TestLCCTriangle(t *testing.T) {
	// Complete directed triangle: every neighborhood fully connected → 1.0.
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 1, Dst: 2}, {Src: 2, Dst: 1}, {Src: 2, Dst: 0}, {Src: 0, Dst: 2}})
	for v, c := range LCC(g) {
		if math.Abs(c-1.0) > 1e-12 {
			t.Fatalf("lcc[%d] = %v", v, c)
		}
	}
}

func TestLCCPath(t *testing.T) {
	// Path 0-1-2 (undirected neighbors of 1 are {0,2}, no edge between them).
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	lcc := LCC(g)
	if lcc[1] != 0 {
		t.Fatalf("lcc[1] = %v", lcc[1])
	}
	if lcc[0] != 0 || lcc[2] != 0 { // degree < 2
		t.Fatalf("lcc = %v", lcc)
	}
}

func TestLCCRange(t *testing.T) {
	g := graph.RMAT(7, 8, 12)
	for v, c := range LCC(g) {
		if c < 0 || c > 1 {
			t.Fatalf("lcc[%d] = %v out of range", v, c)
		}
	}
}

func TestEdgeWeightRangeAndDeterminism(t *testing.T) {
	for i := graph.Vertex(0); i < 100; i++ {
		w := EdgeWeight(i, i*7+1)
		if w < 1 || w > 8 {
			t.Fatalf("weight %d out of range", w)
		}
		if w != EdgeWeight(i, i*7+1) {
			t.Fatal("weight not deterministic")
		}
	}
}
