package graph

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func diamond() *Graph {
	// 0→1, 0→2, 1→3, 2→3, 3→0
	return FromEdges(4, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 0}})
}

func TestCSRBasics(t *testing.T) {
	g := diamond()
	if g.NumVertices() != 4 || g.NumEdges() != 5 {
		t.Fatalf("size %d/%d", g.NumVertices(), g.NumEdges())
	}
	if got := g.OutNeighbors(0); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("out(0) = %v", got)
	}
	if got := g.InNeighbors(3); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("in(3) = %v", got)
	}
	if g.OutDegree(3) != 1 || g.InDegree(0) != 1 || g.OutDegree(0)+g.InDegree(0) != 3 {
		t.Fatal("degrees wrong")
	}
}

func TestEdgesIterationOrderAndIndex(t *testing.T) {
	g := diamond()
	var idx []int64
	var edges []Edge
	g.Edges(func(i int64, e Edge) {
		idx = append(idx, i)
		edges = append(edges, e)
	})
	if len(edges) != 5 {
		t.Fatalf("%d edges", len(edges))
	}
	for i := range idx {
		if idx[i] != int64(i) {
			t.Fatalf("index sequence %v", idx)
		}
		if src := g.EdgeSource(idx[i]); src != edges[i].Src {
			t.Fatalf("EdgeSource(%d) = %d, want %d", idx[i], src, edges[i].Src)
		}
		if dst := g.EdgeDst(idx[i]); dst != edges[i].Dst {
			t.Fatalf("EdgeDst(%d) = %d, want %d", idx[i], dst, edges[i].Dst)
		}
	}
	if !sort.SliceIsSorted(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	}) {
		t.Fatalf("edges not in CSR order: %v", edges)
	}
}

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	if g := b.Build(true); g.NumEdges() != 2 {
		t.Fatalf("dedup kept %d edges", g.NumEdges())
	}
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

// Property: in-degree sum equals out-degree sum equals edge count, and
// adjacency is consistent between directions.
func TestDegreeConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(60)
		m := rng.Intn(200)
		b := NewBuilder(n)
		for i := 0; i < m; i++ {
			b.AddEdge(Vertex(rng.Intn(n)), Vertex(rng.Intn(n)))
		}
		g := b.Build(false)
		sumOut, sumIn := 0, 0
		for v := 0; v < n; v++ {
			sumOut += g.OutDegree(Vertex(v))
			sumIn += g.InDegree(Vertex(v))
		}
		if int64(sumOut) != g.NumEdges() || int64(sumIn) != g.NumEdges() {
			return false
		}
		// Every out-edge appears as an in-edge.
		count := map[Edge]int{}
		g.Edges(func(_ int64, e Edge) { count[e]++ })
		for v := 0; v < n; v++ {
			for _, u := range g.InNeighbors(Vertex(v)) {
				count[Edge{u, Vertex(v)}]--
			}
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRMATDeterministicAndSized(t *testing.T) {
	g1 := RMAT(8, 8, 42)
	g2 := RMAT(8, 8, 42)
	if g1.NumEdges() != g2.NumEdges() {
		t.Fatal("RMAT not deterministic")
	}
	var e1, e2 []Edge
	g1.Edges(func(_ int64, e Edge) { e1 = append(e1, e) })
	g2.Edges(func(_ int64, e Edge) { e2 = append(e2, e) })
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatal("RMAT edges differ across runs")
		}
	}
	if g1.NumVertices() != 256 {
		t.Fatalf("vertices %d", g1.NumVertices())
	}
	// Dedup reduces the count but most edges must survive.
	if g1.NumEdges() < 256*4 {
		t.Fatalf("too few edges: %d", g1.NumEdges())
	}
	if g3 := RMAT(8, 8, 43); func() bool {
		if g3.NumEdges() != g1.NumEdges() {
			return false
		}
		same := true
		var e3 []Edge
		g3.Edges(func(_ int64, e Edge) { e3 = append(e3, e) })
		for i := range e1 {
			if e1[i] != e3[i] {
				same = false
			}
		}
		return same
	}() {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestRMATSkew(t *testing.T) {
	g := RMAT(10, 16, 7)
	// R-MAT graphs are heavy-tailed: the max degree should far exceed the
	// average degree.
	avg := float64(g.NumEdges()) / float64(g.NumVertices())
	maxD := 0
	for v := 0; v < g.NumVertices(); v++ {
		maxD = max(maxD, g.OutDegree(Vertex(v)))
	}
	if float64(maxD) < 4*avg {
		t.Fatalf("max degree %d not skewed vs avg %.1f", maxD, avg)
	}
}

func TestCommunityGenerator(t *testing.T) {
	g := Community(CommunityParams{
		Vertices: 1000, Communities: 20, IntraDegree: 4,
		InterFraction: 0.05, Seed: 11,
	})
	if g.NumVertices() != 1000 {
		t.Fatalf("vertices %d", g.NumVertices())
	}
	if g.NumEdges() < 3000 {
		t.Fatalf("edges %d too few", g.NumEdges())
	}
	// Determinism.
	g2 := Community(CommunityParams{
		Vertices: 1000, Communities: 20, IntraDegree: 4,
		InterFraction: 0.05, Seed: 11,
	})
	if g.NumEdges() != g2.NumEdges() {
		t.Fatal("community generator not deterministic")
	}
}

func TestRingAndErdosRenyi(t *testing.T) {
	r := Ring(10)
	if r.NumEdges() != 10 {
		t.Fatalf("ring edges %d", r.NumEdges())
	}
	for v := 0; v < 10; v++ {
		if out := r.OutNeighbors(Vertex(v)); len(out) != 1 || out[0] != Vertex((v+1)%10) {
			t.Fatalf("ring out(%d) = %v", v, out)
		}
	}
	er := ErdosRenyi(100, 500, 3)
	if er.NumVertices() != 100 || er.NumEdges() == 0 {
		t.Fatal("ER generator broken")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := RMAT(6, 4, 5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices() != g.NumVertices() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip size %d/%d vs %d/%d",
			back.NumVertices(), back.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	var a, b []Edge
	g.Edges(func(_ int64, e Edge) { a = append(a, e) })
	back.Edges(func(_ int64, e Edge) { b = append(b, e) })
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("edges differ after round trip")
		}
	}
}

func TestReadEdgeListNoHeader(t *testing.T) {
	g, err := ReadEdgeList(bytes.NewBufferString("0 1\n1 2\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("size %d/%d", g.NumVertices(), g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	if _, err := ReadEdgeList(bytes.NewBufferString("0\n")); err == nil {
		t.Fatal("missing dst accepted")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("a b\n")); err == nil {
		t.Fatal("non-numeric accepted")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("# 2 1\n0 5\n")); err == nil {
		t.Fatal("out-of-range vertex accepted")
	}
	if _, err := ReadEdgeList(bytes.NewBufferString("")); err == nil {
		t.Fatal("empty input accepted")
	}
}
