package graph

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashPartitionCoversAndBalances(t *testing.T) {
	g := RMAT(10, 8, 1)
	p := HashPartition(g, 8)
	var sizes []int
	for _, vs := range p.PartVertices() {
		sizes = append(sizes, len(vs))
	}
	if len(sizes) != 8 {
		t.Fatalf("%d parts", len(sizes))
	}
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != g.NumVertices() {
		t.Fatalf("sizes sum %d, want %d", total, g.NumVertices())
	}
	// Hash partitioning should be within 2x of perfectly balanced.
	per := g.NumVertices() / 8
	for i, s := range sizes {
		if s < per/2 || s > per*2 {
			t.Fatalf("part %d size %d far from balanced %d", i, s, per)
		}
	}
}

func TestPartVerticesConsistent(t *testing.T) {
	g := Ring(20)
	p := HashPartition(g, 4)
	for part, vs := range p.PartVertices() {
		for _, v := range vs {
			if p.Owner(v) != part {
				t.Fatalf("vertex %d listed under part %d but owned by %d", v, part, p.Owner(v))
			}
		}
	}
}

func TestGreedyVertexCutInvariants(t *testing.T) {
	g := RMAT(9, 8, 2)
	vc := GreedyVertexCut(g, 8)

	// Every edge is on exactly one part, and both endpoints have a replica
	// there.
	edgeTotal := int64(0)
	listedOn := make([]int, g.NumEdges())
	for i := range listedOn {
		listedOn[i] = -1
	}
	for p := 0; p < 8; p++ {
		edgeTotal += int64(len(vc.PartEdges(p)))
		for _, i := range vc.PartEdges(p) {
			if listedOn[i] != -1 {
				t.Fatalf("edge %d listed on part %d and on part %d", i, listedOn[i], p)
			}
			listedOn[i] = p
			src, dst := g.EdgeSource(i), g.EdgeDst(i)
			if !hasReplica(vc, src, p) || !hasReplica(vc, dst, p) {
				t.Fatalf("edge %d endpoints lack replica on part %d", i, p)
			}
		}
	}
	if edgeTotal != g.NumEdges() {
		t.Fatalf("edge coverage %d, want %d", edgeTotal, g.NumEdges())
	}

	// Masters are replicas; every vertex has ≥1 replica.
	for v := 0; v < g.NumVertices(); v++ {
		if replicas(vc, Vertex(v)) < 1 {
			t.Fatalf("vertex %d has no replicas", v)
		}
		if !hasReplica(vc, Vertex(v), vc.Master(Vertex(v))) {
			t.Fatalf("vertex %d master %d is not a replica", v, vc.Master(Vertex(v)))
		}
	}

	// Replication factor must be sane: ≥1 and well below the part count.
	rf := vc.ReplicationFactor()
	if rf < 1 || rf > 8 {
		t.Fatalf("replication factor %v", rf)
	}
}

func TestGreedyVertexCutBeatsRandomOnReplication(t *testing.T) {
	g := RMAT(9, 8, 2)
	greedy := GreedyVertexCut(g, 8)

	// Random edge placement baseline.
	rng := rand.New(rand.NewSource(99))
	replica := make([]uint64, g.NumVertices())
	g.Edges(func(i int64, e Edge) {
		p := uint(rng.Intn(8))
		replica[e.Src] |= 1 << p
		replica[e.Dst] |= 1 << p
	})
	total := 0
	for _, m := range replica {
		for ; m != 0; m &= m - 1 {
			total++
		}
	}
	randomRF := float64(total) / float64(g.NumVertices())
	if greedy.ReplicationFactor() >= randomRF {
		t.Fatalf("greedy RF %.3f not better than random RF %.3f",
			greedy.ReplicationFactor(), randomRF)
	}
}

func TestReplicaPartsEnumeration(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	vc := GreedyVertexCut(g, 2)
	for v := 0; v < 3; v++ {
		count := 0
		vc.ReplicaParts(Vertex(v), func(p int) {
			if !hasReplica(vc, Vertex(v), p) {
				t.Fatalf("enumerated non-replica part %d for %d", p, v)
			}
			count++
		})
		if count != replicas(vc, Vertex(v)) {
			t.Fatalf("vertex %d: enumerated %d, replica mask holds %d", v, count, replicas(vc, Vertex(v)))
		}
	}
}

// Property: vertex-cut invariants hold for random graphs and part counts.
func TestVertexCutProperty(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		k := int(kRaw%8) + 1
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(50)
		b := NewBuilder(n)
		m := rng.Intn(300)
		for i := 0; i < m; i++ {
			b.AddEdge(Vertex(rng.Intn(n)), Vertex(rng.Intn(n)))
		}
		g := b.Build(false)
		vc := GreedyVertexCut(g, k)
		covered := int64(0)
		for p := 0; p < k; p++ {
			covered += int64(len(vc.PartEdges(p)))
		}
		if covered != g.NumEdges() {
			return false
		}
		for v := 0; v < n; v++ {
			if replicas(vc, Vertex(v)) < 1 || !hasReplica(vc, Vertex(v), vc.Master(Vertex(v))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionPanics(t *testing.T) {
	g := Ring(4)
	for _, fn := range []func(){
		func() { HashPartition(g, 0) },
		func() { GreedyVertexCut(g, 0) },
		func() { GreedyVertexCut(g, 65) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestGreedyVertexCutEmptyGraph(t *testing.T) {
	// No edges at all: every vertex still gets a hash-spread master.
	b := NewBuilder(8)
	g := b.Build(false)
	vc := GreedyVertexCut(g, 4)
	if vc.ReplicationFactor() != 1 {
		t.Fatalf("replication factor %v", vc.ReplicationFactor())
	}
	for v := 0; v < 8; v++ {
		if replicas(vc, Vertex(v)) != 1 {
			t.Fatalf("vertex %d replicas %d", v, replicas(vc, Vertex(v)))
		}
	}
}

// hasReplica reads part p's bit of v's replica mask.
func hasReplica(vc *VertexCut, v Vertex, p int) bool {
	return vc.replicaMask[v]&(1<<uint(p)) != 0
}

// replicas counts the parts in v's replica mask.
func replicas(vc *VertexCut, v Vertex) int {
	return bits.OnesCount64(vc.replicaMask[v])
}
