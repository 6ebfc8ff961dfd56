package graph

import (
	"math/bits"
	"sort"
)

// Partition is an edge-cut partitioning: every vertex is owned by exactly one
// part and edges may cross parts (each crossing edge becomes a network
// message in the BSP engine).
type Partition struct {
	NumParts int
	owner    []uint16
}

// Owner returns the part owning vertex v.
func (p *Partition) Owner(v Vertex) int { return int(p.owner[v]) }

// PartVertices returns the vertices owned by each part.
func (p *Partition) PartVertices() [][]Vertex {
	parts := make([][]Vertex, p.NumParts)
	for v, o := range p.owner {
		parts[o] = append(parts[o], Vertex(v))
	}
	return parts
}

// HashPartition assigns vertices to k parts by multiplicative hashing of the
// vertex identifier — Giraph's default strategy. The hash decorrelates
// ownership from generator vertex numbering.
func HashPartition(g *Graph, k int) *Partition {
	if k <= 0 || k > 1<<16 {
		panic("graph: part count out of range")
	}
	p := &Partition{NumParts: k, owner: make([]uint16, g.NumVertices())}
	for v := range p.owner {
		h := uint64(v) * 0x9E3779B97F4A7C15
		h ^= h >> 32
		p.owner[v] = uint16(h % uint64(k))
	}
	return p
}

// VertexCut is a PowerGraph-style vertex-cut partitioning: every edge lives
// on exactly one part; a vertex is replicated on every part holding one of
// its edges, with one replica designated master. Mirror↔master
// synchronization traffic is proportional to the replication factor.
//
// Part count is limited to 64 so replica sets fit in one machine word.
type VertexCut struct {
	NumParts int
	// replicaMask[v] has bit p set iff vertex v has a replica on part p.
	replicaMask []uint64
	// master[v] is the part holding v's master replica.
	master []uint8
	// partEdges[p] lists the CSR edge indices owned by part p.
	partEdges [][]int64
}

// GreedyVertexCut computes a vertex-cut over k ≤ 64 parts using PowerGraph's
// greedy heuristic: place each edge on a part already holding both endpoints
// if possible, else one holding either endpoint (preferring the less loaded),
// else the least-loaded part. Edges are visited in a deterministic shuffled
// order — sequential CSR order would chain every edge of a connected graph
// onto one part — and a balance guard overrides the candidate when it is
// already far more loaded than the lightest part, mirroring the ingress
// balance constraint of the real system.
func GreedyVertexCut(g *Graph, k int) *VertexCut {
	if k <= 0 || k > 64 {
		panic("graph: vertex-cut part count must be 1..64")
	}
	n := g.NumVertices()
	vc := &VertexCut{
		NumParts:    k,
		replicaMask: make([]uint64, n),
		master:      make([]uint8, n),
		partEdges:   make([][]int64, k),
	}
	load := make([]int64, k)

	leastLoaded := func(mask uint64) int {
		best, bestLoad := -1, int64(1<<62)
		for p := 0; p < k; p++ {
			if mask&(1<<uint(p)) == 0 {
				continue
			}
			if load[p] < bestLoad {
				best, bestLoad = p, load[p]
			}
		}
		return best
	}
	allMask := uint64(1)<<uint(k) - 1
	perEdgeTarget := float64(g.NumEdges())/float64(k) + 1

	m := g.NumEdges()
	var stride int64
	if m > 0 {
		stride = permutationStride(m)
	}
	for j := int64(0); j < m; j++ {
		i := (j*stride + m/2) % m
		e := Edge{Src: g.EdgeSource(i), Dst: g.EdgeDst(i)}
		ms, md := vc.replicaMask[e.Src], vc.replicaMask[e.Dst]
		var part int
		switch {
		case ms&md != 0:
			part = leastLoaded(ms & md)
		case ms|md != 0:
			part = leastLoaded(ms | md)
		default:
			part = leastLoaded(allMask)
		}
		// Balance guard: never let the greedy choice run 25% past the even
		// share while another part is lighter.
		if float64(load[part]) > 1.25*perEdgeTarget {
			if alt := leastLoaded(allMask); load[alt] < load[part] {
				part = alt
			}
		}
		vc.replicaMask[e.Src] |= 1 << uint(part)
		vc.replicaMask[e.Dst] |= 1 << uint(part)
		load[part]++
		vc.partEdges[part] = append(vc.partEdges[part], i)
	}
	for p := range vc.partEdges {
		sortInt64s(vc.partEdges[p])
	}

	// Master = lowest-numbered replica part; isolated vertices get a master
	// by hash so they are spread evenly.
	for v := 0; v < n; v++ {
		m := vc.replicaMask[v]
		if m == 0 {
			h := uint64(v) * 0x9E3779B97F4A7C15
			p := uint8(h % uint64(k))
			vc.master[v] = p
			vc.replicaMask[v] = 1 << uint(p)
			continue
		}
		vc.master[v] = uint8(bits.TrailingZeros64(m))
	}
	return vc
}

// permutationStride returns a stride coprime to m, defining the affine
// permutation j → (j·stride + m/2) mod m used to visit edges in a
// deterministic shuffled order.
func permutationStride(m int64) int64 {
	stride := int64(2654435761) % m
	if stride <= 0 {
		stride = 1
	}
	for gcd64(stride, m) != 1 {
		stride++
		if stride >= m {
			stride = 1
		}
	}
	return stride
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func sortInt64s(a []int64) {
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
}

// Master returns the part holding v's master replica.
func (vc *VertexCut) Master(v Vertex) int { return int(vc.master[v]) }

// ReplicaParts calls fn for each part holding a replica of v.
func (vc *VertexCut) ReplicaParts(v Vertex, fn func(p int)) {
	m := vc.replicaMask[v]
	for m != 0 {
		p := bits.TrailingZeros64(m)
		fn(p)
		m &= m - 1
	}
}

// PartEdges returns the CSR edge indices owned by part p. The slice aliases
// internal storage and must not be modified.
func (vc *VertexCut) PartEdges(p int) []int64 { return vc.partEdges[p] }

// ReplicationFactor returns the mean number of replicas per vertex, the
// standard quality metric for vertex-cuts.
func (vc *VertexCut) ReplicationFactor() float64 {
	total := 0
	for v := range vc.replicaMask {
		total += bits.OnesCount64(vc.replicaMask[v])
	}
	return float64(total) / float64(len(vc.replicaMask))
}
