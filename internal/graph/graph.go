// Package graph provides compressed sparse row (CSR) graphs, deterministic
// synthetic generators standing in for the Graphalytics datasets used by the
// paper, and the partitioners the two simulated engines rely on: hash-based
// edge-cut (Giraph-like BSP) and greedy vertex-cut (PowerGraph-like GAS).
package graph

import (
	"fmt"
	"sort"
)

// Vertex is a vertex identifier.
type Vertex = uint32

// Edge is a directed edge.
type Edge struct {
	Src, Dst Vertex
}

// Graph is an immutable directed graph in CSR form, with both out- and
// in-adjacency for algorithms that traverse in either direction.
type Graph struct {
	n      int
	outOff []int64
	outAdj []Vertex
	inOff  []int64
	inAdj  []Vertex
}

// NumVertices returns the number of vertices. Vertex identifiers are
// 0..NumVertices-1.
func (g *Graph) NumVertices() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.outAdj)) }

// OutNeighbors returns the out-neighbors of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) OutNeighbors(v Vertex) []Vertex {
	return g.outAdj[g.outOff[v]:g.outOff[v+1]]
}

// InNeighbors returns the in-neighbors of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) InNeighbors(v Vertex) []Vertex {
	return g.inAdj[g.inOff[v]:g.inOff[v+1]]
}

// OutDegree returns the out-degree of v.
func (g *Graph) OutDegree(v Vertex) int { return int(g.outOff[v+1] - g.outOff[v]) }

// InDegree returns the in-degree of v.
func (g *Graph) InDegree(v Vertex) int { return int(g.inOff[v+1] - g.inOff[v]) }

// Edges calls fn for every directed edge in CSR order (sorted by source,
// then destination). The edge index passed to fn is stable and matches the
// ordering used by vertex-cut partition assignments.
func (g *Graph) Edges(fn func(i int64, e Edge)) {
	var i int64
	for v := 0; v < g.n; v++ {
		for _, w := range g.OutNeighbors(Vertex(v)) {
			fn(i, Edge{Vertex(v), w})
			i++
		}
	}
}

// EdgeSource returns the source vertex of the edge with CSR index i.
func (g *Graph) EdgeSource(i int64) Vertex {
	// Binary search over the offset array.
	v := sort.Search(g.n, func(v int) bool { return g.outOff[v+1] > i })
	return Vertex(v)
}

// EdgeDst returns the destination vertex of the edge with CSR index i.
func (g *Graph) EdgeDst(i int64) Vertex { return g.outAdj[i] }

// Builder accumulates edges and produces a Graph. Duplicate edges are kept
// unless deduplication is requested; self-loops are kept (graph algorithms in
// this repository tolerate them).
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	if n <= 0 {
		panic("graph: builder needs at least one vertex")
	}
	return &Builder{n: n}
}

// AddEdge records a directed edge. It panics on out-of-range endpoints so
// generator bugs surface at insertion, not at traversal.
func (b *Builder) AddEdge(src, dst Vertex) {
	if int(src) >= b.n || int(dst) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range for %d vertices", src, dst, b.n))
	}
	b.edges = append(b.edges, Edge{src, dst})
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build produces the CSR graph. If dedup is true, duplicate edges are
// collapsed.
func (b *Builder) Build(dedup bool) *Graph {
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].Src != b.edges[j].Src {
			return b.edges[i].Src < b.edges[j].Src
		}
		return b.edges[i].Dst < b.edges[j].Dst
	})
	edges := b.edges
	if dedup && len(edges) > 0 {
		out := edges[:1]
		for _, e := range edges[1:] {
			if e != out[len(out)-1] {
				out = append(out, e)
			}
		}
		edges = out
	}

	g := &Graph{
		n:      b.n,
		outOff: make([]int64, b.n+1),
		outAdj: make([]Vertex, len(edges)),
		inOff:  make([]int64, b.n+1),
		inAdj:  make([]Vertex, len(edges)),
	}
	for _, e := range edges {
		g.outOff[e.Src+1]++
		g.inOff[e.Dst+1]++
	}
	for v := 0; v < b.n; v++ {
		g.outOff[v+1] += g.outOff[v]
		g.inOff[v+1] += g.inOff[v]
	}
	for i, e := range edges {
		g.outAdj[i] = e.Dst
	}
	// Fill in-adjacency with a counting pass; sources arrive in sorted order,
	// so each in-neighbor list ends up sorted as well.
	next := make([]int64, b.n)
	copy(next, g.inOff[:b.n])
	for _, e := range edges {
		g.inAdj[next[e.Dst]] = e.Src
		next[e.Dst]++
	}
	return g
}

// FromEdges builds a graph directly from an edge slice; a convenience for
// tests.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst)
	}
	return b.Build(false)
}
