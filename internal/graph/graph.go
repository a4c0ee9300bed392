// Package graph provides the in-memory graph representation used by
// every other Hourglass component: a compact CSR (compressed sparse
// row) structure, a mutable builder, deterministic synthetic
// generators, text/binary IO, and the registry of benchmark datasets
// from Table 2 of the paper.
package graph

import (
	"fmt"
	"sort"
)

// VertexID identifies a vertex. Graphs are always contiguously numbered
// [0, NumVertices).
type VertexID = int32

// Edge is a directed edge with an optional weight. Undirected graphs
// store both directions.
type Edge struct {
	Src, Dst VertexID
	Weight   float32
}

// Graph is an immutable CSR adjacency structure. For vertex v the
// outgoing edges are adj[offsets[v]:offsets[v+1]] with parallel
// weights (nil when the graph is unweighted).
type Graph struct {
	offsets []int64
	adj     []VertexID
	weights []float32 // nil for unweighted graphs
	// undirected records whether the builder mirrored every edge, which
	// lets metrics (edge cut, volume) avoid double counting.
	undirected bool
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of stored directed arcs. For a graph
// built undirected this is twice the number of logical edges.
func (g *Graph) NumEdges() int64 { return int64(len(g.adj)) }

// NumLogicalEdges returns the number of logical edges: arcs for a
// directed graph, arc pairs for an undirected one.
func (g *Graph) NumLogicalEdges() int64 {
	if g.undirected {
		return int64(len(g.adj)) / 2
	}
	return int64(len(g.adj))
}

// Undirected reports whether every edge was mirrored at build time.
func (g *Graph) Undirected() bool { return g.undirected }

// Weighted reports whether edges carry weights.
func (g *Graph) Weighted() bool { return g.weights != nil }

// Degree returns the out-degree of v.
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the adjacency slice of v. The slice aliases the
// graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// EdgeWeights returns the weights parallel to Neighbors(v), or nil for
// an unweighted graph.
func (g *Graph) EdgeWeights(v VertexID) []float32 {
	if g.weights == nil {
		return nil
	}
	return g.weights[g.offsets[v]:g.offsets[v+1]]
}

// ForEachEdge calls fn for every stored arc. Iteration is in CSR order:
// sorted by source, then by insertion order of the builder.
func (g *Graph) ForEachEdge(fn func(src, dst VertexID, w float32)) {
	n := VertexID(g.NumVertices())
	for v := VertexID(0); v < n; v++ {
		start, end := g.offsets[v], g.offsets[v+1]
		for i := start; i < end; i++ {
			w := float32(1)
			if g.weights != nil {
				w = g.weights[i]
			}
			fn(v, g.adj[i], w)
		}
	}
}

// SizeBytes estimates the in-memory footprint of the CSR arrays. The
// loader cost model charges this many bytes for moving the graph.
func (g *Graph) SizeBytes() int64 {
	b := int64(len(g.offsets))*8 + int64(len(g.adj))*4
	if g.weights != nil {
		b += int64(len(g.weights)) * 4
	}
	return b
}

// MaxDegree returns the largest out-degree in the graph (0 for an
// empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(VertexID(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the mean out-degree.
func (g *Graph) AvgDegree() float64 {
	if g.NumVertices() == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(g.NumVertices())
}

// String summarises the graph.
func (g *Graph) String() string {
	kind := "directed"
	if g.undirected {
		kind = "undirected"
	}
	return fmt.Sprintf("graph{%s |V|=%d |E|=%d}", kind, g.NumVertices(), g.NumLogicalEdges())
}

// Builder accumulates edges and produces an immutable Graph. The zero
// value is not usable; call NewBuilder.
type Builder struct {
	n          int
	edges      []Edge
	undirected bool
	weighted   bool
	dedup      bool
	dropLoops  bool
}

// BuilderOption configures a Builder.
type BuilderOption func(*Builder)

// Undirected mirrors every added edge so the CSR stores both arcs.
func Undirected() BuilderOption { return func(b *Builder) { b.undirected = true } }

// Weighted keeps per-edge weights; without it weights are dropped.
func Weighted() BuilderOption { return func(b *Builder) { b.weighted = true } }

// Dedup removes parallel edges (keeping the first occurrence's weight).
func Dedup() BuilderOption { return func(b *Builder) { b.dedup = true } }

// DropSelfLoops removes self loops at build time.
func DropSelfLoops() BuilderOption { return func(b *Builder) { b.dropLoops = true } }

// NewBuilder creates a builder for a graph with n vertices.
func NewBuilder(n int, opts ...BuilderOption) *Builder {
	b := &Builder{n: n}
	for _, o := range opts {
		o(b)
	}
	return b
}

// AddEdge records an arc src→dst (plus dst→src when undirected).
func (b *Builder) AddEdge(src, dst VertexID, w float32) {
	if src < 0 || int(src) >= b.n || dst < 0 || int(dst) >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", src, dst, b.n))
	}
	b.edges = append(b.edges, Edge{src, dst, w})
}

// Build freezes the builder into a CSR graph. The builder can be
// reused afterwards but the accumulated edges are retained.
func (b *Builder) Build() *Graph {
	edges := b.edges
	if b.dropLoops {
		kept := edges[:0:0]
		for _, e := range edges {
			if e.Src != e.Dst {
				kept = append(kept, e)
			}
		}
		edges = kept
	}
	if b.undirected {
		mirrored := make([]Edge, 0, 2*len(edges))
		for _, e := range edges {
			mirrored = append(mirrored, e, Edge{e.Dst, e.Src, e.Weight})
		}
		edges = mirrored
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].Src != edges[j].Src {
			return edges[i].Src < edges[j].Src
		}
		return edges[i].Dst < edges[j].Dst
	})
	if b.dedup {
		kept := edges[:0:0]
		for i, e := range edges {
			if i > 0 && e.Src == edges[i-1].Src && e.Dst == edges[i-1].Dst {
				continue
			}
			kept = append(kept, e)
		}
		edges = kept
	}

	g := &Graph{
		offsets:    make([]int64, b.n+1),
		adj:        make([]VertexID, len(edges)),
		undirected: b.undirected,
	}
	if b.weighted {
		g.weights = make([]float32, len(edges))
	}
	for _, e := range edges {
		g.offsets[e.Src+1]++
	}
	for v := 0; v < b.n; v++ {
		g.offsets[v+1] += g.offsets[v]
	}
	cursor := make([]int64, b.n)
	for _, e := range edges {
		pos := g.offsets[e.Src] + cursor[e.Src]
		g.adj[pos] = e.Dst
		if g.weights != nil {
			g.weights[pos] = e.Weight
		}
		cursor[e.Src]++
	}
	return g
}

// FromEdges is a convenience constructor building a graph directly
// from an edge slice.
func FromEdges(n int, edges []Edge, opts ...BuilderOption) *Graph {
	b := NewBuilder(n, opts...)
	for _, e := range edges {
		b.AddEdge(e.Src, e.Dst, e.Weight)
	}
	return b.Build()
}

// InducedQuotient contracts the graph according to the given vertex
// assignment into k super-vertices. The result is a weighted directed
// multigraph collapsed to simple form: an arc between two distinct
// blocks carries weight = sum of crossing arc weights, and vertex
// weights (returned separately) count the member vertices of each
// block. Self-arcs (intra-block edges) are dropped. This is the
// "reduced graph" of the paper's Figure 4.
func (g *Graph) InducedQuotient(assign []int32, k int) (*Graph, []int64) {
	if len(assign) != g.NumVertices() {
		panic("graph: assignment length mismatch")
	}
	vertexWeights := make([]int64, k)
	for _, blk := range assign {
		vertexWeights[blk]++
	}
	type arc struct{ a, b int32 }
	cross := make(map[arc]float64)
	g.ForEachEdge(func(src, dst VertexID, w float32) {
		bs, bd := assign[src], assign[dst]
		if bs == bd {
			return
		}
		cross[arc{bs, bd}] += float64(w)
	})
	b := NewBuilder(k, Weighted())
	for a, w := range cross {
		b.AddEdge(a.a, a.b, float32(w))
	}
	q := b.Build()
	q.undirected = g.undirected
	return q, vertexWeights
}
