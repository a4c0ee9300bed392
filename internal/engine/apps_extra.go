package engine

import (
	"encoding/binary"
	"fmt"

	"hourglass/internal/graph"
)

// LabelPropagation is a community-detection program (the recurrent
// analysis that motivates the paper's cost argument in §1): each
// vertex repeatedly adopts the most frequent label among its
// neighbours, breaking ties toward the smaller label. Runs for a fixed
// number of rounds (the algorithm is not guaranteed to converge on
// bipartite-ish structures, so a bound is standard practice).
type LabelPropagation struct {
	Rounds int // 0 = 20
}

// Name implements Program.
func (l *LabelPropagation) Name() string { return "labelprop" }

func (l *LabelPropagation) rounds() int {
	if l.Rounds == 0 {
		return 20
	}
	return l.Rounds
}

// Init implements Program: every vertex starts in its own community.
func (l *LabelPropagation) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	return float64(v), true
}

// Compute implements Program.
func (l *LabelPropagation) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	if ctx.Superstep() > 0 {
		best, bestCount := ctx.Value(v), 0
		counts := map[float64]int{}
		for _, m := range msgs {
			counts[m]++
			c := counts[m]
			if c > bestCount || (c == bestCount && m < best) {
				best, bestCount = m, c
			}
		}
		if bestCount > 0 {
			ctx.SetValue(v, best)
		}
	}
	if ctx.Superstep() < l.rounds() {
		ctx.SendToNeighbors(v, ctx.Value(v))
	} else {
		ctx.VoteToHalt(v)
	}
}

// Communities returns the distinct labels in a result.
func Communities(values []float64) int {
	set := map[float64]bool{}
	for _, v := range values {
		set[v] = true
	}
	return len(set)
}

// KCore computes membership of the k-core for a fixed K: the maximal
// subgraph in which every vertex has degree ≥ K. Iterative peeling: a
// vertex whose count of surviving neighbours drops below K leaves the
// core and notifies its neighbours. Vertex value = 1 if the vertex is
// in the K-core, else 0. Coreness of every vertex can be obtained by
// sweeping K (see CorenessSweep).
type KCore struct {
	K int

	remaining []int32
	alive     []bool
}

// Name implements Program.
func (c *KCore) Name() string { return "kcore" }

// Init implements Program.
func (c *KCore) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	return 1, true
}

// InitAux implements VertexAux (per-vertex survival bookkeeping).
func (c *KCore) InitAux(g *graph.Graph) {
	n := g.NumVertices()
	c.remaining = make([]int32, n)
	c.alive = make([]bool, n)
	for v := 0; v < n; v++ {
		c.remaining[v] = int32(g.Degree(graph.VertexID(v)))
		c.alive[v] = true
	}
}

// Compute implements Program. Messages are peel notifications: each
// one decrements the receiver's surviving-neighbour count.
func (c *KCore) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	if !c.alive[v] {
		ctx.VoteToHalt(v)
		return
	}
	c.remaining[v] -= int32(len(msgs))
	if int(c.remaining[v]) < c.K {
		c.alive[v] = false
		ctx.SetValue(v, 0)
		for _, u := range ctx.Graph().Neighbors(v) {
			if u != v {
				ctx.Send(u, 1)
			}
		}
	}
	ctx.VoteToHalt(v)
}

// MarshalVertexAux implements VertexAux: v's surviving-neighbour
// count and membership flag.
func (c *KCore) MarshalVertexAux(v graph.VertexID) []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, 5), uint32(c.remaining[v]))
	if c.alive[v] {
		return append(b, 1)
	}
	return append(b, 0)
}

// UnmarshalVertexAux implements VertexAux.
func (c *KCore) UnmarshalVertexAux(v graph.VertexID, b []byte) error {
	if len(b) != 5 {
		return fmt.Errorf("engine: kcore vertex aux blob is %d bytes", len(b))
	}
	c.remaining[v] = int32(binary.LittleEndian.Uint32(b))
	c.alive[v] = b[4] == 1
	return nil
}

// CorenessSweep runs KCore for K = 1..max and returns each vertex's
// coreness (the largest K whose core contains it).
func CorenessSweep(g *graph.Graph, workers int, maxK int) ([]int, error) {
	coreness := make([]int, g.NumVertices())
	for k := 1; k <= maxK; k++ {
		res, err := Run(g, &KCore{K: k}, Config{Workers: workers})
		if err != nil {
			return nil, err
		}
		stillIn := false
		for v, val := range res.Values {
			if val == 1 {
				coreness[v] = k
				stillIn = true
			}
		}
		if !stillIn {
			break
		}
	}
	return coreness, nil
}

// DegreeCentrality is the simplest one-superstep program: vertex value
// = out-degree. Useful as an engine smoke test and a calibration
// microbenchmark.
type DegreeCentrality struct{}

// Name implements Program.
func (DegreeCentrality) Name() string { return "degree" }

// Init implements Program.
func (DegreeCentrality) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	return 0, true
}

// Compute implements Program.
func (DegreeCentrality) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	ctx.SetValue(v, float64(ctx.Graph().Degree(v)))
	ctx.VoteToHalt(v)
}

// TriangleCount counts triangles on an undirected graph in three
// supersteps of id-ordered wedge closing: vertex a probes higher-id
// neighbours b (phase 0); b forwards each probe origin a to its
// higher-id neighbours c (phase 1); c confirms the wedge a–b–c as a
// triangle when a is adjacent to c (phase 2, local CSR lookup). Each
// triangle a<b<c is counted exactly once, at its highest vertex, so
// the global count is the plain sum of vertex values.
type TriangleCount struct{}

// Name implements Program.
func (TriangleCount) Name() string { return "triangles" }

// Init implements Program.
func (TriangleCount) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	return 0, true
}

// Compute implements Program.
func (TriangleCount) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	g := ctx.Graph()
	switch ctx.Superstep() {
	case 0:
		// Probe: tell higher-id neighbours about v.
		for _, u := range g.Neighbors(v) {
			if u > v {
				ctx.Send(u, float64(v))
			}
		}
	case 1:
		// Forward: for each probe origin o < v, tell higher-id
		// neighbours w > v to check adjacency with o.
		for _, m := range msgs {
			o := graph.VertexID(m)
			for _, w := range g.Neighbors(v) {
				if w > v {
					ctx.Send(w, float64(o))
				}
			}
		}
	case 2:
		// Close: count wedges o–x–v that close into triangles.
		for _, m := range msgs {
			o := graph.VertexID(m)
			if hasNeighbor(g, v, o) {
				ctx.SetValue(v, ctx.Value(v)+1)
			}
		}
	}
	ctx.VoteToHalt(v)
}

// hasNeighbor binary-searches v's sorted adjacency for u.
func hasNeighbor(g *graph.Graph, v, u graph.VertexID) bool {
	nb := g.Neighbors(v)
	lo, hi := 0, len(nb)
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case nb[mid] == u:
			return true
		case nb[mid] < u:
			lo = mid + 1
		default:
			hi = mid
		}
	}
	return false
}

// TotalTriangles sums a TriangleCount result into the global triangle
// count (each triangle is recorded once, at its highest vertex).
func TotalTriangles(values []float64) int64 {
	var sum float64
	for _, v := range values {
		sum += v
	}
	return int64(sum)
}
