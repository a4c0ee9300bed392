package engine

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"hourglass/internal/graph"
)

// PageRank implements the classic iterative PageRank ([9] in the
// paper) for a fixed number of iterations (the paper runs 30).
// Vertex value = current rank.
//
// PageRank is an ExactCombiner although its fold is a float sum:
// every share it sends is rounded to a multiple of pageRankQuantum, so
// all partial sums of one superstep's shares are multiples of the
// quantum too, stay below pageRankMassBound, and therefore fit a
// float64 significand — addition never rounds, whatever the fold order,
// flush split or worker count. The rounding moves a vertex's next rank
// by at most indegree·quantum/2 per iteration.
type PageRank struct {
	Iterations int
	Damping    float64 // 0 = 0.85
}

// Name implements Program.
func (p *PageRank) Name() string { return "pagerank" }

// The share grid. Shares are non-negative and one superstep's shares
// total the rank mass (1, up to rounding, for any damping in [0,1]), so
// any partial sum of them is a multiple of 2^-pageRankQuantumBits below
// 2^pageRankMassBits.
const (
	pageRankQuantumBits = 50
	pageRankMassBits    = 3
	pageRankQuantum     = 1.0 / (1 << pageRankQuantumBits)
	pageRankMassBound   = 1 << pageRankMassBits

	// Such a sum needs quantumBits+massBits significand bits; float64
	// has 53. This fails to compile if the grid outgrows them.
	_ = uint(53 - pageRankQuantumBits - pageRankMassBits)
)

// quantizeShare rounds a rank share to the nearest grid point. Scaling
// by a power of two is exact, so the only rounding is RoundToEven's.
func quantizeShare(x float64) float64 {
	return math.RoundToEven(x*(1<<pageRankQuantumBits)) * pageRankQuantum
}

func (p *PageRank) damping() float64 {
	if p.Damping == 0 {
		return 0.85
	}
	return p.Damping
}

// Init implements Program.
func (p *PageRank) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	return 1.0 / float64(g.NumVertices()), true
}

// Aggregators implements engine.Aggregators: the "dangling" aggregator
// collects rank stranded on zero-out-degree vertices so it can be
// redistributed uniformly, keeping total rank mass at 1.
func (p *PageRank) Aggregators() []AggregatorSpec {
	return []AggregatorSpec{{
		Name:     "dangling",
		Identity: 0,
		Reduce:   func(a, b float64) float64 { return a + b },
	}}
}

// Compute implements Program.
func (p *PageRank) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	g := ctx.Graph()
	n := float64(g.NumVertices())
	d := p.damping()
	if ctx.Superstep() > 0 {
		sum := 0.0
		for _, m := range msgs {
			sum += m
		}
		// Dangling mass from the previous superstep is spread uniformly.
		sum += ctx.AggregatedValue("dangling") / n
		ctx.SetValue(v, (1-d)/n+d*sum)
	}
	if ctx.Superstep() < p.Iterations {
		if deg := g.Degree(v); deg > 0 {
			ctx.SendToNeighbors(v, quantizeShare(ctx.Value(v)/float64(deg)))
		} else {
			ctx.Aggregate("dangling", ctx.Value(v))
		}
	} else {
		ctx.VoteToHalt(v)
	}
}

// Fold implements Combiner: partial rank sums add.
func (p *PageRank) Fold() Fold { return Sum }

// ExactCombine implements ExactCombiner: sums on the share grid are exact.
func (p *PageRank) ExactCombine() {}

// SSSP computes single-source shortest paths (the paper's 3-minute
// benchmark). Vertex value = tentative distance; +Inf = unreached.
type SSSP struct {
	Source graph.VertexID
}

// Name implements Program.
func (s *SSSP) Name() string { return "sssp" }

// Init implements Program.
func (s *SSSP) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	if v == s.Source {
		return 0, true
	}
	return math.Inf(1), false
}

// Compute implements Program.
func (s *SSSP) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	dist := ctx.Value(v)
	improved := ctx.Superstep() == 0 && v == s.Source
	for _, m := range msgs {
		if m < dist {
			dist = m
			improved = true
		}
	}
	if improved {
		ctx.SetValue(v, dist)
		g := ctx.Graph()
		weights := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			w := 1.0
			if weights != nil {
				w = float64(weights[i])
			}
			ctx.Send(u, dist+w)
		}
	}
	ctx.VoteToHalt(v)
}

// Fold implements Combiner: distances are +0 or sums of positive weights.
func (s *SSSP) Fold() Fold { return Min }

// ExactCombine implements ExactCombiner: min never rounds.
func (s *SSSP) ExactCombine() {}

// WCC labels weakly connected components by propagating minimum vertex
// id (HashMin). Vertex value = component id.
type WCC struct{}

// Name implements Program.
func (WCC) Name() string { return "wcc" }

// Init implements Program.
func (WCC) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	return float64(v), true
}

// Compute implements Program.
func (WCC) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	cur := ctx.Value(v)
	improved := ctx.Superstep() == 0
	for _, m := range msgs {
		if m < cur {
			cur = m
			improved = true
		}
	}
	if improved {
		ctx.SetValue(v, cur)
		ctx.SendToNeighbors(v, cur)
	}
	ctx.VoteToHalt(v)
}

// Fold implements Combiner: labels are vertex ids.
func (WCC) Fold() Fold { return Min }

// ExactCombine implements ExactCombiner: min never rounds.
func (WCC) ExactCombine() {}

// BFS computes hop distance from a source on an unweighted graph.
type BFS struct {
	Source graph.VertexID
}

// Name implements Program.
func (b *BFS) Name() string { return "bfs" }

// Init implements Program.
func (b *BFS) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	if v == b.Source {
		return 0, true
	}
	return math.Inf(1), false
}

// Compute implements Program.
func (b *BFS) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	if math.IsInf(ctx.Value(v), 1) && len(msgs) > 0 {
		ctx.SetValue(v, msgs[0])
		ctx.SendToNeighbors(v, msgs[0]+1)
	} else if ctx.Superstep() == 0 && v == b.Source {
		ctx.SendToNeighbors(v, 1)
	}
	ctx.VoteToHalt(v)
}

// Fold implements Combiner: any single BFS level message suffices.
func (b *BFS) Fold() Fold { return Min }

// ExactCombine implements ExactCombiner: min never rounds.
func (b *BFS) ExactCombine() {}

// GraphColoring implements Jones–Plassmann greedy coloring, the
// Pregel-style formulation of the paper's GC benchmark (following
// Salihoglu & Widom [31]): each round, every uncolored vertex whose
// random priority is a local maximum among *uncolored* neighbours
// picks the smallest color unused by its neighbourhood and announces
// it. Vertex value = color (-1 while undecided).
//
// GraphColoring keeps auxiliary per-vertex state (the set of colors
// taken by neighbours and the count of uncolored higher-priority
// neighbours), exercising the engine's VertexAux checkpoint path.
type GraphColoring struct {
	// neighborColors[v] marks colors already taken around v.
	neighborColors []map[int32]bool
	// pendingHigher[v] counts uncolored neighbours with higher priority.
	pendingHigher []int32
}

// Name implements Program.
func (c *GraphColoring) Name() string { return "graphcoloring" }

// priority returns a deterministic pseudo-random priority for v, with
// the vertex id breaking ties totally.
func gcPriority(v graph.VertexID) uint64 {
	x := uint64(v) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x<<32 | uint64(uint32(v))
}

// Init implements Program.
func (c *GraphColoring) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	return -1, true
}

// InitAux implements VertexAux.
func (c *GraphColoring) InitAux(g *graph.Graph) {
	n := g.NumVertices()
	c.neighborColors = make([]map[int32]bool, n)
	c.pendingHigher = make([]int32, n)
	for v := 0; v < n; v++ {
		mine := gcPriority(graph.VertexID(v))
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if u != graph.VertexID(v) && gcPriority(u) > mine {
				c.pendingHigher[v]++
			}
		}
	}
}

// Compute implements Program. Messages carry the chosen color of a
// *higher-priority* neighbour (the sender encodes nothing else: color
// as float64).
func (c *GraphColoring) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	if ctx.Value(v) >= 0 { // already colored
		ctx.VoteToHalt(v)
		return
	}
	for _, m := range msgs {
		color := int32(m)
		if c.neighborColors[v] == nil {
			c.neighborColors[v] = make(map[int32]bool)
		}
		c.neighborColors[v][color] = true
		c.pendingHigher[v]--
	}
	if c.pendingHigher[v] <= 0 {
		// All higher-priority neighbours decided: pick smallest free color.
		color := int32(0)
		for c.neighborColors[v][color] {
			color++
		}
		ctx.SetValue(v, float64(color))
		// Notify lower-priority uncolored neighbours.
		g := ctx.Graph()
		mine := gcPriority(v)
		for _, u := range g.Neighbors(v) {
			if u != v && gcPriority(u) < mine {
				ctx.Send(u, float64(color))
			}
		}
		ctx.VoteToHalt(v)
		return
	}
	// Still waiting on higher-priority neighbours; stay active only via
	// incoming messages.
	ctx.VoteToHalt(v)
}

// MarshalVertexAux implements VertexAux: v's pending-higher count and
// neighbour-color set, colors ascending so identical state always
// serialises to identical bytes (a map walk would not).
func (c *GraphColoring) MarshalVertexAux(v graph.VertexID) []byte {
	colors := make([]int32, 0, len(c.neighborColors[v]))
	for col := range c.neighborColors[v] {
		colors = append(colors, col)
	}
	sort.Slice(colors, func(i, j int) bool { return colors[i] < colors[j] })
	buf := make([]byte, 0, 8+4*len(colors))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(c.pendingHigher[v]))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(colors)))
	for _, col := range colors {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(col))
	}
	return buf
}

// UnmarshalVertexAux implements VertexAux. InitAux must have run (it
// sizes the arrays); the entry replaces v's baseline state entirely.
func (c *GraphColoring) UnmarshalVertexAux(v graph.VertexID, b []byte) error {
	if int(v) >= len(c.pendingHigher) {
		return fmt.Errorf("engine: vertex aux for vertex %d of %d (InitAux not run?)", v, len(c.pendingHigher))
	}
	if len(b) < 8 {
		return fmt.Errorf("engine: vertex aux blob is %d bytes", len(b))
	}
	pending := int32(binary.LittleEndian.Uint32(b))
	k := binary.LittleEndian.Uint32(b[4:])
	if uint64(len(b)) != 8+4*uint64(k) {
		return fmt.Errorf("engine: vertex aux blob is %d bytes for %d colors", len(b), k)
	}
	c.pendingHigher[v] = pending
	if k == 0 {
		c.neighborColors[v] = nil
		return nil
	}
	set := make(map[int32]bool, k)
	for i := uint32(0); i < k; i++ {
		set[int32(binary.LittleEndian.Uint32(b[8+4*i:]))] = true
	}
	c.neighborColors[v] = set
	return nil
}

// ValidateColoring checks that no edge connects two vertices of the
// same color and returns the number of colors used.
func ValidateColoring(g *graph.Graph, colors []float64) (int, bool) {
	used := map[int32]bool{}
	ok := true
	g.ForEachEdge(func(s, d graph.VertexID, w float32) {
		if s != d && colors[s] == colors[d] {
			ok = false
		}
	})
	for _, c := range colors {
		used[int32(c)] = true
	}
	return len(used), ok
}
