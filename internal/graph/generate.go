package graph

import "math/rand"

// RMATParams configure the recursive-matrix generator of Chakrabarti,
// Zhan & Faloutsos (reference [10] in the paper). The probabilities
// must sum to 1; Graph500 defaults are A=0.57 B=0.19 C=0.19 D=0.05.
type RMATParams struct {
	Scale      int // 2^Scale vertices
	EdgeFactor int // edges per vertex; the paper's RMAT-N has 2^(N+4) edges (factor 16)
	A, B, C, D float64
	Seed       int64
	Undirected bool
	Weighted   bool // uniform random weights in (0, 1] for SSSP
}

// DefaultRMAT returns Graph500-style parameters matching the paper's
// RMAT-N datasets (2^N vertices, 2^(N+4) edges).
func DefaultRMAT(scale int, seed int64) RMATParams {
	return RMATParams{Scale: scale, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19, D: 0.05, Seed: seed}
}

// RMAT generates a scale-free graph with the recursive matrix model.
// The generator is deterministic for a fixed seed.
func RMAT(p RMATParams) *Graph {
	n := 1 << p.Scale
	m := n * p.EdgeFactor
	source := rand.NewSource(p.Seed)
	rng := func() float64 { // rand.Rand.Float64 on source, draw for draw
		for {
			if f := float64(source.Int63()) / (1 << 63); f != 1 {
				return f
			}
		}
	}
	opts := []BuilderOption{Dedup(), DropSelfLoops()}
	if p.Undirected {
		opts = append(opts, Undirected())
	}
	if p.Weighted {
		opts = append(opts, Weighted())
	}
	b := NewBuilder(n, opts...)
	b.edges = make([]Edge, 0, m)
	ab := p.A + p.B
	cNorm := p.C / (p.C + p.D)
	aNorm := p.A / (p.A + p.B)
	for i := 0; i < m; i++ {
		src, dst := 0, 0
		for bit := 1 << (p.Scale - 1); bit >= 1; bit >>= 1 {
			r := rng()
			if r > ab { // bottom half
				src |= bit
				if rng() > cNorm {
					dst |= bit
				}
			} else if rng() > aNorm {
				dst |= bit
			}
		}
		w := float32(1)
		if p.Weighted {
			w = float32(1 - rng()) // (0, 1]
		}
		b.AddEdge(VertexID(src), VertexID(dst), w)
	}
	return b.Build()
}

// ErdosRenyi generates a G(n, m) uniform random graph: m arcs drawn
// uniformly (self loops removed, duplicates deduped so the realised
// edge count can be slightly below m on dense settings).
func ErdosRenyi(n int, m int, seed int64, undirected bool) *Graph {
	rng := rand.New(rand.NewSource(seed))
	opts := []BuilderOption{Dedup(), DropSelfLoops()}
	if undirected {
		opts = append(opts, Undirected())
	}
	b := NewBuilder(n, opts...)
	for i := 0; i < m; i++ {
		b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), 1)
	}
	return b.Build()
}

// PreferentialAttachment generates a Barabási–Albert style power-law
// graph: vertices arrive one at a time and attach k edges to existing
// vertices chosen proportionally to their current degree. It yields
// the heavy-tailed degree distribution typical of social networks.
func PreferentialAttachment(n, k int, seed int64) *Graph {
	if n < k+1 {
		panic("graph: PreferentialAttachment needs n > k")
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, Undirected(), Dedup(), DropSelfLoops())
	// repeated holds one entry per degree unit, enabling O(1)
	// degree-proportional sampling.
	repeated := make([]VertexID, 0, 2*n*k)
	// Seed clique over the first k+1 vertices.
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			b.AddEdge(VertexID(i), VertexID(j), 1)
			repeated = append(repeated, VertexID(i), VertexID(j))
		}
	}
	for v := k + 1; v < n; v++ {
		for e := 0; e < k; e++ {
			target := repeated[rng.Intn(len(repeated))]
			b.AddEdge(VertexID(v), target, 1)
			repeated = append(repeated, VertexID(v), target)
		}
	}
	return b.Build()
}

// CommunityParams configure the planted-partition generator used to
// model collaboration networks (dense communities, sparse cross
// links), the structure of the paper's Hollywood dataset.
type CommunityParams struct {
	Communities   int
	SizeMean      int     // mean community size (geometric-ish spread)
	IntraDegree   float64 // expected intra-community degree per vertex
	InterFraction float64 // fraction of edges rewired across communities
	Seed          int64
}

// Community generates a planted-partition graph.
func Community(p CommunityParams) *Graph {
	rng := rand.New(rand.NewSource(p.Seed))
	sizes := make([]int, p.Communities)
	total := 0
	for i := range sizes {
		// Sizes spread around the mean by a factor in [0.5, 1.5].
		sizes[i] = int(float64(p.SizeMean) * (0.5 + rng.Float64()))
		if sizes[i] < 2 {
			sizes[i] = 2
		}
		total += sizes[i]
	}
	starts := make([]int, p.Communities+1)
	for i, s := range sizes {
		starts[i+1] = starts[i] + s
	}
	b := NewBuilder(total, Undirected(), Dedup(), DropSelfLoops())
	for c := 0; c < p.Communities; c++ {
		lo, size := starts[c], sizes[c]
		edges := int(float64(size) * p.IntraDegree / 2)
		for e := 0; e < edges; e++ {
			u := VertexID(lo + rng.Intn(size))
			var v VertexID
			if rng.Float64() < p.InterFraction {
				v = VertexID(rng.Intn(total))
			} else {
				v = VertexID(lo + rng.Intn(size))
			}
			b.AddEdge(u, v, 1)
		}
	}
	return b.Build()
}

// NearRegular generates a dense near-regular graph: every vertex gets
// approximately d random neighbours. Biological interaction networks
// (the paper's Human-Gene dataset: 22k vertices, 12M edges, average
// degree ~550) have this flat, dense shape rather than a power law.
func NearRegular(n, d int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, Undirected(), Dedup(), DropSelfLoops())
	arcs := n * d / 2
	for i := 0; i < arcs; i++ {
		u := VertexID(rng.Intn(n))
		// Bias the second endpoint to a window around u so the graph
		// has locality (as gene-neighbourhood graphs do) without being
		// a ring lattice.
		window := n / 8
		if window < 4 {
			window = 4
		}
		v := VertexID((int(u) + 1 + rng.Intn(window)) % n)
		b.AddEdge(u, v, 1)
	}
	return b.Build()
}

// WattsStrogatz generates a small-world ring lattice with rewiring
// probability beta. Used in property tests as a graph with known
// structure.
func WattsStrogatz(n, k int, beta float64, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, Undirected(), Dedup(), DropSelfLoops())
	for v := 0; v < n; v++ {
		for j := 1; j <= k/2; j++ {
			dst := (v + j) % n
			if rng.Float64() < beta {
				dst = rng.Intn(n)
			}
			b.AddEdge(VertexID(v), VertexID(dst), 1)
		}
	}
	return b.Build()
}

// Path returns a simple path 0-1-...-n-1, handy in unit tests.
func Path(n int) *Graph {
	b := NewBuilder(n, Undirected())
	for v := 0; v < n-1; v++ {
		b.AddEdge(VertexID(v), VertexID(v+1), 1)
	}
	return b.Build()
}

// Ring returns a simple cycle of n vertices.
func Ring(n int) *Graph {
	b := NewBuilder(n, Undirected())
	for v := 0; v < n; v++ {
		b.AddEdge(VertexID(v), VertexID((v+1)%n), 1)
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n, Undirected())
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.AddEdge(VertexID(u), VertexID(v), 1)
		}
	}
	return b.Build()
}

// Grid returns an r×c 4-neighbour mesh, a standard partitioning test
// case with a known small edge cut.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows*cols, Undirected())
	id := func(r, c int) VertexID { return VertexID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1), 1)
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c), 1)
			}
		}
	}
	return b.Build()
}
