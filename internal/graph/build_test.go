package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// benchSeed is the seed of the benchmark's datasets (dist.GraphSpec's
// Seed for the bench graphs).
const benchSeed = 20190325

// benchRMAT is what dist.GraphSpec{Scale: scale, Seed: benchSeed,
// Undirected: true, Weighted: true}.Build() builds.
func benchRMAT(scale int) *Graph {
	p := DefaultRMAT(scale, benchSeed)
	p.Undirected, p.Weighted = true, true
	return RMAT(p)
}

// topologyHash is the SHA-256 of a graph's offsets and adj, little
// endian: its topology, without the weights.
func topologyHash(g *Graph) string {
	h := sha256.New()
	binary.Write(h, binary.LittleEndian, g.offsets)
	binary.Write(h, binary.LittleEndian, g.adj)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestBuildTopologyPinned pins the CSR topology of the benchmark's
// weighted undirected RMAT graphs, as the sort-based builder built
// them: a change to the builder or to the generator's random stream
// that moves one arc fails here. The arrays are exactly sized, since
// dist keeps every graph it builds for the life of the process.
func TestBuildTopologyPinned(t *testing.T) {
	for _, c := range []struct {
		scale int
		hash  string
	}{
		{8, "2f1317e0a0baeecb0b0b506ca1c409a9290e43e3c9f9b0a60cbdefa0024591be"},
		{12, "ae71a8fe26bb5d576b40ebff2e835a12704dc2120145f8cd7f976a84cb395890"},
		{14, "0bf4ece6fd45a01ab45c7f29cd2120045ebe441ddbeb6fa79781c0515f8f005b"},
	} {
		g := benchRMAT(c.scale)
		if got := topologyHash(g); got != c.hash {
			t.Errorf("scale %d: topology hash %s, want %s", c.scale, got, c.hash)
		}
		if cap(g.adj) != len(g.adj) || cap(g.weights) != len(g.weights) {
			t.Errorf("scale %d: adj %d/%d and weights %d/%d (len/cap), want exact",
				c.scale, len(g.adj), cap(g.adj), len(g.weights), cap(g.weights))
		}
	}
}

// referenceBuild is the builder's contract written the slow way: drop
// self loops, mirror, sort stably by (source, destination) so ties stay
// in insertion order — an undirected edge's arc before its mirror — and
// keep the first of each run of equal arcs.
func referenceBuild(n int, edges []Edge, undirected, weighted, dedup, dropLoops bool) (offsets []int64, adj []VertexID, weights []float32) {
	var arcs []Edge
	for _, e := range edges {
		if dropLoops && e.Src == e.Dst {
			continue
		}
		arcs = append(arcs, e)
		if undirected {
			arcs = append(arcs, Edge{e.Dst, e.Src, e.Weight})
		}
	}
	sort.SliceStable(arcs, func(i, j int) bool {
		if arcs[i].Src != arcs[j].Src {
			return arcs[i].Src < arcs[j].Src
		}
		return arcs[i].Dst < arcs[j].Dst
	})
	offsets = make([]int64, n+1)
	adj = []VertexID{}
	for i, a := range arcs {
		if dedup && i > 0 && a.Src == arcs[i-1].Src && a.Dst == arcs[i-1].Dst {
			continue
		}
		offsets[a.Src+1]++
		adj = append(adj, a.Dst)
		weights = append(weights, a.Weight)
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	if !weighted {
		weights = nil
	} else if weights == nil {
		weights = []float32{}
	}
	return offsets, adj, weights
}

// checkAgainstReference builds edges under every combination of the
// four options and compares the result with referenceBuild.
func checkAgainstReference(t *testing.T, n int, edges []Edge) {
	t.Helper()
	for mask := 0; mask < 16; mask++ {
		undirected, weighted, dedup, dropLoops := mask&1 != 0, mask&2 != 0, mask&4 != 0, mask&8 != 0
		var opts []BuilderOption
		for _, o := range []struct {
			on  bool
			opt BuilderOption
		}{{undirected, Undirected()}, {weighted, Weighted()}, {dedup, Dedup()}, {dropLoops, DropSelfLoops()}} {
			if o.on {
				opts = append(opts, o.opt)
			}
		}
		g := FromEdges(n, edges, opts...)
		off, adj, w := referenceBuild(n, edges, undirected, weighted, dedup, dropLoops)
		if !reflect.DeepEqual(g.offsets, off) || !reflect.DeepEqual(g.adj, adj) || !reflect.DeepEqual(g.weights, w) {
			t.Fatalf("n=%d edges=%v undirected=%v weighted=%v dedup=%v dropLoops=%v:\n got %v %v %v\nwant %v %v %v",
				n, edges, undirected, weighted, dedup, dropLoops, g.offsets, g.adj, g.weights, off, adj, w)
		}
		if g.Undirected() != undirected || cap(g.adj) != len(g.adj) || cap(g.weights) != len(g.weights) {
			t.Fatalf("n=%d edges=%v mask=%d: undirected=%v, adj %d/%d, weights %d/%d (len/cap)",
				n, edges, mask, g.Undirected(), len(g.adj), cap(g.adj), len(g.weights), cap(g.weights))
		}
	}
}

// TestBuildMatchesReference: seeded random edge lists, dense enough in
// loops and parallel edges that dedup and the loop drop always bite,
// build exactly as the reference does.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(12)
		edges := make([]Edge, rng.Intn(40))
		for i := range edges {
			// Distinct weights: keeping the wrong one of two parallel
			// arcs shows.
			edges[i] = Edge{VertexID(rng.Intn(n)), VertexID(rng.Intn(n)), float32(i + 1)}
		}
		checkAgainstReference(t, n, edges)
	}
	checkAgainstReference(t, 1, nil)
}

// FuzzBuilder checks Build against the reference on arbitrary edge
// lists: each byte pair is one edge over at most 16 vertices.
func FuzzBuilder(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 1, 0, 0, 1, 2, 2, 3, 1})
	f.Add(uint8(1), []byte{0, 0, 0, 0})
	f.Add(uint8(16), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, data []byte) {
		nv := 1 + int(n)%16
		edges := make([]Edge, 0, len(data)/2)
		for i := 0; i+1 < len(data); i += 2 {
			edges = append(edges, Edge{VertexID(int(data[i]) % nv), VertexID(int(data[i+1]) % nv), float32(i + 1)})
		}
		checkAgainstReference(t, nv, edges)
	})
}

// BenchmarkBuildRMAT generates and builds the benchmark's scale-14
// weighted undirected RMAT graph (262,144 edge draws, 425,702 arcs after
// dedup): the set-up cost every graph job pays before its first
// superstep. Run it with -benchmem.
func BenchmarkBuildRMAT(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		builtGraph = benchRMAT(14)
	}
}

// builtGraph keeps BenchmarkBuildRMAT's result live.
var builtGraph *Graph
