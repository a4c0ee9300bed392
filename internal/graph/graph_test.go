package graph

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBuilderBasicCSR(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(0, 2, 1)
	b.AddEdge(2, 3, 1)
	g := b.Build()
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []VertexID{1, 2}) {
		t.Errorf("Neighbors(0) = %v, want [1 2]", got)
	}
	if got := g.Neighbors(1); len(got) != 0 {
		t.Errorf("Neighbors(1) = %v, want empty", got)
	}
	if g.Degree(2) != 1 {
		t.Errorf("Degree(2) = %d, want 1", g.Degree(2))
	}
}

func TestBuilderUndirectedMirrors(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 1}, {1, 2, 1}}, Undirected())
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4 (mirrored)", g.NumEdges())
	}
	if g.NumLogicalEdges() != 2 {
		t.Fatalf("NumLogicalEdges = %d, want 2", g.NumLogicalEdges())
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []VertexID{0, 2}) {
		t.Errorf("Neighbors(1) = %v, want [0 2]", got)
	}
}

func TestBuilderDedupAndLoops(t *testing.T) {
	g := FromEdges(3, []Edge{{0, 1, 1}, {0, 1, 5}, {1, 1, 1}, {1, 2, 1}},
		Dedup(), DropSelfLoops(), Weighted())
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	// Dedup keeps the first occurrence, in insertion order.
	if w := g.EdgeWeights(0)[0]; w != 1 {
		t.Errorf("weight = %v, want 1 (the first occurrence's)", w)
	}
}

func TestBuilderPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 5, 1)
}

func TestForEachEdgeVisitsAll(t *testing.T) {
	g := Ring(5)
	count := 0
	g.ForEachEdge(func(src, dst VertexID, w float32) { count++ })
	if int64(count) != g.NumEdges() {
		t.Errorf("visited %d arcs, want %d", count, g.NumEdges())
	}
}

func TestInducedQuotient(t *testing.T) {
	// Path 0-1-2-3, blocks {0,1} and {2,3}: quotient has 2 vertices,
	// one logical edge of weight 1 (the 1-2 edge) and vertex weights 2,2.
	g := Path(4)
	q, vw := g.InducedQuotient([]int32{0, 0, 1, 1}, 2)
	if q.NumVertices() != 2 {
		t.Fatalf("quotient vertices = %d, want 2", q.NumVertices())
	}
	if !reflect.DeepEqual(vw, []int64{2, 2}) {
		t.Errorf("vertex weights = %v, want [2 2]", vw)
	}
	if q.NumLogicalEdges() != 1 {
		t.Errorf("quotient logical edges = %d, want 1", q.NumLogicalEdges())
	}
	if w := q.EdgeWeights(0); len(w) != 1 || w[0] != 1 {
		t.Errorf("crossing weight = %v, want [1]", w)
	}
}

func TestInducedQuotientWeightConservation(t *testing.T) {
	g := RMAT(DefaultRMAT(8, 42))
	assign := make([]int32, g.NumVertices())
	rng := rand.New(rand.NewSource(7))
	for i := range assign {
		assign[i] = int32(rng.Intn(5))
	}
	q, vw := g.InducedQuotient(assign, 5)
	var totalVW int64
	for _, w := range vw {
		totalVW += w
	}
	if totalVW != int64(g.NumVertices()) {
		t.Errorf("sum vertex weights = %d, want %d", totalVW, g.NumVertices())
	}
	// Crossing weight in quotient must equal number of crossing arcs.
	var crossing float64
	g.ForEachEdge(func(s, d VertexID, w float32) {
		if assign[s] != assign[d] {
			crossing += float64(w)
		}
	})
	var qw float64
	q.ForEachEdge(func(s, d VertexID, w float32) { qw += float64(w) })
	if qw != crossing {
		t.Errorf("quotient weight = %v, want %v", qw, crossing)
	}
}

func TestGeneratorsBasicShapes(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		n    int
	}{
		{"path", Path(10), 10},
		{"ring", Ring(10), 10},
		{"complete", Complete(6), 6},
		{"grid", Grid(4, 5), 20},
	}
	for _, tc := range tests {
		if tc.g.NumVertices() != tc.n {
			t.Errorf("%s: vertices = %d, want %d", tc.name, tc.g.NumVertices(), tc.n)
		}
	}
	if Complete(6).NumLogicalEdges() != 15 {
		t.Errorf("K6 edges = %d, want 15", Complete(6).NumLogicalEdges())
	}
	if Grid(4, 5).NumLogicalEdges() != int64(4*4+3*5) {
		t.Errorf("grid edges = %d, want 31", Grid(4, 5).NumLogicalEdges())
	}
	if Ring(10).MaxDegree() != 2 {
		t.Errorf("ring max degree = %d, want 2", Ring(10).MaxDegree())
	}
}

func TestRMATDeterministicAndSkewed(t *testing.T) {
	a := RMAT(DefaultRMAT(10, 99))
	b := RMAT(DefaultRMAT(10, 99))
	if a.NumEdges() != b.NumEdges() {
		t.Fatalf("same seed produced different edge counts: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Degree(VertexID(v)) != b.Degree(VertexID(v)) {
			t.Fatalf("degree mismatch at %d", v)
		}
	}
	c := RMAT(DefaultRMAT(10, 100))
	if c.NumEdges() == a.NumEdges() && degreesEqual(a, c) {
		t.Error("different seeds produced identical graphs")
	}
	// Scale-free: max degree far above average.
	if float64(a.MaxDegree()) < 4*a.AvgDegree() {
		t.Errorf("RMAT not skewed: max=%d avg=%.1f", a.MaxDegree(), a.AvgDegree())
	}
}

func degreesEqual(a, b *Graph) bool {
	if a.NumVertices() != b.NumVertices() {
		return false
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Degree(VertexID(v)) != b.Degree(VertexID(v)) {
			return false
		}
	}
	return true
}

func TestPreferentialAttachmentPowerLaw(t *testing.T) {
	g := PreferentialAttachment(4000, 4, 1)
	if g.NumVertices() != 4000 {
		t.Fatalf("vertices = %d", g.NumVertices())
	}
	// Heavy tail: the largest hub should dominate the average degree.
	if float64(g.MaxDegree()) < 8*g.AvgDegree() {
		t.Errorf("not heavy tailed: max=%d avg=%.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestNearRegularIsFlat(t *testing.T) {
	g := NearRegular(2000, 40, 5)
	// Near-regular: max degree within a small factor of the mean.
	if float64(g.MaxDegree()) > 3*g.AvgDegree() {
		t.Errorf("too skewed for near-regular: max=%d avg=%.1f", g.MaxDegree(), g.AvgDegree())
	}
}

func TestErdosRenyiEdgeBudget(t *testing.T) {
	g := ErdosRenyi(1000, 5000, 3, false)
	if g.NumEdges() < 4500 || g.NumEdges() > 5000 {
		t.Errorf("edges = %d, want ~5000 after dedup", g.NumEdges())
	}
}

func TestWattsStrogatzDegreeBudget(t *testing.T) {
	g := WattsStrogatz(500, 6, 0.1, 11)
	// Each vertex contributes k/2 logical edges (some deduped).
	want := int64(500 * 3)
	if g.NumLogicalEdges() < want*8/10 || g.NumLogicalEdges() > want {
		t.Errorf("edges = %d, want close to %d", g.NumLogicalEdges(), want)
	}
}

// Property: for any generated graph, CSR invariants hold.
func TestQuickCSRInvariants(t *testing.T) {
	f := func(seed int64, rawScale uint8) bool {
		scale := 6 + int(rawScale%4) // 6..9
		g := RMAT(DefaultRMAT(scale, seed))
		n := g.NumVertices()
		var total int64
		for v := 0; v < n; v++ {
			nb := g.Neighbors(VertexID(v))
			total += int64(len(nb))
			for i, u := range nb {
				if u < 0 || int(u) >= n {
					return false
				}
				if i > 0 && nb[i-1] > u { // builder sorts neighbours
					return false
				}
			}
		}
		return total == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: undirected graphs are symmetric, weights included: every
// arc's reverse exists and carries the same weight.
func TestQuickUndirectedSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		p := DefaultRMAT(8, seed)
		p.Undirected, p.Weighted = true, true
		g := RMAT(p)
		for v := 0; v < g.NumVertices(); v++ {
			ws := g.EdgeWeights(VertexID(v))
			for i, u := range g.Neighbors(VertexID(v)) {
				j := index(g.Neighbors(u), VertexID(v))
				if j < 0 || g.EdgeWeights(u)[j] != ws[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// index is the position of v in s, or -1.
func index(s []VertexID, v VertexID) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

func TestSizeBytesMatchesArrays(t *testing.T) {
	g := Path(10)
	want := int64(11*8 + g.NumEdges()*4)
	if g.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", g.SizeBytes(), want)
	}
}
