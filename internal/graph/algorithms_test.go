package graph

import (
	"testing"
	"testing/quick"
)

func TestInducedSubgraph(t *testing.T) {
	g := Grid(3, 3)
	// Take the top-left 2x2 block: vertices 0,1,3,4.
	sub, mapping := g.Induced([]VertexID{0, 1, 3, 4})
	if sub.NumVertices() != 4 {
		t.Fatalf("sub vertices = %d", sub.NumVertices())
	}
	// Edges inside the block: 0-1, 0-3, 1-4, 3-4 → 4 logical.
	if sub.NumLogicalEdges() != 4 {
		t.Errorf("sub edges = %d, want 4", sub.NumLogicalEdges())
	}
	if mapping[2] != 3 {
		t.Errorf("mapping[2] = %d, want 3", mapping[2])
	}
	if sub.Undirected() != g.Undirected() {
		t.Error("directedness lost")
	}
}

// Property: Induced over the full vertex set is edge-preserving.
func TestQuickInducedIdentity(t *testing.T) {
	f := func(seed int64) bool {
		g := RMAT(DefaultRMAT(7, seed))
		all := make([]VertexID, g.NumVertices())
		for i := range all {
			all[i] = VertexID(i)
		}
		sub, _ := g.Induced(all)
		return sub.NumEdges() == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
