package engine

import (
	"errors"
	"testing"

	"hourglass/internal/graph"
)

func TestLabelPropagationFindsPlantedCommunities(t *testing.T) {
	g := graph.Community(graph.CommunityParams{
		Communities: 4, SizeMean: 40, IntraDegree: 12, InterFraction: 0.02, Seed: 3,
	})
	res := runOK(t, g, &LabelPropagation{Rounds: 15}, Config{Workers: 4})
	got := Communities(res.Values)
	// Label propagation should find few communities — far fewer than
	// one per vertex, at least as many as the planted count would merge.
	if got > g.NumVertices()/4 {
		t.Errorf("found %d communities on %d vertices — no propagation happened", got, g.NumVertices())
	}
	if got < 1 {
		t.Errorf("no communities at all")
	}
}

func TestLabelPropagationCliqueCollapses(t *testing.T) {
	g := graph.Complete(10)
	res := runOK(t, g, &LabelPropagation{Rounds: 10}, Config{Workers: 2})
	if got := Communities(res.Values); got != 1 {
		t.Errorf("clique communities = %d, want 1", got)
	}
}

func TestKCoreOnCliquePlusTail(t *testing.T) {
	// K5 (vertices 0–4) with a path 4-5-6 hanging off: the 4-core is
	// exactly the clique; the tail peels away.
	b := graph.NewBuilder(7, graph.Undirected())
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v), 1)
		}
	}
	b.AddEdge(4, 5, 1)
	b.AddEdge(5, 6, 1)
	g := b.Build()

	res := runOK(t, g, &KCore{K: 4}, Config{Workers: 2})
	for v := 0; v < 5; v++ {
		if res.Values[v] != 1 {
			t.Errorf("clique vertex %d not in 4-core", v)
		}
	}
	for v := 5; v < 7; v++ {
		if res.Values[v] != 0 {
			t.Errorf("tail vertex %d in 4-core", v)
		}
	}
}

func TestKCoreCascadingPeel(t *testing.T) {
	// A path: the 2-core of a path is empty (peeling cascades from the
	// endpoints inward).
	g := graph.Path(9)
	res := runOK(t, g, &KCore{K: 2}, Config{Workers: 3})
	for v, val := range res.Values {
		if val != 0 {
			t.Errorf("path vertex %d survived the 2-core", v)
		}
	}
	// A ring's 2-core is the whole ring.
	ring := graph.Ring(9)
	res = runOK(t, ring, &KCore{K: 2}, Config{Workers: 3})
	for v, val := range res.Values {
		if val != 1 {
			t.Errorf("ring vertex %d peeled from the 2-core", v)
		}
	}
}

func TestKCoreResumeWithAux(t *testing.T) {
	g := undirectedRMAT(9, 12)
	full := runOK(t, g, &KCore{K: 3}, Config{Workers: 4})
	res, err := Run(g, &KCore{K: 3}, Config{Workers: 4, StopAfter: 1})
	if !errors.Is(err, ErrPaused) {
		t.Skip("k-core finished in one superstep on this graph")
	}
	resumed, err := Resume(g, &KCore{K: 3}, res.Snapshot, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for v := range full.Values {
		if full.Values[v] != resumed.Values[v] {
			t.Fatalf("k-core resume diverged at %d", v)
		}
	}
}

func TestDegreeCentrality(t *testing.T) {
	g := graph.Grid(3, 3)
	res := runOK(t, g, DegreeCentrality{}, Config{Workers: 2})
	// Corner 0 has degree 2, center 4 has degree 4.
	if res.Values[0] != 2 || res.Values[4] != 4 {
		t.Errorf("degrees = %v", res.Values)
	}
}

func TestTriangleCountKnownGraphs(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int64
	}{
		{"triangle", graph.Complete(3), 1},
		{"k4", graph.Complete(4), 4},
		{"k5", graph.Complete(5), 10},
		{"ring", graph.Ring(6), 0},
		{"path", graph.Path(5), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runOK(t, tc.g, TriangleCount{}, Config{Workers: 3})
			if got := TotalTriangles(res.Values); got != tc.want {
				t.Errorf("triangles = %d, want %d", got, tc.want)
			}
		})
	}
}

func TestTriangleCountMatchesBruteForce(t *testing.T) {
	g := undirectedRMAT(8, 21)
	res := runOK(t, g, TriangleCount{}, Config{Workers: 4})
	want := bruteForceTriangles(g)
	if got := TotalTriangles(res.Values); got != want {
		t.Errorf("triangles = %d, brute force = %d", got, want)
	}
}

func bruteForceTriangles(g *graph.Graph) int64 {
	var count int64
	n := graph.VertexID(g.NumVertices())
	for a := graph.VertexID(0); a < n; a++ {
		for _, b := range g.Neighbors(a) {
			if b <= a {
				continue
			}
			for _, c := range g.Neighbors(b) {
				if c <= b {
					continue
				}
				if hasNeighbor(g, a, c) {
					count++
				}
			}
		}
	}
	return count
}

func TestHasNeighbor(t *testing.T) {
	g := graph.Path(4)
	if !hasNeighbor(g, 1, 2) || !hasNeighbor(g, 1, 0) {
		t.Error("adjacency lookup false negative")
	}
	if hasNeighbor(g, 0, 3) || hasNeighbor(g, 0, 0) {
		t.Error("adjacency lookup false positive")
	}
}
