package micro

import (
	"testing"
	"testing/quick"

	"hourglass/internal/graph"
	"hourglass/internal/partition"
)

func TestGCDLCM(t *testing.T) {
	cases := []struct {
		ns   []int
		want int
	}{
		{[]int{4, 8, 16}, 16},
		{[]int{3, 4}, 12},
		{[]int{2, 3, 5}, 30},
		{[]int{7}, 7},
		{nil, 1},
	}
	for _, c := range cases {
		if got := LCM(c.ns); got != c.want {
			t.Errorf("LCM(%v) = %d, want %d", c.ns, got, c.want)
		}
	}
	if GCD(12, 18) != 6 {
		t.Errorf("GCD(12,18) = %d, want 6", GCD(12, 18))
	}
}

func TestLCMPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on zero worker count")
		}
	}()
	LCM([]int{4, 0})
}

func testGraph() *graph.Graph {
	p := graph.DefaultRMAT(11, 21)
	p.Undirected = true
	return graph.RMAT(p)
}

func TestBuildAndClusterBasics(t *testing.T) {
	g := testGraph()
	mp, err := BuildForConfigs(g, partition.Multilevel{Seed: 5}, []int{4, 8, 16}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Count != 16 {
		t.Fatalf("count = %d, want lcm(4,8,16)=16", mp.Count)
	}
	if mp.Quotient().NumVertices() != 16 {
		t.Fatalf("quotient has %d vertices", mp.Quotient().NumVertices())
	}
	for _, k := range []int{2, 4, 8, 16} {
		va, err := mp.VertexAssignment(k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if err := va.Validate(); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
	}
}

func TestClusterToCachesAndBounds(t *testing.T) {
	g := testGraph()
	mp, err := Build(g, partition.Hash{}, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, err := mp.ClusterTo(4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mp.ClusterTo(4)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &b[0] {
		t.Error("ClusterTo did not memoise")
	}
	if _, err := mp.ClusterTo(0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := mp.ClusterTo(13); err == nil {
		t.Error("k > micro count accepted")
	}
}

func TestMicroQualityNearBase(t *testing.T) {
	// The headline claim of §6/Figure 8: clustering 64 micro-partitions
	// loses only a few percentage points of edge cut versus running the
	// base partitioner directly for the target k.
	g := testGraph()
	base := partition.Multilevel{Seed: 3}
	mp, err := Build(g, base, 64, partition.Multilevel{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		direct := base.Partition(g, k)
		directCut := partition.EdgeCutFraction(g, direct.Assign)
		va, err := mp.VertexAssignment(k)
		if err != nil {
			t.Fatal(err)
		}
		microCut := partition.EdgeCutFraction(g, va.Assign)
		random := partition.RandomCutExpectation(k)
		if microCut >= random {
			t.Errorf("k=%d: micro cut %.3f not better than random %.3f", k, microCut, random)
		}
		// Paper reports ≤ ~8% absolute degradation; allow 15 points of
		// headroom for the synthetic graph.
		if microCut > directCut+0.15 {
			t.Errorf("k=%d: micro cut %.3f much worse than direct %.3f", k, microCut, directCut)
		}
	}
}

func TestVertexAssignmentComposition(t *testing.T) {
	g := testGraph()
	mp, err := Build(g, partition.Chunked{}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := mp.ClusterTo(2)
	if err != nil {
		t.Fatal(err)
	}
	va, err := mp.VertexAssignment(2)
	if err != nil {
		t.Fatal(err)
	}
	for v := range va.Assign {
		if va.Assign[v] != cluster[mp.Micro.Assign[v]] {
			t.Fatalf("composition broken at vertex %d", v)
		}
	}
}

func TestBuildRejectsBadCount(t *testing.T) {
	g := graph.Path(4)
	if _, err := Build(g, partition.Hash{}, 0, nil); err == nil {
		t.Error("count=0 accepted")
	}
}

func TestBuildClampsCountToVertices(t *testing.T) {
	g := graph.Path(4)
	mp, err := Build(g, partition.Chunked{}, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	if mp.Count != 4 {
		t.Errorf("count = %d, want clamped to 4", mp.Count)
	}
}

// Property: equally-sized clusters — with the LCM micro count and a
// balanced base, every k dividing the count yields macro partitions
// whose vertex-count imbalance stays moderate.
func TestQuickClusterBalance(t *testing.T) {
	f := func(seed int64) bool {
		p := graph.DefaultRMAT(9, seed)
		p.Undirected = true
		g := graph.RMAT(p)
		mp, err := Build(g, partition.Chunked{}, 12, partition.Multilevel{Seed: seed})
		if err != nil {
			return false
		}
		for _, k := range []int{2, 3, 4, 6} {
			va, err := mp.VertexAssignment(k)
			if err != nil {
				return false
			}
			if partition.Imbalance(va.Assign, k, nil) > 1.6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}
