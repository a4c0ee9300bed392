package graph

import (
	"bytes"
	"strings"
	"testing"
)

func TestEdgeListRoundTrip(t *testing.T) {
	g := RMAT(DefaultRMAT(8, 77))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Reader compacts ids, so compare edge counts and degree multiset.
	if back.NumEdges() != g.NumEdges() {
		t.Errorf("edges after round trip = %d, want %d", back.NumEdges(), g.NumEdges())
	}
}

func TestReadEdgeListCommentsAndWeights(t *testing.T) {
	in := `# a comment
% another
10 20 0.5
20 30
`
	g, err := ReadEdgeList(strings.NewReader(in), Weighted())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 {
		t.Fatalf("vertices = %d, want 3 (compacted)", g.NumVertices())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("edges = %d, want 2", g.NumEdges())
	}
	if w := g.EdgeWeights(0); len(w) != 1 || w[0] != 0.5 {
		t.Errorf("weight = %v, want [0.5]", w)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"1\n",       // too few fields
		"a b\n",     // bad src
		"1 b\n",     // bad dst
		"1 2 zoo\n", // bad weight
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected error", in)
		}
	}
}

func TestDatasetRegistry(t *testing.T) {
	ds := Datasets()
	if len(ds) != 5 {
		t.Fatalf("registry has %d datasets, want 5 (Table 2 real graphs)", len(ds))
	}
	if _, err := ByName("twitter"); err != nil {
		t.Errorf("ByName(twitter): %v", err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Errorf("ByName(nope) should fail")
	}
	names := SortedNames()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("SortedNames not sorted: %v", names)
		}
	}
}

func TestDatasetGenerationAndCache(t *testing.T) {
	d, err := ByName("human-gene")
	if err != nil {
		t.Fatal(err)
	}
	g1 := Load(d, 0.1)
	g2 := Load(d, 0.1)
	if g1 != g2 {
		t.Error("Load did not memoise")
	}
	if g1.NumVertices() < 64 {
		t.Errorf("scaled dataset too small: %d", g1.NumVertices())
	}
	st := ComputeStats(d, g1)
	if st.Name != "human-gene" || st.Vertices != g1.NumVertices() {
		t.Errorf("stats mismatch: %+v", st)
	}
}

func TestRMATDatasetSizes(t *testing.T) {
	d := RMATDataset(10)
	if d.PaperVertices != 1024 || d.PaperEdges != 1<<14 {
		t.Errorf("RMAT-10 paper sizes wrong: %+v", d)
	}
	g := d.Generate(1.0)
	if g.NumVertices() != 1024 {
		t.Errorf("RMAT-10 generated %d vertices, want 1024", g.NumVertices())
	}
}
