package engine

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/graph"
)

func runOK(t *testing.T, g *graph.Graph, p Program, cfg Config) Result {
	t.Helper()
	res, err := Run(g, p, cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", p.Name(), err)
	}
	return res
}

func TestConfigValidation(t *testing.T) {
	g := graph.Path(4)
	if _, err := Run(g, &SSSP{}, Config{Workers: 0}); err == nil {
		t.Error("workers=0 accepted")
	}
	if _, err := Run(g, &SSSP{}, Config{Workers: 2, Assign: []int32{0}}); err == nil {
		t.Error("short assignment accepted")
	}
	if _, err := Run(g, &SSSP{}, Config{Workers: 2, Assign: []int32{0, 1, 2, 0}}); err == nil {
		t.Error("out-of-range worker accepted")
	}
}

func TestSSSPOnPath(t *testing.T) {
	g := graph.Path(5)
	res := runOK(t, g, &SSSP{Source: 0}, Config{Workers: 2})
	for v, want := range []float64{0, 1, 2, 3, 4} {
		if res.Values[v] != want {
			t.Errorf("dist[%d] = %v, want %v", v, res.Values[v], want)
		}
	}
}

func TestSSSPWeighted(t *testing.T) {
	// 0 →(5) 1, 0 →(1) 2 →(1) 1: shortest 0→1 is 2 via vertex 2.
	g := graph.FromEdges(3, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 5},
		{Src: 0, Dst: 2, Weight: 1},
		{Src: 2, Dst: 1, Weight: 1},
	}, graph.Weighted())
	res := runOK(t, g, &SSSP{Source: 0}, Config{Workers: 1})
	if res.Values[1] != 2 {
		t.Errorf("dist[1] = %v, want 2", res.Values[1])
	}
}

func TestSSSPUnreachable(t *testing.T) {
	g := graph.FromEdges(3, []graph.Edge{{Src: 0, Dst: 1, Weight: 1}})
	res := runOK(t, g, &SSSP{Source: 0}, Config{Workers: 2})
	if !math.IsInf(res.Values[2], 1) {
		t.Errorf("dist[2] = %v, want +Inf", res.Values[2])
	}
}

func TestSSSPMatchesDijkstraOnRandomGraph(t *testing.T) {
	p := graph.DefaultRMAT(9, 17)
	p.Undirected = true
	p.Weighted = true
	g := graph.RMAT(p)
	res := runOK(t, g, &SSSP{Source: 0}, Config{Workers: 4})
	want := dijkstra(g, 0)
	for v := range want {
		if !FloatEqual(res.Values[v], want[v], 1e-9) {
			t.Fatalf("dist[%d] = %v, want %v", v, res.Values[v], want[v])
		}
	}
}

// dijkstra is a reference implementation (O(V²), fine for tests).
func dijkstra(g *graph.Graph, src graph.VertexID) []float64 {
	n := g.NumVertices()
	dist := make([]float64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[src] = 0
	for {
		u, best := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !done[v] && dist[v] < best {
				u, best = v, dist[v]
			}
		}
		if u < 0 {
			return dist
		}
		done[u] = true
		weights := g.EdgeWeights(graph.VertexID(u))
		for i, nb := range g.Neighbors(graph.VertexID(u)) {
			w := 1.0
			if weights != nil {
				w = float64(weights[i])
			}
			if dist[u]+w < dist[nb] {
				dist[nb] = dist[u] + w
			}
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	p := graph.DefaultRMAT(9, 5)
	p.Undirected = true // no dangling sinks, rank mass conserved
	g := graph.RMAT(p)
	res := runOK(t, g, &PageRank{Iterations: 20}, Config{Workers: 4})
	sum := 0.0
	for _, r := range res.Values {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("rank sum = %v, want 1", sum)
	}
}

func TestPageRankRingIsUniform(t *testing.T) {
	g := graph.Ring(10)
	res := runOK(t, g, &PageRank{Iterations: 30}, Config{Workers: 3})
	for v, r := range res.Values {
		if !FloatEqual(r, 0.1, 1e-9) {
			t.Errorf("rank[%d] = %v, want 0.1", v, r)
		}
	}
}

func TestPageRankHubGetsMoreRank(t *testing.T) {
	// Star: center receives from all leaves.
	edges := []graph.Edge{}
	for i := 1; i < 10; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: 0, Weight: 1})
	}
	// Center links back to leaf 1 so rank keeps flowing.
	edges = append(edges, graph.Edge{Src: 0, Dst: 1, Weight: 1})
	g := graph.FromEdges(10, edges)
	res := runOK(t, g, &PageRank{Iterations: 30}, Config{Workers: 2})
	for v := 2; v < 10; v++ {
		if res.Values[0] <= res.Values[v] {
			t.Errorf("hub rank %v not above leaf %d rank %v", res.Values[0], v, res.Values[v])
		}
	}
}

func TestPageRankDeterministicAcrossWorkerCounts(t *testing.T) {
	p := graph.DefaultRMAT(8, 5)
	p.Undirected = true
	g := graph.RMAT(p)
	r1 := runOK(t, g, &PageRank{Iterations: 10}, Config{Workers: 1})
	r8 := runOK(t, g, &PageRank{Iterations: 10}, Config{Workers: 8})
	for v := range r1.Values {
		if !FloatEqual(r1.Values[v], r8.Values[v], 1e-12) {
			t.Fatalf("rank[%d] differs across worker counts: %v vs %v", v, r1.Values[v], r8.Values[v])
		}
	}
}

func TestWCCOnTwoComponents(t *testing.T) {
	g := graph.FromEdges(6, []graph.Edge{
		{Src: 0, Dst: 1, Weight: 1}, {Src: 1, Dst: 2, Weight: 1},
		{Src: 3, Dst: 4, Weight: 1}, {Src: 4, Dst: 5, Weight: 1},
	}, graph.Undirected())
	res := runOK(t, g, WCC{}, Config{Workers: 2})
	for v := 0; v < 3; v++ {
		if res.Values[v] != 0 {
			t.Errorf("component[%d] = %v, want 0", v, res.Values[v])
		}
	}
	for v := 3; v < 6; v++ {
		if res.Values[v] != 3 {
			t.Errorf("component[%d] = %v, want 3", v, res.Values[v])
		}
	}
}

func TestBFSLevels(t *testing.T) {
	g := graph.Grid(3, 3) // vertex 0 at corner
	res := runOK(t, g, &BFS{Source: 0}, Config{Workers: 2})
	want := []float64{0, 1, 2, 1, 2, 3, 2, 3, 4}
	for v := range want {
		if res.Values[v] != want[v] {
			t.Errorf("level[%d] = %v, want %v", v, res.Values[v], want[v])
		}
	}
}

func TestGraphColoringValid(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"ring", graph.Ring(11)},
		{"complete", graph.Complete(8)},
		{"grid", graph.Grid(8, 8)},
		{"rmat", undirectedRMAT(10, 3)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := runOK(t, tc.g, &GraphColoring{}, Config{Workers: 4})
			colors, ok := ValidateColoring(tc.g, res.Values)
			if !ok {
				t.Fatal("invalid coloring: adjacent vertices share a color")
			}
			if colors < 1 {
				t.Fatal("no colors used")
			}
			maxColors := tc.g.MaxDegree() + 1 // greedy bound
			if colors > maxColors {
				t.Errorf("used %d colors, greedy bound %d", colors, maxColors)
			}
		})
	}
}

func TestGraphColoringCompleteUsesNColors(t *testing.T) {
	g := graph.Complete(6)
	res := runOK(t, g, &GraphColoring{}, Config{Workers: 2})
	colors, ok := ValidateColoring(g, res.Values)
	if !ok || colors != 6 {
		t.Errorf("K6 coloring: %d colors, valid=%v; want exactly 6", colors, ok)
	}
}

func undirectedRMAT(scale int, seed int64) *graph.Graph {
	p := graph.DefaultRMAT(scale, seed)
	p.Undirected = true
	return graph.RMAT(p)
}

func TestStatsPopulated(t *testing.T) {
	g := graph.Path(6)
	res := runOK(t, g, &SSSP{Source: 0}, Config{Workers: 2})
	if res.Stats.Supersteps == 0 || res.Stats.MessagesSent == 0 || res.Stats.ComputeCalls == 0 {
		t.Errorf("empty stats: %+v", res.Stats)
	}
}

func TestMaxSuperstepsGuard(t *testing.T) {
	g := graph.Ring(4)
	// PageRank with huge iteration count trips the guard.
	_, err := Run(g, &PageRank{Iterations: 100}, Config{Workers: 1, MaxSupersteps: 5})
	if err == nil {
		t.Fatal("expected superstep-limit error")
	}
}

func TestPauseAndResumeSameConfig(t *testing.T) {
	g := undirectedRMAT(9, 7)
	full := runOK(t, g, &PageRank{Iterations: 12}, Config{Workers: 4})

	res, err := Run(g, &PageRank{Iterations: 12}, Config{Workers: 4, StopAfter: 5})
	if !errors.Is(err, ErrPaused) {
		t.Fatalf("expected ErrPaused, got %v", err)
	}
	if res.Snapshot == nil {
		t.Fatal("paused run has no snapshot")
	}
	resumed, err := Resume(g, &PageRank{Iterations: 12}, res.Snapshot, Config{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := range full.Values {
		if !FloatEqual(full.Values[v], resumed.Values[v], 1e-12) {
			t.Fatalf("resume diverged at vertex %d: %v vs %v", v, resumed.Values[v], full.Values[v])
		}
	}
}

func TestResumeOnDifferentWorkerCount(t *testing.T) {
	// The fast-reload property: a checkpoint from a 4-worker run must
	// restore correctly on 2 or 8 workers with a different assignment.
	g := undirectedRMAT(9, 8)
	full := runOK(t, g, &PageRank{Iterations: 10}, Config{Workers: 4})
	res, err := Run(g, &PageRank{Iterations: 10}, Config{Workers: 4, StopAfter: 4})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 8} {
		resumed, err := Resume(g, &PageRank{Iterations: 10}, res.Snapshot, Config{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for v := range full.Values {
			if !FloatEqual(full.Values[v], resumed.Values[v], 1e-12) {
				t.Fatalf("workers=%d diverged at %d", workers, v)
			}
		}
	}
}

func TestResumeGraphColoringWithAuxState(t *testing.T) {
	g := undirectedRMAT(9, 9)
	fullProg := &GraphColoring{}
	full := runOK(t, g, fullProg, Config{Workers: 4})

	pauseProg := &GraphColoring{}
	res, err := Run(g, pauseProg, Config{Workers: 4, StopAfter: 2})
	if !errors.Is(err, ErrPaused) {
		t.Fatalf("expected pause, got %v", err)
	}
	// Round-trip the snapshot through the durable checkpoint format too.
	m := &CheckpointManager{Store: cloud.NewDatastore(), Job: "gc/aux"}
	if _, err := m.Save(res.Snapshot); err != nil {
		t.Fatal(err)
	}
	snap, _, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	resumeProg := &GraphColoring{}
	resumed, err := Resume(g, resumeProg, snap, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ValidateColoring(g, resumed.Values); !ok {
		t.Fatal("resumed coloring invalid")
	}
	// Jones–Plassmann is deterministic given priorities, so the resumed
	// coloring must equal the uninterrupted one.
	for v := range full.Values {
		if full.Values[v] != resumed.Values[v] {
			t.Fatalf("color[%d] = %v after resume, want %v", v, resumed.Values[v], full.Values[v])
		}
	}
}

func TestResumeRejectsMismatches(t *testing.T) {
	g := graph.Path(4)
	res, err := Run(g, &PageRank{Iterations: 8}, Config{Workers: 1, StopAfter: 2})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	if _, err := Resume(g, &SSSP{}, res.Snapshot, Config{Workers: 1}); err == nil {
		t.Error("program mismatch accepted")
	}
	if _, err := Resume(graph.Path(5), &PageRank{Iterations: 8}, res.Snapshot, Config{Workers: 1}); err == nil {
		t.Error("vertex-count mismatch accepted")
	}
	if _, err := Resume(g, &PageRank{Iterations: 8}, nil, Config{Workers: 1}); err == nil {
		t.Error("nil snapshot accepted")
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := &Snapshot{
		Program:     "pagerank",
		Superstep:   3,
		NumVertices: 2,
		Values:      []float64{0.25, 0.75},
		Active:      []bool{true, false},
		Pending:     []Message{{0, 1.5}, {1, 2.5}},
		AggValues:   map[string]float64{"sum": 4.2, "max": 1},
		Aux:         [][]byte{{9, 8, 7}, {}},
	}
	store := cloud.NewDatastore()
	m := &CheckpointManager{Store: store, Job: "codec/pr"}
	if _, err := m.Save(s); err != nil {
		t.Fatal(err)
	}
	blob, _, err := store.Get(ckpt.BlobKey(m.Job, s.Superstep, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s.SizeBytes() != int64(len(blob)) {
		t.Errorf("SizeBytes = %d, Save wrote a %d-byte blob", s.SizeBytes(), len(blob))
	}
	back, _, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if back.Program != s.Program || back.Superstep != s.Superstep ||
		back.NumVertices != s.NumVertices || !reflect.DeepEqual(back.Pending, s.Pending) ||
		!reflect.DeepEqual(back.AggValues, s.AggValues) || !bytes.Equal(back.Aux[0], s.Aux[0]) || len(back.Aux[1]) != 0 {
		t.Errorf("round trip mismatch: %+v", back)
	}
	if back.Values[1] != 0.75 || back.Active[0] != true || back.Active[1] != false {
		t.Errorf("vertex state mismatch: %+v", back)
	}
}

// TestSnapshotBadMagic: a blob whose trailer magic is wrong is not a
// checkpoint, so Load skips it and finds nothing to restore.
func TestSnapshotBadMagic(t *testing.T) {
	if _, err := ckpt.DecodeBlob([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8}); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("expected a corrupt-object error, got %v", err)
	}
	store := cloud.NewDatastore()
	m := &CheckpointManager{Store: store, Job: "magic/pr"}
	res, err := Run(graph.Path(4), &PageRank{Iterations: 8}, Config{Workers: 1, StopAfter: 2})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	if _, err := m.Save(res.Snapshot); err != nil {
		t.Fatal(err)
	}
	key := ckpt.BlobKey(m.Job, res.Snapshot.Superstep, 0)
	blob, _, _ := store.Get(key)
	blob[len(blob)-8] ^= 0xFF // first byte of the trailer magic
	store.Put(key, blob)
	if _, _, err := m.Load(); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("bad-magic blob restored: err = %v", err)
	}
}

// aggregatorProbe exercises the aggregator machinery: counts active
// vertices each superstep via a sum aggregator and stops when the
// count seen from the previous superstep reaches the vertex count.
type aggregatorProbe struct{ seen []float64 }

func (a *aggregatorProbe) Name() string { return "aggprobe" }
func (a *aggregatorProbe) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	return 0, true
}
func (a *aggregatorProbe) Aggregators() []AggregatorSpec {
	return []AggregatorSpec{{Name: "count", Identity: 0, Reduce: func(x, y float64) float64 { return x + y }}}
}
func (a *aggregatorProbe) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	if v == 0 {
		a.seen = append(a.seen, ctx.AggregatedValue("count"))
	}
	ctx.Aggregate("count", 1)
	if ctx.Superstep() >= 2 {
		ctx.VoteToHalt(v)
	}
}

func TestAggregatorsReduceAcrossWorkers(t *testing.T) {
	g := graph.Ring(12)
	probe := &aggregatorProbe{}
	runOK(t, g, probe, Config{Workers: 4})
	// Superstep 0 sees the identity, later supersteps see 12.
	if probe.seen[0] != 0 {
		t.Errorf("superstep 0 aggregate = %v, want identity 0", probe.seen[0])
	}
	if probe.seen[1] != 12 {
		t.Errorf("superstep 1 aggregate = %v, want 12", probe.seen[1])
	}
}

func TestCombinerReducesTraffic(t *testing.T) {
	// On a star toward vertex 0, min-combining SSSP messages must not
	// change results (correctness is covered elsewhere); here we check
	// the inbox actually collapses: run WCC on a complete graph and
	// ensure it terminates quickly with combined messages.
	g := graph.Complete(16)
	res := runOK(t, g, WCC{}, Config{Workers: 4})
	for _, v := range res.Values {
		if v != 0 {
			t.Fatalf("complete graph must collapse to component 0, got %v", v)
		}
	}
}

func TestCustomAssignmentRouting(t *testing.T) {
	g := graph.Path(8)
	assign := []int32{0, 1, 0, 1, 0, 1, 0, 1}
	res := runOK(t, g, &SSSP{Source: 0}, Config{Workers: 2, Assign: assign})
	for v := 0; v < 8; v++ {
		if res.Values[v] != float64(v) {
			t.Fatalf("dist[%d] = %v with custom assignment", v, res.Values[v])
		}
	}
}

func TestRemoteMessagesTrackPartitionQuality(t *testing.T) {
	// A good partitioning keeps neighbours co-located, so the engine
	// should ship far fewer cross-worker messages than under hashing —
	// the §3.2 claim connecting partition quality to runtime.
	g := graph.Grid(24, 24)
	workers := 4
	// Contiguous stripes of the grid: near-optimal locality.
	striped := make([]int32, g.NumVertices())
	per := (g.NumVertices() + workers - 1) / workers
	for v := range striped {
		striped[v] = int32(v / per)
	}
	good := runOK(t, g, &PageRank{Iterations: 5},
		Config{Workers: workers, Assign: striped})
	hashed := runOK(t, g, &PageRank{Iterations: 5}, Config{Workers: workers})
	if good.Stats.MessagesSent != hashed.Stats.MessagesSent {
		t.Fatalf("total messages differ: %d vs %d", good.Stats.MessagesSent, hashed.Stats.MessagesSent)
	}
	if good.Stats.RemoteMessages*2 >= hashed.Stats.RemoteMessages {
		t.Errorf("striped remote=%d not well below hashed remote=%d",
			good.Stats.RemoteMessages, hashed.Stats.RemoteMessages)
	}
	if good.Stats.RemoteMessages > good.Stats.MessagesSent {
		t.Error("remote exceeds total")
	}
}

// uncombined wraps a Program to hide its Combiner interface, forcing
// the engine down the append-every-message path. Aggregators are
// forwarded (only combining is suppressed).
type uncombined struct{ Program }

func (u *uncombined) Aggregators() []AggregatorSpec {
	if a, ok := u.Program.(Aggregators); ok {
		return a.Aggregators()
	}
	return nil
}

func TestCombinerEquivalence(t *testing.T) {
	// Results must be identical with and without message combining
	// (PageRank sums and SSSP mins are associative+commutative).
	g := undirectedRMAT(9, 33)
	pr := runOK(t, g, &PageRank{Iterations: 10}, Config{Workers: 4})
	prPlain := runOK(t, g, &uncombined{&PageRank{Iterations: 10}}, Config{Workers: 4})
	for v := range pr.Values {
		if !FloatEqual(pr.Values[v], prPlain.Values[v], 1e-9) {
			t.Fatalf("pagerank combiner changed result at %d: %v vs %v",
				v, pr.Values[v], prPlain.Values[v])
		}
	}
	sp := runOK(t, g, &SSSP{Source: 1}, Config{Workers: 4})
	spPlain := runOK(t, g, &uncombined{&SSSP{Source: 1}}, Config{Workers: 4})
	for v := range sp.Values {
		if !FloatEqual(sp.Values[v], spPlain.Values[v], 0) {
			t.Fatalf("sssp combiner changed result at %d", v)
		}
	}
	// And combining must actually reduce inbox traffic on dense graphs
	// (same messages sent, fewer stored — observable via identical
	// stats but it must not *increase* anything).
	if pr.Stats.MessagesSent != prPlain.Stats.MessagesSent {
		t.Errorf("combiner changed send counts: %d vs %d",
			pr.Stats.MessagesSent, prPlain.Stats.MessagesSent)
	}
}
