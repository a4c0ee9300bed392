package dist

import (
	"context"
	"fmt"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/engine"
	"hourglass/internal/graph"
	"hourglass/internal/obs"
)

// folded sums the sends the shards combined before shipping.
func folded(sink *captureSink) int64 {
	return obs.Summarize(sink.byType(obs.EvSuperstep)).Combined
}

// TestDistExactCombinerCanonical is the shard kernel's half of the
// exactness contract: every ExactCombiner program, run Canonical over
// 1, 2 and 4 shards, keeps the combining slots (the superstep events
// report folded sends) and still matches the in-process engine bit for
// bit — which the engine's own tests tie to the raw sorted path.
func TestDistExactCombinerCanonical(t *testing.T) {
	for _, pspec := range []ProgramSpec{
		{Name: "pagerank", Iterations: 10},
		{Name: "sssp", Source: 0},
		{Name: "wcc"},
		{Name: "bfs", Source: 3},
	} {
		pspec := pspec
		t.Run(pspec.Name, func(t *testing.T) {
			t.Parallel()
			ref := refRun(t, pspec, true)
			for _, shards := range []int{1, 2, 4} {
				sink := &captureSink{}
				rep, err := RunCluster(context.Background(), Config{
					Job:       fmt.Sprintf("exact-%s-%d", pspec.Name, shards),
					Program:   pspec,
					Graph:     testGraph,
					Canonical: true,
					Store:     cloud.NewDatastore(),
					Sink:      sink,
				}, shards, nil)
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				assertBitIdentical(t, rep.Values, ref.Values, fmt.Sprintf("%d shards", shards))
				if rep.Stats.MessagesSent != ref.Stats.MessagesSent || rep.Stats.Supersteps != ref.Stats.Supersteps {
					t.Errorf("%d shards: stats %+v, engine %+v", shards, rep.Stats, ref.Stats)
				}
				if folded(sink) == 0 {
					t.Errorf("%d shards: no send was folded — the canonical session shipped raw terms", shards)
				}
			}
		})
	}
}

// TestDistUnmarkedProgramShipsRaw pins the fallback: a program without
// the marker (GraphColoring has no combiner at all) still ships every
// term under Canonical and folds nothing at the sender.
func TestDistUnmarkedProgramShipsRaw(t *testing.T) {
	pspec := ProgramSpec{Name: "graphcoloring"}
	ref := refRun(t, pspec, true)
	sink := &captureSink{}
	rep, err := RunCluster(context.Background(), Config{
		Job: "exact-raw", Program: pspec, Graph: testGraph, Canonical: true,
		Store: cloud.NewDatastore(), Sink: sink,
	}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, rep.Values, ref.Values, "graphcoloring")
	if n := folded(sink); n != 0 {
		t.Errorf("%d sends folded at the sender on the raw path", n)
	}
}

// slotSplits replays shard 0's first PageRank superstep over two
// shards (every vertex active, ascending scan, v mod 2 placement) and
// counts the destinations whose combining slot ships in one threshold
// flush and is reopened by a later send — the partial folds only an
// exact combiner may leave to the receiver.
func slotSplits(g *graph.Graph) int {
	n := g.NumVertices()
	staged := make([]bool, n)
	shipped := make([]bool, n)
	var open []graph.VertexID
	splits := 0
	for v := 0; v < n; v += 2 {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if u%2 == 0 || staged[u] {
				continue
			}
			if shipped[u] {
				splits++
				shipped[u] = false
			}
			staged[u] = true
			open = append(open, u)
			if len(open) >= peerFlushThreshold {
				for _, d := range open {
					staged[d], shipped[d] = false, true
				}
				open = open[:0]
			}
		}
	}
	return splits
}

// TestDistExactCombinerFlushSplit runs canonical PageRank on a graph
// big enough that peerFlushThreshold ships a peer's slots mid-scan, so
// single destinations arrive as several partial sums in an order set by
// the network. On the share grid that is still the same bits.
func TestDistExactCombinerFlushSplit(t *testing.T) {
	if testing.Short() {
		t.Skip("scale-15 graph")
	}
	gspec := GraphSpec{Scale: 15, Seed: 9, Undirected: true}
	g, err := gspec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if s := slotSplits(g); s == 0 {
		t.Fatal("no destination slot is split by a threshold flush: the graph is too small for this test")
	}
	pspec := ProgramSpec{Name: "pagerank", Iterations: 4}
	prog, err := pspec.New()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := engine.Run(g, prog, engine.Config{Workers: 3, Canonical: true})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunCluster(context.Background(), Config{
		Job: "exact-split", Program: pspec, Graph: gspec, Canonical: true,
		Store: cloud.NewDatastore(),
	}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, rep.Values, ref.Values, "flush-split pagerank")
}
