package dist

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"hourglass/internal/engine"
	"hourglass/internal/graph"
)

// hopProbe propagates min hop costs along every out-edge, through
// SendToNeighbors or, with each set, one Send per neighbour.
type hopProbe struct{ each bool }

func (hopProbe) Name() string      { return "hop-probe" }
func (hopProbe) Fold() engine.Fold { return engine.Min }
func (hopProbe) Init(_ *graph.Graph, v graph.VertexID) (float64, bool) {
	return float64(v%13) / 10, true
}
func (p hopProbe) Compute(ctx *engine.Context, v graph.VertexID, msgs []float64) {
	x, send := ctx.Value(v), ctx.Superstep() == 0
	for _, m := range msgs {
		if m < x {
			x, send = m, true
		}
	}
	ctx.SetValue(v, x)
	switch {
	case !send:
	case p.each:
		for _, u := range ctx.Graph().Neighbors(v) {
			ctx.Send(u, x+0.1)
		}
	default:
		ctx.SendToNeighbors(v, x+0.1)
	}
	ctx.VoteToHalt(v)
}

// shardRun drives shards partitions of prog the way shardSession drives
// its kernel, in one goroutine: staged batches ship under
// ShipVia(threshold) during compute and the tail at the barrier; then
// each shard takes its local messages and is delivered the peers'
// batches in the order they shipped. It returns the final values, each
// shard's tally of each superstep and its batch count to each peer.
func shardRun(t *testing.T, g *graph.Graph, prog engine.Program, shards, threshold int) ([]float64, []engine.Tally, []int) {
	t.Helper()
	type batch struct {
		dst []int32
		val []float64
	}
	n := g.NumVertices()
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = int32(v % shards)
	}
	parts := make([]*engine.Partition, shards)
	inbox := make([][]batch, shards)
	sent := make([]int, shards*shards)
	for id := range parts {
		p, err := engine.NewPartition(g, prog, owner, id, shards, false)
		if err != nil {
			t.Fatal(err)
		}
		p.Init()
		p.ShipVia(threshold, func(to int, dst []int32, val []float64) {
			inbox[to] = append(inbox[to], batch{slices.Clone(dst), slices.Clone(val)})
			sent[id*shards+to]++
		})
		parts[id] = p
	}
	var tallies []engine.Tally
	var batches []int
	for s := 0; slices.ContainsFunc(parts, func(p *engine.Partition) bool { return p.Frontier() > 0 }); s++ {
		for id, p := range parts {
			p.Compute(p.Begin(s))
			for to := range parts {
				if to != id {
					p.Ship(to)
				}
			}
			tallies = append(tallies, p.Tally())
		}
		for id, p := range parts {
			p.Take(p)
			for _, b := range inbox[id] {
				p.Deliver(b.dst, b.val)
			}
			inbox[id] = inbox[id][:0]
			p.Settle()
			p.Release(id)
		}
		batches = append(batches, sent...)
		clear(sent)
	}
	values := make([]float64, n)
	for v := range values {
		values[v] = parts[owner[v]].Value(graph.VertexID(v))
	}
	return values, tallies, batches
}

// TestShardNeighbourLoopMatchesSends pins the neighbour loop's ShipVia
// splits to those of the Sends it replaces: at thresholds 1, 3 and
// peerFlushThreshold every shard ships as many batches to each peer in
// each superstep, with the same tallies and the same bits. A loop that
// checked the threshold once per neighbour list would ship later and
// fewer batches.
func TestShardNeighbourLoopMatchesSends(t *testing.T) {
	small, err := testGraph.Build()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		gspec     GraphSpec
		g         *graph.Graph
		threshold int
		shards    []int
	}{
		{testGraph, small, 1, []int{2, 4}},
		{testGraph, small, 3, []int{2, 4}},
		// At 4 shards no peer's outbox reaches the threshold on this graph.
		{GraphSpec{Scale: 15, Seed: 9, Undirected: true}, nil, peerFlushThreshold, []int{2}},
	} {
		t.Run(fmt.Sprintf("threshold=%d", tc.threshold), func(t *testing.T) {
			if tc.g == nil {
				if testing.Short() {
					t.Skip("scale-15 graph")
				}
				if tc.g, err = tc.gspec.Build(); err != nil {
					t.Fatal(err)
				}
			}
			for _, shards := range tc.shards {
				loop, loopTallies, loopBatches := shardRun(t, tc.g, hopProbe{}, shards, tc.threshold)
				each, eachTallies, eachBatches := shardRun(t, tc.g, hopProbe{each: true}, shards, tc.threshold)
				for v := range loop {
					if math.Float64bits(loop[v]) != math.Float64bits(each[v]) {
						t.Fatalf("%d shards: vertex %d: %v through the loop, %v by Sends", shards, v, loop[v], each[v])
					}
				}
				if !slices.Equal(loopTallies, eachTallies) {
					t.Fatalf("%d shards: tallies\n loop %v\n sends %v", shards, loopTallies, eachTallies)
				}
				if !slices.Equal(loopBatches, eachBatches) {
					t.Fatalf("%d shards: batches per superstep, sender and peer\n loop %v\n sends %v", shards, loopBatches, eachBatches)
				}
				if slices.Max(loopBatches) < 2 {
					t.Fatalf("%d shards: no shard shipped a peer twice in a superstep: the threshold never split a batch", shards)
				}
			}
		})
	}
}
