package engine

import (
	"errors"
	"math"
	"sync"
	"testing"

	"hourglass/internal/ckpt"
	"hourglass/internal/graph"
)

// foldProbe is a combiner program that records the largest msgs slice
// Compute ever observed. With a combiner present the engine must fold
// every message addressed to a vertex into a single value — including
// pending messages restored from a checkpoint. It sums what it sees so
// the fold total is also checkable.
type foldProbe struct {
	mu      sync.Mutex
	maxMsgs int
}

func (p *foldProbe) Name() string { return "foldprobe" }
func (p *foldProbe) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	return 0, false
}
func (p *foldProbe) Fold() Fold { return Sum }
func (p *foldProbe) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	p.mu.Lock()
	if len(msgs) > p.maxMsgs {
		p.maxMsgs = len(msgs)
	}
	p.mu.Unlock()
	sum := ctx.Value(v)
	for _, m := range msgs {
		sum += m
	}
	ctx.SetValue(v, sum)
	ctx.VoteToHalt(v)
}

// TestResumeFoldsPendingWithCombiner is the regression test for the
// old delivery loop's `len(box) == 1` combiner branch: a checkpoint
// carrying several uncombined messages for one vertex (e.g. written by
// an engine without sender-side combining) left duplicates in the
// inbox, so Compute saw more than one message despite the combiner.
// The message plane must fold unconditionally.
func TestResumeFoldsPendingWithCombiner(t *testing.T) {
	g := graph.Path(4)
	probe := &foldProbe{}
	snap := &Snapshot{Program: probe.Name(), Superstep: 3, blobs: []*ckpt.Blob{{Superstep: 3, Full: true,
		Vertex: []int32{0, 1, 2, 3}, Value: make([]float64, 4), Active: make([]bool, 4),
		PendDst: []int32{1, 1, 1, 2}, PendVal: []float64{1, 2, 4, 8}}}}
	res, err := Resume(g, probe, snap, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if probe.maxMsgs > 1 {
		t.Errorf("combiner program saw %d messages in one Compute call, want ≤1", probe.maxMsgs)
	}
	if res.Values[1] != 7 || res.Values[2] != 8 {
		t.Errorf("folded values = %v/%v, want 7/8", res.Values[1], res.Values[2])
	}
}

// TestPauseResumeEquivalence pauses runs mid-flight on both message
// planes (dense combiner slots and pooled arenas), resumes them — on a
// different worker count, as fast reload does — and checks the final
// values match an uninterrupted run. Exact equality where the fold is
// exact (min), tight epsilon where float sums reassociate (PageRank).
func TestPauseResumeEquivalence(t *testing.T) {
	p := graph.DefaultRMAT(10, 21)
	p.Undirected = true
	p.Weighted = true
	g := graph.RMAT(p)
	cases := []struct {
		name string
		mk   func() Program
		eps  float64
	}{
		{"sssp-combined", func() Program { return &SSSP{Source: 3} }, 0},
		{"sssp-pooled", func() Program { return &uncombined{&SSSP{Source: 3}} }, 0},
		{"wcc-combined", func() Program { return WCC{} }, 0},
		{"pagerank-combined", func() Program { return &PageRank{Iterations: 12} }, 1e-12},
		{"labelprop-pooled", func() Program { return &LabelPropagation{Rounds: 8} }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			full := runOK(t, g, tc.mk(), Config{Workers: 4})
			for _, stopAfter := range []int{1, 3} {
				res, err := Run(g, tc.mk(), Config{Workers: 4, StopAfter: stopAfter})
				if err == nil {
					continue // finished before the pause point
				}
				if !errors.Is(err, ErrPaused) {
					t.Fatal(err)
				}
				resumed, err := Resume(g, tc.mk(), res.Snapshot, Config{Workers: 3})
				if err != nil {
					t.Fatal(err)
				}
				for v := range full.Values {
					if !FloatEqual(full.Values[v], resumed.Values[v], tc.eps) {
						t.Fatalf("stopAfter=%d diverged at vertex %d: %v vs %v",
							stopAfter, v, resumed.Values[v], full.Values[v])
					}
				}
			}
		})
	}
}

// TestWorklistComputesExactFrontier checks the active worklists
// neither drop nor duplicate work: SSSP on an undirected path has a
// fully determined schedule — each superstep computes the frontier
// vertex plus (from superstep 2 on) the already-settled predecessor
// the frontier pinged back, and nothing else.
func TestWorklistComputesExactFrontier(t *testing.T) {
	n := 64
	g := graph.Path(n)
	sink := &captureSink{}
	res := runOK(t, g, &SSSP{Source: 0}, Config{Workers: 4, Sink: sink})
	if len(sink.events) != n+1 {
		t.Fatalf("got %d supersteps, want %d", len(sink.events), n+1)
	}
	for i, st := range sink.events {
		want := int64(2)
		if i <= 1 || i == n {
			want = 1
		}
		if st.Active != want {
			t.Errorf("superstep %d computed %d vertices, want %d", i, st.Active, want)
		}
	}
	// 2n-1 total compute calls: strictly frontier-proportional, no
	// full-graph sweeps.
	if res.Stats.ComputeCalls != int64(2*n-1) {
		t.Errorf("ComputeCalls = %d, want %d (frontier-proportional)", res.Stats.ComputeCalls, 2*n-1)
	}
}

// TestHaltedVertexReawakensOnce: a vertex messaged by many senders
// spread over several workers in the same superstep must be
// re-enqueued exactly once, on both message planes.
func TestHaltedVertexReawakensOnce(t *testing.T) {
	// Directed star toward vertex 0: eight leaves on four workers all
	// message vertex 0 in superstep 0.
	edges := []graph.Edge{}
	for i := 1; i < 9; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: 0, Weight: 1})
	}
	g := graph.FromEdges(9, edges)
	for _, tc := range []struct {
		name string
		prog Program
	}{
		{"combined", WCC{}},
		{"pooled", &uncombined{WCC{}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &captureSink{}
			res := runOK(t, g, tc.prog, Config{Workers: 4, Sink: sink})
			if res.Values[0] != 0 {
				t.Fatalf("component[0] = %v, want 0", res.Values[0])
			}
			// Superstep 0 computes all 9 vertices; superstep 1 computes
			// vertex 0 once (a single worklist entry despite in-degree 8).
			if sink.events[0].Active != 9 {
				t.Errorf("superstep 0 computed %d vertices, want 9", sink.events[0].Active)
			}
			if sink.events[1].Active != 1 {
				t.Errorf("superstep 1 computed %d vertices, want 1", sink.events[1].Active)
			}
		})
	}
}

// TestEightWorkerPowerLawUnderRace drives both message planes with 8
// workers on a power-law RMAT graph, including two concurrent runs on
// the shared graph — the -race CI job turns this into a data-race
// audit of the compute/delivery sharding.
func TestEightWorkerPowerLawUnderRace(t *testing.T) {
	p := graph.DefaultRMAT(11, 5)
	p.Undirected = true
	g := graph.RMAT(p)

	var wg sync.WaitGroup
	results := make([]Result, 2)
	for i, prog := range []Program{
		&PageRank{Iterations: 8},                  // combiner plane
		&uncombined{&LabelPropagation{Rounds: 8}}, // pooled plane
	} {
		wg.Add(1)
		go func(i int, prog Program) {
			defer wg.Done()
			res, err := Run(g, prog, Config{Workers: 8})
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			results[i] = res
		}(i, prog)
	}
	wg.Wait()

	sum := 0.0
	for _, r := range results[0].Values {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Errorf("concurrent pagerank mass = %v, want 1", sum)
	}
	if n := Communities(results[1].Values); n < 1 || n > g.NumVertices() {
		t.Errorf("labelprop found %d communities", n)
	}

	// And the dense plane must agree with a single-worker reference.
	ref := runOK(t, g, &PageRank{Iterations: 8}, Config{Workers: 1})
	for v := range ref.Values {
		if !FloatEqual(ref.Values[v], results[0].Values[v], 1e-12) {
			t.Fatalf("8-worker rank diverged at %d: %v vs %v", v, results[0].Values[v], ref.Values[v])
		}
	}
}
