package engine

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"hourglass/internal/graph"
	"hourglass/internal/obs"
)

// unmarked hides a program's ExactCombiner marker and nothing else
// (uncombined forwards the aggregators, Combiner puts Combine back): it
// still combines outside canonical mode, but under Canonical it must
// take the raw sorted path — the reference the exact combining path is
// compared against.
type unmarked struct {
	uncombined
	Combiner
}

func hideMarker(p Program) Program { return &unmarked{uncombined{p}, p.(Combiner)} }

// exactPrograms are the bundled ExactCombiner programs.
var exactPrograms = []struct {
	name string
	mk   func() Program
}{
	{"pagerank", func() Program { return &PageRank{Iterations: 8} }},
	{"sssp", func() Program { return &SSSP{Source: 3} }},
	{"wcc", func() Program { return WCC{} }},
	{"bfs", func() Program { return &BFS{Source: 3} }},
}

func exactGraph() *graph.Graph {
	p := graph.DefaultRMAT(9, 77)
	p.Undirected = true
	p.Weighted = true
	return graph.RMAT(p)
}

func randomAssign(rng *rand.Rand, n, workers int) []int32 {
	a := make([]int32, n)
	for v := range a {
		a[v] = int32(rng.Intn(workers))
	}
	return a
}

func requireSameBits(t *testing.T, what string, ref, got []float64) {
	t.Helper()
	for v := range ref {
		if math.Float64bits(got[v]) != math.Float64bits(ref[v]) {
			t.Fatalf("%s: vertex %d: %x != %x", what, v, got[v], ref[v])
		}
	}
}

// TestExactCombinerMatchesSortedPath is the exactness contract: for
// every bundled ExactCombiner program, a Canonical run on the combining
// path is bit-identical to the same program on the raw sorted path
// (marker hidden), whatever the worker count and vertex placement, and
// across a pause resumed at a different worker count — from a folded
// snapshot and from an old-form one carrying raw pending terms.
func TestExactCombinerMatchesSortedPath(t *testing.T) {
	g := exactGraph()
	n := g.NumVertices()
	for _, pr := range exactPrograms {
		t.Run(pr.name, func(t *testing.T) {
			if _, ok := pr.mk().(ExactCombiner); !ok {
				t.Fatalf("%s does not declare ExactCombiner", pr.name)
			}
			ref := runOK(t, g, hideMarker(pr.mk()), Config{Workers: 1, Canonical: true})
			rng := rand.New(rand.NewSource(5))
			for _, w := range []int{1, 2, 3, 4, 7} {
				assign := randomAssign(rng, n, w)
				sink := &captureSink{}
				res := runOK(t, g, pr.mk(), Config{Workers: w, Assign: assign, Canonical: true, Sink: sink})
				requireSameBits(t, "combined", ref.Values, res.Values)
				if res.Stats.MessagesSent != ref.Stats.MessagesSent || res.Stats.Supersteps != ref.Stats.Supersteps {
					t.Fatalf("workers=%d: stats %+v differ from the sorted path's %+v", w, res.Stats, ref.Stats)
				}
				if obs.Summarize(sink.events).Combined == 0 {
					t.Fatalf("workers=%d: nothing folded at the sender — the canonical run took the raw path", w)
				}
				raw := runOK(t, g, hideMarker(pr.mk()), Config{Workers: w, Assign: assign, Canonical: true})
				requireSameBits(t, "sorted", ref.Values, raw.Values)

				// Pause on either path, resume combining on other workers.
				w2 := w%7 + 2
				for _, paused := range []Program{pr.mk(), hideMarker(pr.mk())} {
					part, err := Run(g, paused, Config{Workers: w, Assign: assign, Canonical: true, StopAfter: 3})
					if err == nil {
						continue // finished before the pause point
					}
					if !errors.Is(err, ErrPaused) {
						t.Fatal(err)
					}
					resumed, err := Resume(g, pr.mk(), part.Snapshot,
						Config{Workers: w2, Assign: randomAssign(rng, n, w2), Canonical: true})
					if err != nil {
						t.Fatal(err)
					}
					requireSameBits(t, "resumed", ref.Values, resumed.Values)
				}
			}
		})
	}
}

// TestRawPendingSnapshotResumesExactly pins the old snapshot form: a
// canonical run written before exact combining carries every pending
// term (several per vertex); resuming it on the combining path folds
// them and still lands on the reference bits, while the new form
// carries one folded value per vertex.
func TestRawPendingSnapshotResumesExactly(t *testing.T) {
	g := exactGraph()
	ref := runOK(t, g, &PageRank{Iterations: 8}, Config{Workers: 2, Canonical: true})
	perVertex := func(s *Snapshot) int {
		most, count := 0, map[graph.VertexID]int{}
		for _, m := range s.Pending {
			count[m.Dst]++
			if count[m.Dst] > most {
				most = count[m.Dst]
			}
		}
		return most
	}
	old, err := Run(g, hideMarker(&PageRank{Iterations: 8}), Config{Workers: 4, Canonical: true, StopAfter: 4})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	if perVertex(old.Snapshot) < 2 {
		t.Fatal("raw-path snapshot carries no vertex with several pending terms")
	}
	folded, err := Run(g, &PageRank{Iterations: 8}, Config{Workers: 4, Canonical: true, StopAfter: 4})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	if perVertex(folded.Snapshot) != 1 || len(folded.Snapshot.Pending) >= len(old.Snapshot.Pending) {
		t.Fatalf("combining snapshot carries %d pending (max %d per vertex), raw carries %d",
			len(folded.Snapshot.Pending), perVertex(folded.Snapshot), len(old.Snapshot.Pending))
	}
	resumed, err := Resume(g, &PageRank{Iterations: 8}, old.Snapshot, Config{Workers: 3, Canonical: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameBits(t, "resumed from raw pending", ref.Values, resumed.Values)
}

// shareAudit runs PageRank without a combiner so every share arrives
// as its own message, and audits them against the grid.
type shareAudit struct {
	uncombined
	t       *testing.T
	stepSum map[int]float64
}

func (a *shareAudit) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	for _, m := range msgs {
		if scaled := m / pageRankQuantum; scaled != math.Trunc(scaled) || m < 0 {
			a.t.Errorf("superstep %d: share %x is not a non-negative multiple of the quantum", ctx.Superstep(), m)
		}
		a.stepSum[ctx.Superstep()] += m
	}
	a.uncombined.Compute(ctx, v, msgs)
}

// TestPageRankShareGrid checks what makes PageRank's sum exact: every
// share is a multiple of pageRankQuantum and one superstep's shares
// total less than pageRankMassBound — so every partial sum fits the
// significand — and that the rounding is harmless: ranks stay within
// 1e-10 of a plain, unquantised power iteration.
func TestPageRankShareGrid(t *testing.T) {
	p := graph.DefaultRMAT(9, 31) // directed: leaves dangling vertices
	g := graph.RMAT(p)
	n := g.NumVertices()
	const iters = 10
	audit := &shareAudit{uncombined: uncombined{&PageRank{Iterations: iters}}, t: t, stepSum: map[int]float64{}}
	res := runOK(t, g, audit, Config{Workers: 1})
	if len(audit.stepSum) != iters {
		t.Fatalf("audited %d supersteps, want %d", len(audit.stepSum), iters)
	}
	for step, sum := range audit.stepSum {
		if sum >= pageRankMassBound || sum > 1+1e-9 {
			t.Errorf("superstep %d: shares total %v, want ≤ 1 (bound %d)", step, sum, pageRankMassBound)
		}
	}

	const d = 0.85
	rank := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / float64(n)
	}
	for it := 0; it < iters; it++ {
		next := make([]float64, n)
		dangling := 0.0
		for v := 0; v < n; v++ {
			nbrs := g.Neighbors(graph.VertexID(v))
			if len(nbrs) == 0 {
				dangling += rank[v]
				continue
			}
			share := rank[v] / float64(len(nbrs))
			for _, u := range nbrs {
				next[u] += share
			}
		}
		for v := range next {
			next[v] = (1-d)/float64(n) + d*(next[v]+dangling/float64(n))
		}
		rank = next
	}
	for v := range rank {
		if math.Abs(res.Values[v]-rank[v]) > 1e-10 {
			t.Fatalf("vertex %d: quantised rank %v vs power iteration %v", v, res.Values[v], rank[v])
		}
	}
}

// roundingSum is a float-sum combiner program that does NOT declare
// ExactCombiner — correctly, since its terms (v/10) are off any grid
// and their sums round. It records what Compute was handed.
type roundingSum struct {
	mu       sync.Mutex
	maxMsgs  int
	unsorted bool
}

func (*roundingSum) Name() string { return "rounding-sum" }
func (*roundingSum) Init(*graph.Graph, graph.VertexID) (float64, bool) {
	return 0, true
}
func (*roundingSum) Combine(a, b float64) float64 { return a + b }
func (p *roundingSum) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	p.mu.Lock()
	if len(msgs) > p.maxMsgs {
		p.maxMsgs = len(msgs)
	}
	if !sort.Float64sAreSorted(msgs) {
		p.unsorted = true
	}
	p.mu.Unlock()
	sum := 0.0
	for _, m := range msgs {
		sum += m
	}
	if ctx.Superstep() == 0 {
		ctx.SendToNeighbors(v, (float64(v)+1)/10)
		return
	}
	ctx.SetValue(v, sum)
	ctx.VoteToHalt(v)
}

// TestUnmarkedFloatSumKeepsSortedPath is the negative half of the
// contract: a combiner that rounds and (rightly) lacks the marker still
// ships raw terms under Canonical and has them sorted per vertex, so it
// stays bit-identical across worker counts; outside Canonical it
// combines as before.
func TestUnmarkedFloatSumKeepsSortedPath(t *testing.T) {
	if SendCombiner(&roundingSum{}, true) != nil {
		t.Fatal("canonical mode combines at the sender without the ExactCombiner marker")
	}
	if SendCombiner(&roundingSum{}, false) == nil {
		t.Fatal("non-canonical mode ignores the Combiner")
	}
	g := exactGraph()
	var ref []float64
	for _, w := range []int{1, 3, 4} {
		probe := &roundingSum{}
		sink := &captureSink{}
		res := runOK(t, g, probe, Config{Workers: w, Canonical: true, Sink: sink})
		if probe.maxMsgs < 2 || probe.unsorted {
			t.Fatalf("workers=%d: Compute saw at most %d messages (unsorted=%v), want the raw terms sorted",
				w, probe.maxMsgs, probe.unsorted)
		}
		if c := obs.Summarize(sink.events).Combined; c != 0 {
			t.Fatalf("workers=%d: %d sends folded at the sender on the raw path", w, c)
		}
		if ref == nil {
			ref = res.Values
		}
		requireSameBits(t, "unmarked float sum", ref, res.Values)
	}
	probe := &roundingSum{}
	runOK(t, g, probe, Config{Workers: 4})
	if probe.maxMsgs != 1 {
		t.Fatalf("non-canonical run handed Compute %d messages, want the combiner's single fold", probe.maxMsgs)
	}
}
