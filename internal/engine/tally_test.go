package engine

import (
	"context"
	"fmt"
	"testing"

	"hourglass/internal/graph"
)

// bundledPrograms are every program the engine ships.
var bundledPrograms = []func() Program{
	func() Program { return &PageRank{Iterations: 8} },
	func() Program { return &SSSP{Source: 3} },
	func() Program { return WCC{} },
	func() Program { return &BFS{Source: 3} },
	func() Program { return &GraphColoring{} },
	func() Program { return &LabelPropagation{Rounds: 6} },
	func() Program { return &KCore{K: 3} },
	func() Program { return DegreeCentrality{} },
	func() Program { return TriangleCount{} },
}

// bruteTallies replays prog on the raw path, one partition at a time
// through the Partition API, and counts each superstep's sends from
// the outboxes before the hand-off: every raw outbox lists every send
// of its partition. A combining sender opens one slot per distinct
// destination, so the sends it folds are the sends less those slots.
// The send sets match the combining run because every bundled
// combiner is exact.
func bruteTallies(t *testing.T, g *graph.Graph, mk func() Program, cfg Config) []Tally {
	t.Helper()
	prog := mk()
	folds := sendFold(prog, cfg.Canonical) != 0
	if _, ok := prog.(Combiner); ok {
		prog = &uncombined{prog}
	}
	r, err := Start(context.Background(), g, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var steps []Tally
	for s := 0; r.anyWork(); s++ {
		var step Tally
		for _, p := range r.parts {
			n := p.Begin(s)
			p.Compute(n)
			step.Calls += int64(n)
			seen := map[int32]bool{}
			for to, o := range p.out {
				step.Sent += int64(len(o.dst))
				if to != p.id {
					step.Remote += int64(len(o.dst))
				}
				for _, d := range o.dst {
					if folds && seen[d] {
						step.Combined++
					}
					seen[d] = true
				}
			}
		}
		for _, dp := range r.parts {
			for _, sp := range r.parts {
				dp.Deliver(sp.Outbox(dp.id))
			}
			dp.Settle()
			for _, sp := range r.parts {
				sp.Release(dp.id)
			}
		}
		r.aggs.Fold(cfg.Canonical, r.contribs)
		steps = append(steps, step)
	}
	return steps
}

// TestSuperstepTalliesMatchBruteForce pins the counts every superstep
// reports — Compute calls, sends, sends folded at the sender, remote
// sends — for every bundled program at 1–8 workers, canonical on and
// off, against bruteTallies. The partitions of a run tally on their own
// goroutines while the hand-off runs on the receivers'; a count kept
// on the wrong goroutine loses sends at 3 and more workers.
func TestSuperstepTalliesMatchBruteForce(t *testing.T) {
	g := exactGraph()
	for _, mk := range bundledPrograms {
		for _, canonical := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/canonical=%v", mk().Name(), canonical), func(t *testing.T) {
				for w := 1; w <= 8; w++ {
					cfg := Config{Workers: w, Canonical: canonical}
					want := bruteTallies(t, g, mk, cfg)
					sink := &captureSink{}
					cfg.Sink = sink
					res := runOK(t, g, mk(), cfg)
					if len(sink.events) != len(want) {
						t.Fatalf("workers=%d: %d supersteps, brute force %d", w, len(sink.events), len(want))
					}
					var total Tally
					for s, e := range sink.events {
						b := want[s]
						if e.Active != b.Calls || e.Messages != b.Sent || e.Combined != b.Combined {
							t.Fatalf("workers=%d superstep %d: active/sent/combined %d/%d/%d, brute force %d/%d/%d",
								w, s+1, e.Active, e.Messages, e.Combined, b.Calls, b.Sent, b.Combined)
						}
						total.Sent += b.Sent
						total.Remote += b.Remote
					}
					if res.Stats.MessagesSent != total.Sent || res.Stats.RemoteMessages != total.Remote {
						t.Fatalf("workers=%d: sent/remote %d/%d, brute force %d/%d",
							w, res.Stats.MessagesSent, res.Stats.RemoteMessages, total.Sent, total.Remote)
					}
				}
			})
		}
	}
}
