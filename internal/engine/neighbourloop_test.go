package engine

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"hourglass/internal/graph"
)

// sendNeighbours sends val to every out-neighbour of v through
// SendToNeighbors or, with each set, one Send per neighbour.
func sendNeighbours(ctx *Context, v graph.VertexID, val float64, each bool) {
	if !each {
		ctx.SendToNeighbors(v, val)
		return
	}
	for _, u := range ctx.Graph().Neighbors(v) {
		ctx.Send(u, val)
	}
}

// loopProbe sends along every out-edge until rounds under its fold: a
// damped sum of shares off any grid, so a changed fold order shows in
// the bits, or a min of hop costs, which sends only on improvement.
type loopProbe struct {
	fold   Fold
	each   bool
	rounds int
}

func (p *loopProbe) Name() string { return "loop-probe" }
func (p *loopProbe) Fold() Fold   { return p.fold }
func (p *loopProbe) Init(_ *graph.Graph, v graph.VertexID) (float64, bool) {
	return float64(v%13) / 10, true
}
func (p *loopProbe) Compute(ctx *Context, v graph.VertexID, msgs []float64) {
	x, send := ctx.Value(v), ctx.Superstep() == 0
	for i, m := range msgs {
		switch {
		case p.fold == Sum && i == 0:
			x, send = 0.15+0.85*m, true
		case p.fold == Sum:
			x += 0.85 * m
		case m < x:
			x, send = m, true
		}
	}
	ctx.SetValue(v, x)
	if deg := ctx.Graph().Degree(v); send && deg > 0 && ctx.Superstep() < p.rounds {
		out := x + 0.1
		if p.fold == Sum {
			out = x / float64(deg)
		}
		sendNeighbours(ctx, v, out, p.each)
	}
	ctx.VoteToHalt(v)
}

// TestNeighbourLoopMatchesSends pins SendToNeighbors's loop to the
// Sends it replaces: at 1, 2, 4 and 8 workers a Sum and a Min program,
// and the rounding float sum outside canonical mode, reach the same
// bits and the same per-partition tallies every superstep whichever way
// they send, and every in-memory hand-off closes every sender slot and
// empties every outbox.
func TestNeighbourLoopMatchesSends(t *testing.T) {
	g := exactGraph()
	for _, tc := range []struct {
		name string
		mk   func(each bool) Program
	}{
		{"sum", func(each bool) Program { return &loopProbe{fold: Sum, each: each, rounds: 6} }},
		{"min", func(each bool) Program { return &loopProbe{fold: Min, each: each, rounds: 30} }},
		{"rounding-sum", func(each bool) Program { return &roundingSum{each: each} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, w := range []int{1, 2, 4, 8} {
				loop, loopTallies := stepTallies(t, g, tc.mk(false), w)
				each, eachTallies := stepTallies(t, g, tc.mk(true), w)
				requireSameBits(t, fmt.Sprintf("workers=%d", w), each, loop)
				if !slices.Equal(loopTallies, eachTallies) {
					t.Fatalf("workers=%d: tallies per superstep and partition\n loop %v\n sends %v", w, loopTallies, eachTallies)
				}
				combined := int64(0)
				for _, tl := range loopTallies {
					combined += tl.Combined
				}
				if combined == 0 {
					t.Fatalf("workers=%d: no send was folded — the combiner path did not run", w)
				}
			}
		})
	}
}

// stepTallies steps prog to the end on workers partitions and returns
// its values and each partition's tally of each superstep. After every
// hand-off each sender slot must be closed and each outbox empty.
func stepTallies(t *testing.T, g *graph.Graph, prog Program, workers int) ([]float64, []Tally) {
	t.Helper()
	r, err := Start(context.Background(), g, prog, Config{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var tallies []Tally
	for more := true; more; {
		if more, err = r.Step(); err != nil {
			t.Fatal(err)
		}
		for _, p := range r.parts {
			tallies = append(tallies, p.Tally())
			for to, o := range p.out {
				if len(o.dst) > 0 || len(o.val) > 0 {
					t.Fatalf("superstep %d: partition %d kept %d/%d entries for %d after the hand-off",
						r.superstep, p.id, len(o.dst), len(o.val), to)
				}
			}
			for d, s := range p.slots {
				if s.n != 0 || s.listed {
					t.Fatalf("superstep %d: partition %d left its slot for %d open: %+v", r.superstep, p.id, d, s)
				}
			}
		}
	}
	return r.Result().Values, tallies
}
