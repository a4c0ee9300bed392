package engine

import (
	"fmt"
	"testing"

	"hourglass/internal/graph"
)

// BenchmarkEngineMessagePlane is the engine's message-plane baseline:
// PageRank (combiner, dense every superstep), SSSP (combiner,
// frontier-shaped), and WCC (combiner, shrinking frontier) on a
// power-law RMAT graph at 1/4/8 workers, plus PageRank with the
// combiner hidden to exercise the pooled non-combiner path, plus the
// -canonical cases at 1/4 workers: Config.Canonical is what every
// runtime job executes, and for these ExactCombiner programs it must
// cost what the combiner path costs. Numbers feed BENCH_ENGINE.json
// (scripts/bench_engine.sh).
func BenchmarkEngineMessagePlane(b *testing.B) {
	p := graph.DefaultRMAT(12, 42)
	p.Undirected = true
	p.Weighted = true
	g := graph.RMAT(p)

	sweep := []int{1, 4, 8}
	progs := []struct {
		name      string
		mk        func() Program
		canonical bool
		workers   []int
	}{
		{"pagerank", func() Program { return &PageRank{Iterations: 10} }, false, sweep},
		{"pagerank-plain", func() Program { return &uncombined{&PageRank{Iterations: 10}} }, false, sweep},
		{"sssp", func() Program { return &SSSP{Source: 0} }, false, sweep},
		{"wcc", func() Program { return WCC{} }, false, sweep},
		{"pagerank-canonical", func() Program { return &PageRank{Iterations: 10} }, true, []int{1, 4}},
		{"sssp-canonical", func() Program { return &SSSP{Source: 0} }, true, []int{1, 4}},
	}
	for _, pr := range progs {
		for _, workers := range pr.workers {
			b.Run(fmt.Sprintf("%s/workers=%d", pr.name, workers), func(b *testing.B) {
				b.ReportAllocs()
				var supersteps int64
				for i := 0; i < b.N; i++ {
					res, err := Run(g, pr.mk(), Config{Workers: workers, Canonical: pr.canonical})
					if err != nil {
						b.Fatal(err)
					}
					supersteps += int64(res.Stats.Supersteps)
				}
				if supersteps > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(supersteps), "ns/superstep")
				}
			})
		}
	}
}
