package dist

import (
	"context"
	"fmt"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/obs"
)

// BenchmarkEngineMessagePlaneDist is the loopback-TCP twin of
// internal/engine's BenchmarkEngineMessagePlane: the same programs on
// the same RMAT graph, but every superstep crosses the wire message
// plane (frames, CRCs, peer-mesh batch delivery) between in-process
// shards on loopback TCP. The ns/superstep gap between the two
// benchmarks is the price of the process split; the shards=2/4/8
// spread shows how the mesh scales with fan-out. The -canonical cases
// at 1/4 shards are what every runtime job executes (Config.Canonical);
// for these ExactCombiner programs they must match their plain twins in
// time and in bytes on the wire. Numbers feed BENCH_ENGINE.json
// (scripts/bench_engine.sh).
func BenchmarkEngineMessagePlaneDist(b *testing.B) {
	gspec := GraphSpec{Scale: 12, Seed: 42, Undirected: true, Weighted: true}
	sweep := []int{2, 4, 8}
	cases := []struct {
		name      string
		pspec     ProgramSpec
		canonical bool
		shards    []int
	}{
		{"pagerank", ProgramSpec{Name: "pagerank", Iterations: 10}, false, sweep},
		{"sssp", ProgramSpec{Name: "sssp", Source: 0}, false, sweep},
		{"wcc", ProgramSpec{Name: "wcc"}, false, sweep},
		{"pagerank-canonical", ProgramSpec{Name: "pagerank", Iterations: 10}, true, []int{1, 4}},
		{"sssp-canonical", ProgramSpec{Name: "sssp", Source: 0}, true, []int{1, 4}},
	}
	for _, tc := range cases {
		for _, shards := range tc.shards {
			b.Run(fmt.Sprintf("%s/shards=%d", tc.name, shards), func(b *testing.B) {
				b.ReportAllocs()
				var supersteps, frames, bytes int64
				for i := 0; i < b.N; i++ {
					rep, err := RunCluster(context.Background(), Config{
						Job:       fmt.Sprintf("bench-%s-%d", tc.name, shards),
						Program:   tc.pspec,
						Graph:     gspec,
						Canonical: tc.canonical,
						Store:     cloud.NewDatastore(),
					}, shards, nil)
					if err != nil {
						b.Fatal(err)
					}
					supersteps += int64(rep.Stats.Supersteps)
					frames += rep.WireFrames
					bytes += rep.WireBytes
				}
				if supersteps > 0 {
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(supersteps), "ns/superstep")
					b.ReportMetric(float64(frames)/float64(supersteps), "frames/superstep")
					b.ReportMetric(float64(bytes)/float64(supersteps), "wirebytes/superstep")
				}
			})
		}
	}
}

// BenchmarkCheckpointPlaneDist measures the checkpoint plane at
// every-superstep cadence with an 8-deep delta chain: how many bytes a
// full snapshot costs versus a parent-linked delta. PageRank is the
// worst case (every vertex value changes every iteration, so a delta
// carries the whole state); WCC converges, so its deltas must stay
// materially below the fulls — the benchmark enforces that floor
// itself, and the recorded numbers feed BENCH_ENGINE.json
// (scripts/bench_engine.sh gates both against regression).
func BenchmarkCheckpointPlaneDist(b *testing.B) {
	gspec := GraphSpec{Scale: 12, Seed: 42, Undirected: true, Weighted: true}
	cases := []struct {
		pspec     ProgramSpec
		canonical bool
	}{
		{ProgramSpec{Name: "pagerank", Iterations: 10}, true},
		{ProgramSpec{Name: "wcc"}, false},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("%s/shards=4", tc.pspec.Name), func(b *testing.B) {
			b.ReportAllocs()
			var supersteps, fullBytes, deltaBytes, fulls, deltas int64
			for i := 0; i < b.N; i++ {
				sink := &captureSink{}
				rep, err := RunCluster(context.Background(), Config{
					Job:             fmt.Sprintf("bench-ckpt-%s", tc.pspec.Name),
					Program:         tc.pspec,
					Graph:           gspec,
					Canonical:       tc.canonical,
					CheckpointEvery: 1,
					DeltaChain:      8,
					Store:           cloud.NewDatastore(),
					Sink:            sink,
				}, 4, nil)
				if err != nil {
					b.Fatal(err)
				}
				supersteps += int64(rep.Stats.Supersteps)
				for _, e := range sink.byType(obs.EvCheckpoint) {
					if e.Chain == 0 {
						fullBytes += e.WireBytes
						fulls++
					} else {
						deltaBytes += e.WireBytes
						deltas++
					}
				}
			}
			if fulls == 0 || deltas == 0 {
				b.Fatalf("checkpoint mix fulls=%d deltas=%d, want both", fulls, deltas)
			}
			avgFull := fullBytes / fulls
			avgDelta := deltaBytes / deltas
			if tc.pspec.Name == "wcc" && avgDelta*2 >= avgFull {
				b.Fatalf("wcc avg delta %dB not materially below avg full %dB", avgDelta, avgFull)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(supersteps), "ns/superstep")
			b.ReportMetric(float64(avgFull), "fullbytes/ckpt")
			b.ReportMetric(float64(avgDelta), "deltabytes/ckpt")
		})
	}
}
