// Command hourglass-engine runs a vertex program on a benchmark
// dataset with the real BSP engine, in process and without evictions.
// The checkpointed, eviction-aware run is runtime.Execute, which the
// hourglass-serve daemon drives with -backend=engine.
//
//	hourglass-engine -app pagerank -dataset twitter -scale 0.1 -workers 8
//	hourglass-engine -app coloring -dataset orkut -trace-out run.jsonl
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"time"

	"hourglass/internal/engine"
	"hourglass/internal/graph"
	"hourglass/internal/micro"
	"hourglass/internal/obs"
	"hourglass/internal/partition"
)

// stopProfiling flushes any active profiles; fatal() calls it so
// profiles survive error exits.
var stopProfiling = func() {}

func main() {
	var (
		app        = flag.String("app", "pagerank", "pagerank | sssp | bfs | wcc | coloring | labelprop | kcore | triangles | degree")
		dataset    = flag.String("dataset", "orkut", "Table 2 dataset name")
		scale      = flag.Float64("scale", 0.1, "dataset scale factor")
		workers    = flag.Int("workers", 8, "worker goroutines")
		iters      = flag.Int("iters", 30, "iterations (pagerank/labelprop)")
		k          = flag.Int("k", 3, "K for kcore")
		source     = flag.Int("source", 0, "source vertex (sssp/bfs)")
		usePart    = flag.Bool("partitioned", true, "assign vertices via micro-partitioning instead of hashing")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		traceFile  = flag.String("trace", "", "write a runtime/trace to this file")
		traceOut   = flag.String("trace-out", "", "write per-superstep engine events (JSONL) to this file")
	)
	flag.Parse()

	if err := startProfiling(*cpuprofile, *memprofile, *traceFile); err != nil {
		fatal(err)
	}
	defer stopProfiling()

	d, err := graph.ByName(*dataset)
	if err != nil {
		fatal(err)
	}
	g := graph.Load(d, *scale)
	fmt.Printf("%s: %d vertices, %d edges\n", d.Name, g.NumVertices(), g.NumLogicalEdges())

	prog, err := makeProgram(*app, *iters, *k, graph.VertexID(*source))
	if err != nil {
		fatal(err)
	}

	cfg := engine.Config{Workers: *workers}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		cfg.Sink = obs.NewJSONL(f)
	}
	if *usePart {
		mp, err := micro.BuildForConfigs(g, partition.Multilevel{Seed: 1}, []int{*workers}, nil)
		if err != nil {
			fatal(err)
		}
		va, err := mp.VertexAssignment(*workers)
		if err != nil {
			fatal(err)
		}
		cfg.Assign = va.Assign
		fmt.Printf("partitioned: %d micro-partitions, edge cut %.1f%%\n",
			mp.Count, 100*partition.EdgeCutFraction(g, va.Assign))
	}

	start := time.Now()
	res, err := engine.Run(g, prog, cfg)
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	fmt.Printf("finished in %v wall time: %d supersteps, %d messages, %d compute calls\n",
		elapsed, res.Stats.Supersteps, res.Stats.MessagesSent, res.Stats.ComputeCalls)
	summarize(*app, g, res.Values)
}

func makeProgram(app string, iters, k int, source graph.VertexID) (engine.Program, error) {
	switch app {
	case "pagerank":
		return &engine.PageRank{Iterations: iters}, nil
	case "sssp":
		return &engine.SSSP{Source: source}, nil
	case "bfs":
		return &engine.BFS{Source: source}, nil
	case "wcc":
		return engine.WCC{}, nil
	case "coloring":
		return &engine.GraphColoring{}, nil
	case "labelprop":
		return &engine.LabelPropagation{Rounds: iters}, nil
	case "kcore":
		return &engine.KCore{K: k}, nil
	case "triangles":
		return engine.TriangleCount{}, nil
	case "degree":
		return engine.DegreeCentrality{}, nil
	default:
		return nil, fmt.Errorf("unknown app %q", app)
	}
}

func summarize(app string, g *graph.Graph, values []float64) {
	switch app {
	case "pagerank":
		type vr struct {
			v int
			r float64
		}
		top := make([]vr, len(values))
		for i, r := range values {
			top[i] = vr{i, r}
		}
		sort.Slice(top, func(a, b int) bool { return top[a].r > top[b].r })
		fmt.Printf("top-5 ranks:")
		for i := 0; i < 5 && i < len(top); i++ {
			fmt.Printf(" %d(%.2e)", top[i].v, top[i].r)
		}
		fmt.Println()
	case "sssp", "bfs":
		reached := 0
		maxDist := 0.0
		for _, d := range values {
			if !math.IsInf(d, 1) {
				reached++
				if d > maxDist {
					maxDist = d
				}
			}
		}
		fmt.Printf("reached %d/%d vertices, eccentricity %.2f\n", reached, len(values), maxDist)
	case "wcc", "labelprop":
		fmt.Printf("%d components/communities\n", engine.Communities(values))
	case "coloring":
		colors, ok := engine.ValidateColoring(g, values)
		fmt.Printf("%d colors, valid=%v\n", colors, ok)
	case "kcore":
		in := 0
		for _, v := range values {
			if v == 1 {
				in++
			}
		}
		fmt.Printf("%d vertices in the core\n", in)
	case "triangles":
		fmt.Printf("%d triangles\n", engine.TotalTriangles(values))
	case "degree":
		max := 0.0
		for _, v := range values {
			if v > max {
				max = v
			}
		}
		fmt.Printf("max degree %v\n", max)
	}
}

// startProfiling wires the standard pprof/trace outputs so engine hot
// paths can be profiled without writing a test harness:
//
//	hourglass-engine -app sssp -cpuprofile cpu.pb.gz -memprofile mem.pb.gz -trace trace.out
func startProfiling(cpu, mem, traceOut string) error {
	var stops []func()
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return err
		}
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	if mem != "" {
		stops = append(stops, func() {
			f, err := os.Create(mem)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hourglass-engine: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // surface live allocations, not GC garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hourglass-engine: memprofile:", err)
			}
		})
	}
	stopProfiling = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
		stopProfiling = func() {}
	}
	return nil
}

func fatal(err error) {
	stopProfiling()
	fmt.Fprintln(os.Stderr, "hourglass-engine:", err)
	os.Exit(1)
}
