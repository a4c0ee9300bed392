package exhibit

import (
	"errors"
	"fmt"
	"math"
	"time"

	"hourglass"
	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/graph"
	"hourglass/internal/loader"
	"hourglass/internal/micro"
	"hourglass/internal/partition"
	"hourglass/internal/perfmodel"
)

var jobs = []hourglass.JobKind{hourglass.SSSP, hourglass.PageRank, hourglass.GC}

// table2 lists the datasets: the paper's sizes against the synthetic
// stand-ins generated at p.Scale (RMAT graphs at full size).
func table2(p Params) ([]Table, error) {
	t := Table{
		Title: "Table 2: graph datasets (paper sizes vs. generated synthetic stand-ins)",
		Stub:  "dataset",
		Cols:  append(cols("%.0f", "paper |V|", "paper |E|", "gen |V|", "gen |E|"), Col{Name: "avg deg", Fmt: "%.1f"}),
	}
	add := func(d graph.Dataset, g *graph.Graph) {
		st := graph.ComputeStats(d, g)
		t.Rows = append(t.Rows, Row{d.Name + " (" + d.Network + ")", []float64{
			float64(d.PaperVertices), float64(d.PaperEdges), float64(st.Vertices), float64(st.Edges), st.AvgDegree}})
	}
	for _, d := range graph.Datasets() {
		add(d, graph.Load(d, p.Scale))
	}
	for _, n := range []int{14, 16} {
		d := graph.RMATDataset(n)
		add(d, d.Generate(1.0))
	}
	return []Table{t}, nil
}

// A bar is one simulated row: a strategy under a performance model
// (nil: the calibrated default, micro-partition loading).
type bar struct {
	label    string
	model    *perfmodel.Model
	strategy hourglass.Strategy
}

// simulate returns one row per bar: the job's mean normalized cost on
// traceDays-long price months at each slack, each followed by its
// missed-deadline percentage when missed is set.
func simulate(p Params, traceDays float64, job hourglass.JobKind, bars []bar, slacks []float64, missed bool) ([]Row, error) {
	rows := make([]Row, len(bars))
	for i, b := range bars {
		sys, err := system(p, traceDays, b.model)
		if err != nil {
			return nil, err
		}
		rows[i].Label = b.label
		for _, s := range slacks {
			res, err := sys.Simulate(job, b.strategy, s, p.Runs)
			if err != nil {
				return nil, err
			}
			rows[i].Vals = append(rows[i].Vals, res.MeanNormCost)
			if missed {
				rows[i].Vals = append(rows[i].Vals, res.MissedFraction*100)
			}
		}
	}
	return rows, nil
}

// figure1 is the provisioning dilemma on GC at 50% slack. Eager and
// the naive fix load by hash (full shuffle on every reload); the
// slack-aware bar pays per-config offline METIS plus shuffle reloads;
// fast reload switches to micro-partitions.
func figure1(p Params) ([]Table, error) {
	hash := perfmodel.Default().WithLoading(perfmodel.LoadHash)
	rows, err := simulate(p, days, hourglass.GC, []bar{
		{"Eager (greedy, SpotOn-like)", hash, hourglass.StrategyProteus},
		{"Hourglass Naive (greedy+DP)", hash, hourglass.StrategyNaive},
		{"Hourglass Slack-Aware", perfmodel.Default().WithLoading(perfmodel.LoadMETIS), hourglass.StrategyHourglass},
		{"Hourglass Slack-Aware + Fast Reload", perfmodel.Default().WithLoading(perfmodel.LoadMicro), hourglass.StrategyHourglass},
	}, []float64{0.5}, true)
	if err != nil {
		return nil, err
	}
	return []Table{{
		Title: fmt.Sprintf("Figure 1: GC job, %d runs per bar, slack 50%% (cost normalized to on-demand)", p.Runs),
		Stub:  "strategy",
		Cols:  []Col{{Name: "norm. cost", Fmt: "%.2f×"}, {Name: "missed", Fmt: "%.0f%%"}},
		Rows:  rows,
	}}, nil
}

// figure5 is the 30-scenario grid: each job × slack 10–100% × the five
// provisioners, as normalized cost and missed-deadline percentage.
func figure5(p Params) ([]Table, error) {
	var bars []bar
	for _, st := range []hourglass.Strategy{hourglass.StrategyHourglass, hourglass.StrategyProteus,
		hourglass.StrategySpotOn, hourglass.StrategyProteusDP, hourglass.StrategySpotOnDP} {
		bars = append(bars, bar{string(st), nil, st})
	}
	var slacks []float64
	var cs []Col
	for s := 1; s <= 10; s++ {
		slacks = append(slacks, float64(s)/10)
		cs = append(cs, Col{Name: fmt.Sprintf("%d%%", s*10), Fmt: "%.2f"}, Col{Fmt: "(%3.0f%%)"})
	}
	var tables []Table
	for _, job := range jobs {
		rows, err := simulate(p, days, job, bars, slacks, true)
		if err != nil {
			return nil, err
		}
		tables = append(tables, Table{
			Title: fmt.Sprintf("Figure 5 (%s): normalized cost (missed%%), %d runs per cell", job, p.Runs),
			Stub:  "slack", Cols: cs, Rows: rows,
		})
	}
	return tables, nil
}

// figure6 times the Stream, Hash and Micro loaders on the simulated
// network substrate as the dataset doubles left to right.
func figure6(p Params) ([]Table, error) {
	model := loader.DefaultModel()
	machines := []int{2, 4, 8, 16}
	var tables []Table
	for _, set := range []struct {
		d     graph.Dataset
		scale float64
	}{{dataset("orkut"), p.Scale}, {graph.RMATDataset(14), 1}, {graph.RMATDataset(15), 1}, {graph.RMATDataset(16), 1}, {dataset("twitter"), p.Scale}} {
		g := graph.Load(set.d, set.scale)
		mp, err := micro.BuildForConfigs(g, partition.Multilevel{Seed: 1}, machines, nil)
		if err != nil {
			return nil, err
		}
		stream, hash, micro := Row{Label: "Stream Loader"}, Row{Label: "Hash Loader"}, Row{Label: "Micro Loader"}
		for _, k := range machines {
			va, err := mp.VertexAssignment(k)
			if err != nil {
				return nil, err
			}
			s, errS := model.Stream(g, k)
			h, errH := model.Hash(g, partition.Hash{}.Partition(g, k).Assign, k)
			m, errM := model.Micro(g, va.Assign, k)
			if err := errors.Join(errS, errH, errM); err != nil {
				return nil, err
			}
			stream.Vals = append(stream.Vals, float64(s.Total()))
			hash.Vals = append(hash.Vals, float64(h.Total()))
			micro.Vals = append(micro.Vals, float64(m.Total()))
		}
		tables = append(tables, Table{
			Title: fmt.Sprintf("Figure 6 (%s, %d vertices, %d edges, %.1f MB on disk): loading times (simulated seconds)",
				set.d.Name, g.NumVertices(), g.NumLogicalEdges(), float64(model.DiskBytes(g))/1e6),
			Stub: "#machines", Cols: cols("%.3fs", "2", "4", "8", "16"), Rows: []Row{stream, hash, micro},
		})
	}
	return tables, nil
}

// figure7 zooms into GC: the slack-aware strategy with per-config
// METIS and with micro-partitions over a METIS base, against SpotOn+DP
// with micro-partitions.
func figure7(p Params) ([]Table, error) {
	micro := perfmodel.Default().WithLoading(perfmodel.LoadMicro).WithMetisBase()
	rows, err := simulate(p, days, hourglass.GC, []bar{
		{"SlackAware+METIS", perfmodel.Default().WithLoading(perfmodel.LoadMETIS), hourglass.StrategyHourglass},
		{"SlackAware+microMETIS", micro, hourglass.StrategyHourglass},
		{"SpotOn+DP+microMETIS", micro, hourglass.StrategySpotOnDP},
	}, []float64{0.1, 0.2, 0.4, 0.6, 0.8, 1.0}, false)
	if err != nil {
		return nil, err
	}
	return []Table{{
		Title: fmt.Sprintf("Figure 7: GC cost reductions, %d runs per point", p.Runs),
		Stub:  "slack",
		Cols:  cols("%.2f", "10%", "20%", "40%", "60%", "80%", "100%"),
		Rows:  rows,
	}}, nil
}

// figure8 compares the edge cut of 64 micro-partitions clustered to k
// parts (M-MICRO over METIS, F-MICRO over FENNEL) with running the base
// partitioner directly for k, and with random assignment.
func figure8(p Params) ([]Table, error) {
	ks := []int{2, 4, 8, 16, 32, 64}
	var tables []Table
	for _, name := range []string{"orkut", "human-gene", "wiki", "hollywood", "twitter"} {
		g := graph.Load(dataset(name), p.Scale)
		for _, base := range []struct {
			label string
			p     partition.Partitioner
		}{{"METIS", partition.Multilevel{Seed: 1}}, {"FENNEL", partition.Fennel{Seed: 1}}} {
			mp, err := micro.Build(g, base.p, 64, partition.Multilevel{Seed: 2})
			if err != nil {
				return nil, err
			}
			direct, clustered, random := Row{Label: base.label}, Row{Label: base.label[:1] + "-MICRO"}, Row{Label: "Random"}
			for _, k := range ks {
				direct.Vals = append(direct.Vals, 100*partition.EdgeCutFraction(g, base.p.Partition(g, k).Assign))
				cut := math.NaN()
				if k <= mp.Count {
					va, err := mp.VertexAssignment(k)
					if err != nil {
						return nil, err
					}
					cut = 100 * partition.EdgeCutFraction(g, va.Assign)
				}
				clustered.Vals = append(clustered.Vals, cut)
				random.Vals = append(random.Vals, 100*partition.RandomCutExpectation(k))
			}
			tables = append(tables, Table{
				Title: fmt.Sprintf("Figure 8 (%s, %d vertices, %d edges): edge cut, %s base; %s mean degradation over k = 2…32: %+.1f pts",
					name, g.NumVertices(), g.NumLogicalEdges(), base.label, clustered.Label, degradation(direct.Vals, clustered.Vals)),
				Stub: "#parts", Cols: cols("%.1f%%", "2", "4", "8", "16", "32", "64"), Rows: []Row{direct, clustered, random},
			})
		}
	}
	return tables, nil
}

// degradation is the mean edge-cut increase, in points, of clustered
// micro-partitions over the base partitioner for k = 2…32: the first
// five columns of a Figure 8 table.
func degradation(direct, clustered []float64) float64 {
	var sum float64
	for k := 0; k < 5; k++ {
		sum += clustered[k] - direct[k]
	}
	return sum / 5
}

// figure9 times one provisioning decision with the exact EC integral
// (§5.2, 1-second steps, DNF past 5e6 operations) and with the
// Hourglass approximation (§5.3), and reports the approximation's
// distance from the optimum (DFO). The approximation is timed cold, on
// a fresh Env whose EC table it fills, and warm, repeated on that Env.
func figure9(p Params) ([]Table, error) {
	sys, err := system(p, days, nil)
	if err != nil {
		return nil, err
	}
	var tables []Table
	for _, job := range jobs {
		env, err := sys.Env(job)
		if err != nil {
			return nil, err
		}
		t := Table{
			Title: fmt.Sprintf("Figure 9 (%s): decision time (exact vs approximate EC) and distance from optimum", job),
			Stub:  "slack",
			Cols: []Col{{"optimal", "%.2fms", "DNF"}, {"hourglass", "%.2fms", "-"}, {"DFO", "%.1f%%", "-"},
				{"warm", "%.3fms", "-"}},
		}
		for _, slack := range []float64{0.1, 0.25, 0.5, 0.75, 1.0} {
			rel, err := sys.DeadlineFor(job, slack)
			if err != nil {
				return nil, err
			}
			s := core.State{Now: 0, WorkLeft: 1, Deadline: rel}
			// The system prices the default configuration grid.
			cold, err := core.NewEnv(env.Job, env.Model, cloud.DefaultConfigs(), env.Market, env.Evictions)
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			approx := core.NewSlackAware(cold).Evaluate(s)
			approxTime := time.Since(t0)
			t0 = time.Now()
			core.NewSlackAware(cold).Evaluate(s)
			warmTime := time.Since(t0)

			exact := core.NewExactEC(env)
			exact.OpBudget = 5e6
			t0 = time.Now()
			opt, err := exact.Evaluate(s)
			optTime, dfo := ms(time.Since(t0)), math.Abs(float64(approx-opt))/float64(opt)*100
			switch {
			case errors.Is(err, core.ErrBudget):
				optTime, dfo = math.NaN(), math.NaN()
			case err != nil:
				return nil, err
			}
			t.Rows = append(t.Rows, Row{fmt.Sprintf("%.0f%%", slack*100), []float64{optTime, ms(approxTime), dfo, ms(warmTime)}})
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
