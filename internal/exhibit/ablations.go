package exhibit

import (
	"fmt"
	"time"

	"hourglass"
	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/graph"
	"hourglass/internal/partition"
	"hourglass/internal/perfmodel"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// ablationRun simulates p.Runs slack-aware GC runs on the market the
// ablations share: the eviction model is fitted on one 8-day month,
// the market replays another, and spot instances are bid at bid × the
// on-demand price. tune adjusts the environment first; warning is the
// eviction warning both the simulator and the provisioner see.
func ablationRun(p Params, bid float64, tune func(*core.Env), warning units.Seconds, slack float64) (sim.BatchResult, error) {
	em, err := cloud.BuildEvictionModel(cloud.GenerateSet(cloud.Catalogue(), cloud.GenParams{Days: 8, Seed: 0x0C7}), 256)
	if err != nil {
		return sim.BatchResult{}, err
	}
	market := cloud.NewMarket(cloud.GenerateSet(cloud.Catalogue(), cloud.GenParams{Days: 8, Seed: 0x40E}))
	market.BidFactor = bid
	env, err := core.NewEnv(perfmodel.JobGC, perfmodel.Default(), cloud.DefaultConfigs(), market, em)
	if err != nil {
		return sim.BatchResult{}, err
	}
	tune(env)
	runner := &sim.Runner{Env: env, WarningWindow: warning}
	return runner.RunBatch(func() core.Provisioner {
		sa := core.NewSlackAware(env)
		sa.WarningWindow = warning
		return sa
	}, slack, p.Runs, 9)
}

// ablations are the five studies beyond the paper's figures: the Daly
// checkpoint interval scaled off its optimum (50% slack); a 120 s
// eviction warning (§9, 30% slack); relaxed Hourglass (§8.2, 20%
// slack); recursive bisection against k-way multilevel partitioning
// (orkut, 8 parts); and bidding above the on-demand price (30% slack).
func ablations(p Params) ([]Table, error) {
	cost, missed := Col{Name: "norm. cost", Fmt: "%.4f×"}, Col{Name: "missed", Fmt: "%.0f%%"}
	daly := Table{Title: "Ablation: checkpoint interval (GC, 50% slack)", Stub: "interval", Cols: []Col{cost}}
	for _, scale := range []float64{0.25, 1, 4} {
		res, err := ablationRun(p, 1, func(env *core.Env) {
			for i := range env.Stats {
				if env.Stats[i].Config.Transient {
					env.Stats[i].Ckpt *= units.Seconds(scale)
				}
			}
		}, 0, 0.5)
		if err != nil {
			return nil, err
		}
		daly.Rows = append(daly.Rows, Row{fmt.Sprintf("Daly ×%g", scale), []float64{res.MeanNormCost}})
	}

	warn := Table{Title: "Ablation: eviction warning (GC, 30% slack)", Stub: "warning", Cols: []Col{cost, missed}}
	for _, w := range []units.Seconds{0, 120} {
		res, err := ablationRun(p, 1, func(*core.Env) {}, w, 0.3)
		if err != nil {
			return nil, err
		}
		warn.Rows = append(warn.Rows, Row{fmt.Sprintf("%.0f s", float64(w)), []float64{res.MeanNormCost, res.MissedFraction * 100}})
	}

	rows, err := simulate(p, 8, hourglass.GC, []bar{
		{string(hourglass.StrategyHourglass), nil, hourglass.StrategyHourglass},
		{string(hourglass.StrategyRelaxed), nil, hourglass.StrategyRelaxed},
	}, []float64{0.2}, true)
	if err != nil {
		return nil, err
	}
	relaxed := Table{Title: "Ablation: relaxed deadline (GC, 20% slack)", Stub: "strategy", Cols: []Col{cost, missed}, Rows: rows}

	g := graph.Load(dataset("orkut"), p.Scale)
	bisect := Table{Title: "Ablation: recursive bisection vs k-way (orkut, 8 parts)", Stub: "partitioner",
		Cols: []Col{{Name: "edge cut", Fmt: "%.1f%%"}, {Name: "time", Fmt: "%.0fms"}}}
	for _, pt := range []partition.Partitioner{partition.Multilevel{Seed: 1}, partition.RecursiveBisection{Seed: 1}} {
		t0 := time.Now()
		assign := pt.Partition(g, 8).Assign
		bisect.Rows = append(bisect.Rows, Row{pt.Name(), []float64{100 * partition.EdgeCutFraction(g, assign), ms(time.Since(t0))}})
	}

	bid := Table{Title: "Ablation: bid above on-demand (GC, 30% slack)", Stub: "bid", Cols: []Col{cost, {Name: "evictions", Fmt: "%.2f"}}}
	for _, factor := range []float64{1, 2} {
		res, err := ablationRun(p, factor, func(*core.Env) {}, 0, 0.3)
		if err != nil {
			return nil, err
		}
		bid.Rows = append(bid.Rows, Row{fmt.Sprintf("×%g on-demand", factor), []float64{res.MeanNormCost, res.MeanEvictions}})
	}
	return []Table{daly, warn, relaxed, bisect, bid}, nil
}
