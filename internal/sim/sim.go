// Package sim is the trace-driven execution simulator of §8.1: it
// replays a provisioning strategy against spot-price traces, charging
// real observed (synthetic, seeded) prices and suffering the evictions
// the trace implies, and reports cost and deadline outcomes. All times
// are virtual, so thousands of multi-hour runs simulate in seconds,
// exactly as the paper's methodology prescribes.
//
// A run is the executors' one loop (internal/loop), the one
// internal/runtime drives real engine runs with, over a virtual
// substrate: no engine runs and no superstep is reported — each session
// jumps straight to its next plan boundary or eviction.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/loop"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

// RunResult reports one simulated job execution. It is the fold of the
// run's event stream (obs.Summary): the runner keeps no other ledger,
// so folding a recorded trace with obs.Summarize reproduces the result
// exactly. IOTime sums the deploy loads, checkpoint saves and output
// write; RecoveryTime sums the reloading deploys.
type RunResult = obs.Summary

// Evictor samples eviction times from the market's spot-price traces
// (see loop.Evictor).
type Evictor = loop.Evictor

// Runner executes single simulations.
type Runner struct {
	Env *core.Env
	// WarningWindow simulates providers that warn this long before an
	// eviction (§9), under the loop's one rule (loop.Loop.Warning): if
	// the window fits the checkpoint upload, a save forced at the
	// eviction's barrier persists the in-flight progress instead of
	// rolling it back, its t_save of I/O billed inside the machine time
	// the eviction bills.
	WarningWindow units.Seconds
	// Sink, when set, also receives the structured decision/lifecycle
	// event stream each run folds into its RunResult (obs JSONL
	// schema): one EvDecision per provisioner consultation, one EvSpend
	// per billing charge in accumulation order, EvDeploy/EvEvict/
	// EvCheckpoint lifecycle markers and a final EvDone. Nil disables
	// tracing; an untraced run formats no configuration id.
	Sink obs.Sink
}

// Run simulates one job execution starting at `start` with an absolute
// deadline. The provisioner is consulted at the start, at every
// checkpoint boundary and after every eviction (§4).
func (r *Runner) Run(prov core.Provisioner, start, deadline units.Seconds) (RunResult, error) {
	return r.RunCtx(context.Background(), prov, start, deadline)
}

// RunCtx is Run with cancellation: the simulation aborts between
// decisions once ctx is done, so a long-running caller (the scheduler
// daemon) can abandon an in-flight run without waiting it out.
func (r *Runner) RunCtx(ctx context.Context, prov core.Provisioner, start, deadline units.Seconds) (RunResult, error) {
	v := &virtual{Loop: &loop.Loop{Env: r.Env, Prov: prov, Sink: r.Sink,
		Log: func(string, ...any) {}, Total: loop.VirtualSteps, Warning: r.WarningWindow}}
	return v.Drive(ctx, v, start, deadline)
}

// Decide consults the provisioner once and resolves the chosen
// configuration's profiled stats, emitting the EvDecision into sink
// (nil = none) exactly as the executors do (see loop.Consult).
func Decide(env *core.Env, prov core.Provisioner, st core.State, sink obs.Sink) (core.Decision, *core.ConfigStats, error) {
	return loop.Consult(env, prov, st, nil, sink)
}

// virtual is the simulator's substrate: a deployment computes nothing,
// its store never fails and it keeps its durable frontier in memory.
type virtual struct {
	*loop.Loop
	durable int // the superstep of the checkpoint sealed last
}

func (v *virtual) Frontier() (int, cloud.StoreTime, error) {
	return v.durable, cloud.StoreTime{}, nil
}

func (v *virtual) Clear() error { return nil }

// Run jumps the session from barrier to barrier: the eviction, else
// the plan's boundary, else the job's end.
func (v *virtual) Run(s *loop.Session, deploy obs.Event) error {
	v.Emit(deploy)
	for !s.Stopped {
		x := v.Total
		if s.EvictAt > 0 {
			x = s.EvictAt
		} else if s.PlanEnd > 0 {
			x = s.PlanEnd
		}
		if s.Barrier(x); s.Stopped || x == v.Total {
			break
		}
		if s.CheckpointAt(x) {
			v.save(s, x)
		}
	}
	return nil
}

// save seals the checkpoint asked for at barrier x; the loop bills its
// t_save. A plan save fails when the eviction lands first; the warning's
// forced save seals, because the warning covered it.
func (v *virtual) save(s *loop.Session, x int) {
	sealed := x == s.ForceAt || s.NextEvict >= v.SegEnd(s.CS, x-s.Billed)+s.CS.Save
	if sealed {
		v.durable = x
	}
	s.Save(x, cloud.StoreTime{}, sealed)
}

// BatchResult aggregates a batch of randomised runs (the paper averages
// ~2000 simulations per strategy with random trace start points).
type BatchResult struct {
	Runs           int
	MeanCost       units.USD
	MeanNormCost   float64 // vs. the on-demand baseline
	MissedFraction float64
	MeanEvictions  float64
	MeanReconfigs  float64
}

// Baseline is the normalisation denominator: one uninterrupted run on
// the last-resort configuration, checkpointing disabled (§8.2).
func Baseline(env *core.Env) units.USD {
	lrc := env.LRC
	dur := float64(lrc.Fixed) + float64(lrc.Exec)
	return units.USD(float64(lrc.Config.OnDemandRate()) * dur)
}

// RunBatch simulates n runs with uniformly random start offsets.
// provFactory must return a fresh provisioner per run (wrappers like
// DeadlineProtection carry latch state).
func (r *Runner) RunBatch(provFactory func() core.Provisioner, slackFraction float64, n int, seed int64) (BatchResult, error) {
	env := r.Env
	lrc := env.LRC
	// Deadline = fixed + exec + slackFraction·exec, the §8.2 scheme
	// ("10 different deadlines, which vary the slack available ... from
	// 10% to 100% of the execution time").
	rel := lrc.Fixed + lrc.Exec + units.Seconds(slackFraction*float64(lrc.Exec))
	rng := rand.New(rand.NewSource(seed))
	horizon := r.traceHorizon()
	baseline := float64(Baseline(env))

	// Pre-draw all start offsets so parallel execution cannot perturb
	// the deterministic sequence.
	starts := make([]units.Seconds, n)
	for i := range starts {
		starts[i] = units.Seconds(rng.Float64() * float64(horizon))
	}
	results := make([]RunResult, n)
	errs := make([]error, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				results[i], errs[i] = r.Run(provFactory(), starts[i], starts[i]+rel)
			}
		}()
	}
	wg.Wait()

	var agg BatchResult
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			return agg, fmt.Errorf("run %d (start %v): %w", i, starts[i], errs[i])
		}
		res := results[i]
		// §8.2: reported costs include the offline partitioning phase.
		res.Cost += env.OfflineCost
		agg.Runs++
		agg.MeanCost += res.Cost
		if res.MissedDeadline || !res.Finished {
			agg.MissedFraction++
		}
		agg.MeanEvictions += float64(res.Evictions)
		agg.MeanReconfigs += float64(res.Reconfigs)
	}
	if agg.Runs > 0 {
		agg.MeanCost /= units.USD(agg.Runs)
		agg.MeanNormCost = float64(agg.MeanCost) / baseline
		agg.MissedFraction /= float64(agg.Runs)
		agg.MeanEvictions /= float64(agg.Runs)
		agg.MeanReconfigs /= float64(agg.Runs)
	}
	return agg, nil
}

// Horizon exposes the trace horizon to external schedulers that draw
// their own start offsets (cmd/hourglass-serve).
func (r *Runner) Horizon() units.Seconds { return r.traceHorizon() }

// traceHorizon returns the shortest trace duration in the market,
// bounding random start offsets.
func (r *Runner) traceHorizon() units.Seconds {
	min := units.Seconds(math.Inf(1))
	for i := range r.Env.Stats {
		c := r.Env.Stats[i].Config
		if !c.Transient {
			continue
		}
		if tr, err := r.Env.MarketTrace(c.Instance.Name); err == nil {
			if d := tr.Duration(); d < min {
				min = d
			}
		}
	}
	if math.IsInf(float64(min), 1) {
		return 30 * units.Day
	}
	return min
}
