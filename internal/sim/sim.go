// Package sim is the trace-driven execution simulator of §8.1: it
// replays a provisioning strategy against spot-price traces, charging
// real observed (synthetic, seeded) prices and suffering the evictions
// the trace implies, and reports cost and deadline outcomes. All times
// are virtual, so thousands of multi-hour runs simulate in seconds,
// exactly as the paper's methodology prescribes.
package sim

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

// RunResult reports one simulated job execution. It is the fold of the
// run's event stream (obs.Summary): the runner keeps no other ledger,
// so folding a recorded trace with obs.Summarize reproduces the result
// exactly. The simulator's spend records carry no I/O split, so IOTime
// stays zero; RecoveryTime sums the reloading deploys.
type RunResult = obs.Summary

// replica is one live deployment.
type replica struct {
	stats  *core.ConfigStats
	bootAt units.Seconds // when it became ready (uptime anchor)
	evict  units.Seconds // next eviction (absolute; +Inf if none)
}

// maxDecisions is the decision count past which a run reports a
// provisioner livelock.
const maxDecisions = 100_000

// Runner executes single simulations.
type Runner struct {
	Env *core.Env
	// WarningWindow simulates providers that warn this long before an
	// eviction (§9): if the window fits the checkpoint upload, the
	// in-flight progress is persisted instead of rolled back.
	WarningWindow units.Seconds
	// Sink, when set, also receives the structured decision/lifecycle
	// event stream each run folds into its RunResult (obs JSONL
	// schema): one EvDecision per provisioner consultation, one EvSpend
	// per billing charge in accumulation order, EvDeploy/EvEvict/
	// EvCheckpoint lifecycle markers and a final EvDone. Nil disables
	// tracing; an untraced run formats no configuration id for its
	// spends and decisions.
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
	env := r.Env
	market := env.Market

	t := start
	wDurable := 1.0 // work left as of the last durable checkpoint
	wLive := 1.0    // work left counting in-memory progress
	var live []replica
	var res RunResult
	// emit folds e into the result and, when tracing, publishes it.
	emit := func(e obs.Event) {
		res.Emit(e)
		if r.Sink != nil {
			r.Sink.Emit(e)
		}
	}
	// spend records one billing charge. Spends fold in charge order, so
	// a trace's folded cost reproduces the run's float accumulation
	// sequence bit-for-bit.
	spend := func(at units.Seconds, c cloud.Config, usd units.USD) {
		e := obs.Event{Type: obs.EvSpend, T: float64(at), USD: float64(usd)}
		if r.Sink != nil {
			e.Config = c.ID()
		}
		emit(e)
	}

	teardown := func() { live = nil }

	for {
		if wLive <= 0 {
			emit(obs.Event{Type: obs.EvDone, T: float64(t), Job: env.Job.Name,
				Done: true, Missed: t > deadline, USD: float64(res.Cost)})
			return res, nil
		}
		if res.Decisions > maxDecisions {
			return res, fmt.Errorf("sim: exceeded %d decisions (provisioner livelock?)", maxDecisions)
		}
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("sim: run cancelled after %d decisions: %w", res.Decisions, err)
		}
		// Ask the provisioner what to run next.
		var curCfg *cloud.Config
		uptime := units.Seconds(0)
		if len(live) > 0 {
			curCfg = &live[0].stats.Config
			uptime = t - live[0].bootAt
		}
		st := core.State{
			Now: t, WorkLeft: wLive, Deadline: deadline, Current: curCfg, Uptime: uptime,
		}
		dec, primary, err := Consult(env, prov, st, &res, r.Sink)
		if err != nil {
			return res, err
		}

		if !dec.KeepCurrent || len(live) == 0 {
			// (Re)deploy: tear down, wait for market availability, boot
			// and load. In-memory progress is lost unless a replica of
			// the same deployment survives (handled by KeepCurrent).
			teardown()
			wLive = wDurable
			configs := append([]cloud.Config{dec.Config}, dec.Extra...)
			avails := make([]units.Seconds, len(configs))
			readyAt := t
			for i, c := range configs {
				avail, err := market.NextAvailable(c, t)
				if err != nil {
					return res, err
				}
				avails[i] = avail
				cs, ok := env.StatsFor(c)
				if !ok {
					return res, fmt.Errorf("sim: unknown replica config %s", c.ID())
				}
				ra := avail + cs.Boot + cs.Load
				if ra > readyAt {
					readyAt = ra
				}
			}
			// Pay for each replica from its availability to readiness.
			for i, c := range configs {
				cost, err := market.Cost(c, avails[i], readyAt)
				if err != nil {
					return res, err
				}
				spend(avails[i], c, cost)
			}
			live = live[:0]
			sampler := Evictor{Market: market}
			for _, c := range configs {
				cs, _ := env.StatsFor(c)
				live = append(live, replica{stats: cs, bootAt: readyAt,
					evict: sampler.Next(c, readyAt)})
			}
			emit(obs.Event{Type: obs.EvDeploy, T: float64(t), Job: env.Job.Name,
				Config: dec.Config.ID(), WorkLeft: wLive,
				DurSec: float64(readyAt - t), Reload: wDurable < 1})
			t = readyAt
		} else {
			// Keep running: refresh eviction forecasts (prices moved on).
			sampler := Evictor{Market: market}
			for i := range live {
				if live[i].stats.Config.Transient {
					live[i].evict = sampler.Next(live[i].stats.Config, t)
				}
			}
		}

		// Determine the next event: segment completion (checkpoint or
		// job end) or the earliest eviction.
		ckpt := units.Seconds(math.Inf(1))
		if dec.UseCheckpoints {
			ckpt = primary.Ckpt
		}
		remaining := units.Seconds(wLive * float64(primary.Exec))
		segment := units.Min(remaining, ckpt)
		if dec.MaxRun > 0 {
			// Respect the provisioner's planned useful interval — the
			// slack-aware guarantee depends on being re-consulted here.
			segment = units.Min(segment, dec.MaxRun)
		}
		if segment <= 0 {
			segment = units.Seconds(1)
		}
		segEnd := t + segment

		firstEvict := units.Seconds(math.Inf(1))
		evictIdx := -1
		for i := range live {
			if live[i].evict < firstEvict {
				firstEvict = live[i].evict
				evictIdx = i
			}
		}

		if firstEvict < segEnd {
			// Eviction mid-segment.
			for i := range live {
				end := units.Min(firstEvict, live[i].evict)
				cost, err := market.Cost(live[i].stats.Config, t, end)
				if err != nil {
					return res, err
				}
				spend(t, live[i].stats.Config, cost)
			}
			// Progress since t accrues only in memory; survivors keep it.
			elapsed := firstEvict - t
			wLive -= float64(elapsed) / float64(primary.Exec)
			if wLive < 0 {
				wLive = 0
			}
			t = firstEvict
			// §9 extension: a warning long enough to upload a checkpoint
			// turns the in-flight progress durable before the machines
			// vanish.
			if dec.UseCheckpoints && r.WarningWindow >= primary.Save {
				wDurable = wLive
				emit(obs.Event{Type: obs.EvCheckpoint, T: float64(t), Job: env.Job.Name,
					Config: primary.Config.ID(), WorkLeft: wLive})
			}
			// Drop the evicted replica (and any other replica evicted
			// at the same instant).
			var survivors []replica
			for i := range live {
				if i != evictIdx && live[i].evict > t {
					survivors = append(survivors, live[i])
				}
			}
			emit(obs.Event{Type: obs.EvEvict, T: float64(t), Job: env.Job.Name,
				Config: primary.Config.ID(), WorkLeft: wLive})
			if len(survivors) == 0 {
				// Total loss: roll back to the last durable checkpoint.
				wLive = wDurable
				live = nil
			} else {
				// The survivor holds the in-memory state; promote it.
				live = survivors
			}
			continue
		}

		// Segment completes.
		for i := range live {
			cost, err := market.Cost(live[i].stats.Config, t, segEnd)
			if err != nil {
				return res, err
			}
			spend(t, live[i].stats.Config, cost)
		}
		wLive -= float64(segment) / float64(primary.Exec)
		if wLive < 1e-12 {
			wLive = 0
		}
		t = segEnd

		// Persist state: a checkpoint if mid-job, the output write if
		// done. A replica evicted mid-save is billed only up to its
		// eviction and counted; as long as one replica survives the
		// window, its save completes and the run proceeds. Only a total
		// loss fails the save and rolls back to the durable checkpoint.
		saveEnd := t + primary.Save
		var savers []replica
		var evTimes []units.Seconds
		for i := range live {
			if live[i].evict < saveEnd {
				cost, err := market.Cost(live[i].stats.Config, t, live[i].evict)
				if err != nil {
					return res, err
				}
				spend(t, live[i].stats.Config, cost)
				evTimes = append(evTimes, live[i].evict)
				continue
			}
			cost, err := market.Cost(live[i].stats.Config, t, saveEnd)
			if err != nil {
				return res, err
			}
			spend(t, live[i].stats.Config, cost)
			savers = append(savers, live[i])
		}
		sort.Slice(evTimes, func(i, j int) bool { return evTimes[i] < evTimes[j] })
		segStart := t
		for _, ev := range evTimes {
			emit(obs.Event{Type: obs.EvEvict, T: float64(ev), Job: env.Job.Name,
				Config: primary.Config.ID(), WorkLeft: wLive})
			segStart = ev
		}
		if len(savers) == 0 && len(evTimes) > 0 {
			// Every replica vanished before the save finished: the
			// checkpoint fails, roll back to the last durable one.
			t = segStart
			wLive = wDurable
			live = nil
			continue
		}
		live = savers
		t = saveEnd
		if wLive > 0 {
			if dec.UseCheckpoints {
				wDurable = wLive
				emit(obs.Event{Type: obs.EvCheckpoint, T: float64(t), Job: env.Job.Name,
					Config: primary.Config.ID(), WorkLeft: wLive})
			}
			continue
		}
		wDurable = 0
		emit(obs.Event{Type: obs.EvDone, T: float64(t), Job: env.Job.Name,
			Config: primary.Config.ID(), Done: true,
			Missed: t > deadline, USD: float64(res.Cost)})
		return res, nil
	}
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
