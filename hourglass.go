// Package hourglass is the public API of the Hourglass reproduction —
// a resource-provisioning engine for time-constrained graph-processing
// jobs on transient cloud resources (Joaquim, Bravo, Rodrigues, Matos;
// EuroSys 2019).
//
// The package wires together the internal substrates (graph engine,
// partitioners, micro-partitioning, spot market, performance model,
// provisioning strategies, simulator) behind a small surface:
//
//	sys, _ := hourglass.New(hourglass.Options{Seed: 42})
//	res, _ := sys.Simulate(hourglass.GC, hourglass.StrategyHourglass, 0.5, 200)
//	fmt.Printf("cost %.2f×OD, missed %.0f%%\n", res.MeanNormCost, res.MissedFraction*100)
//
// See the examples/ directory for runnable scenarios and DESIGN.md for
// the system inventory.
package hourglass

import (
	"fmt"
	"sync"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/perfmodel"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// JobKind names one of the paper's benchmark jobs.
type JobKind string

// The three §8 benchmark jobs.
const (
	SSSP     JobKind = "sssp"
	PageRank JobKind = "pagerank"
	GC       JobKind = "graphcoloring"
)

// job resolves a kind to its calibrated model.
func job(k JobKind) (perfmodel.Job, error) {
	switch k {
	case SSSP:
		return perfmodel.JobSSSP, nil
	case PageRank:
		return perfmodel.JobPageRank, nil
	case GC:
		return perfmodel.JobGC, nil
	default:
		return perfmodel.Job{}, fmt.Errorf("hourglass: unknown job %q", k)
	}
}

// ParseJobKind validates a job-kind name, for admission checks on
// external input (CLI flags, HTTP job specs).
func ParseJobKind(s string) (JobKind, error) {
	k := JobKind(s)
	if _, err := job(k); err != nil {
		return "", err
	}
	return k, nil
}

// Strategy names a provisioning strategy.
type Strategy string

// Provisioning strategies available to Simulate.
const (
	StrategyHourglass Strategy = "hourglass"  // slack-aware (the contribution)
	StrategyProteus   Strategy = "proteus"    // greedy cost-per-work
	StrategySpotOn    Strategy = "spoton"     // greedy over spot only, always checkpointing
	StrategyProteusDP Strategy = "proteus+dp" // greedy with deadline protection
	StrategySpotOnDP  Strategy = "spoton+dp"
	StrategyOnDemand  Strategy = "ondemand"
	StrategyNaive     Strategy = "naive" // §2's "Hourglass Naive": greedy then DP
	// StrategyRelaxed is the §8.2 "relaxed-Hourglass": slack-aware
	// against an inflated deadline (half the LRC exec time extra),
	// trading occasional misses for savings on soft deadlines.
	StrategyRelaxed Strategy = "hourglass-relaxed"
)

// Strategies lists every selectable strategy.
func Strategies() []Strategy {
	return []Strategy{StrategyHourglass, StrategyProteus, StrategySpotOn,
		StrategyProteusDP, StrategySpotOnDP, StrategyOnDemand, StrategyNaive,
		StrategyRelaxed}
}

// ValidateStrategy rejects strategy names Provisioner cannot build.
// Long-running callers (the scheduler daemon) validate specs at
// admission so a bad strategy can never surface mid-batch.
func ValidateStrategy(st Strategy) error {
	switch st {
	case StrategyHourglass, StrategyProteus, StrategySpotOn,
		StrategyProteusDP, StrategySpotOnDP, StrategyOnDemand,
		StrategyNaive, StrategyRelaxed:
		return nil
	}
	return fmt.Errorf("hourglass: unknown strategy %q", st)
}

// Options configure a System.
type Options struct {
	// Seed drives the synthetic spot-price traces (historical and
	// live months derive decorrelated sub-seeds). Same seed ⇒ every
	// experiment reproduces exactly.
	Seed int64
	// TraceDays is the length of each generated month (0 = 10).
	TraceDays float64
	// Model overrides the performance model (nil = calibrated default
	// with micro-partition loading).
	Model *perfmodel.Model
	// Configs overrides the deployment configuration set (nil = the
	// paper's capacity-capped spot + on-demand grid).
	Configs []cloud.Config
	// LiveTraces overrides the simulated market month and
	// HistoricalTraces the month the eviction model is fitted on
	// (both nil = synthetic seeded months). Build sets from real AWS
	// spot-price-history dumps with cloud.ReadTraceCSV.
	LiveTraces, HistoricalTraces cloud.TraceSet
}

// System is a ready-to-simulate Hourglass deployment environment.
// A System is safe for concurrent use: the market, eviction model and
// per-job environments are immutable once built, and the lazy env
// cache is mutex-guarded, so one System can back many concurrent
// scheduler workers.
type System struct {
	opts      Options
	market    *cloud.Market
	evictions *cloud.EvictionModel
	model     *perfmodel.Model
	configs   []cloud.Config

	mu   sync.Mutex // guards envs
	envs map[JobKind]*core.Env
}

// New builds a System: generates the historical and live price traces,
// fits the eviction model, and prepares per-job environments lazily.
func New(opts Options) (*System, error) {
	if opts.TraceDays == 0 {
		opts.TraceDays = 10
	}
	model := opts.Model
	if model == nil {
		model = perfmodel.Default()
	}
	configs := opts.Configs
	if configs == nil {
		configs = cloud.DefaultConfigs()
	}
	historical := opts.HistoricalTraces
	if historical == nil {
		historical = cloud.GenerateSet(cloud.Catalogue(),
			cloud.GenParams{Days: opts.TraceDays, Seed: opts.Seed ^ 0x0C70BE5}) // "October"
	}
	evictions, err := cloud.BuildEvictionModel(historical, 512)
	if err != nil {
		return nil, err
	}
	live := opts.LiveTraces
	if live == nil {
		live = cloud.GenerateSet(cloud.Catalogue(),
			cloud.GenParams{Days: opts.TraceDays, Seed: opts.Seed ^ 0x404E4B5}) // "November"
	}
	return &System{
		opts:      opts,
		market:    cloud.NewMarket(live),
		evictions: evictions,
		model:     model,
		configs:   configs,
		envs:      map[JobKind]*core.Env{},
	}, nil
}

// Env returns (building on first use) the provisioning environment for
// a job. Concurrent callers racing on the first build serialise on the
// System mutex; the built Env is safe for concurrent use, and every
// slack-aware decision for the job kind shares its EC table.
func (s *System) Env(k JobKind) (*core.Env, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.envs[k]; ok {
		return e, nil
	}
	j, err := job(k)
	if err != nil {
		return nil, err
	}
	e, err := core.NewEnv(j, s.model, s.configs, s.market, s.evictions)
	if err != nil {
		return nil, err
	}
	s.envs[k] = e
	return e, nil
}

// Provisioner instantiates a fresh strategy bound to the job's
// environment. Wrappers with latch state (DP) must be rebuilt per run,
// which Simulate does automatically.
func (s *System) Provisioner(k JobKind, st Strategy) (core.Provisioner, error) {
	env, err := s.Env(k)
	if err != nil {
		return nil, err
	}
	switch st {
	case StrategyHourglass:
		return core.NewSlackAware(env), nil
	case StrategyProteus:
		return core.NewGreedy(env), nil
	case StrategySpotOn:
		return core.NewSpotOn(env), nil
	case StrategyProteusDP, StrategyNaive:
		return core.NewDP(core.NewGreedy(env), env), nil
	case StrategySpotOnDP:
		return core.NewDP(core.NewSpotOn(env), env), nil
	case StrategyOnDemand:
		return &core.OnDemandOnly{Env: env}, nil
	case StrategyRelaxed:
		return core.NewRelaxed(env, env.LRC.Exec/2), nil
	default:
		return nil, fmt.Errorf("hourglass: unknown strategy %q", st)
	}
}

// Result re-exports the batch aggregate.
type Result = sim.BatchResult

// Simulate runs `runs` trace-driven executions of the job under the
// strategy with the given slack fraction (0.1 = deadline leaves 10% of
// the LRC execution time as slack) and random start offsets.
func (s *System) Simulate(k JobKind, st Strategy, slackFraction float64, runs int) (Result, error) {
	env, err := s.Env(k)
	if err != nil {
		return Result{}, err
	}
	if err := ValidateStrategy(st); err != nil {
		return Result{}, err
	}
	runner := &sim.Runner{Env: env}
	return runner.RunBatch(func() core.Provisioner {
		// Job and strategy were both validated above, so Provisioner
		// cannot fail here.
		p, _ := s.Provisioner(k, st)
		return p
	}, slackFraction, runs, s.opts.Seed+int64(slackFraction*1000))
}

// SimulateOne runs a single execution starting at a fixed trace offset
// with an absolute deadline, returning the detailed result.
func (s *System) SimulateOne(k JobKind, st Strategy, start, deadline units.Seconds) (sim.RunResult, error) {
	env, err := s.Env(k)
	if err != nil {
		return sim.RunResult{}, err
	}
	p, err := s.Provisioner(k, st)
	if err != nil {
		return sim.RunResult{}, err
	}
	runner := &sim.Runner{Env: env}
	return runner.Run(p, start, deadline)
}

// DeadlineFor translates a slack fraction into a relative deadline for
// the job (fixed + exec + slack·exec), the §8.2 scheme.
func (s *System) DeadlineFor(k JobKind, slackFraction float64) (units.Seconds, error) {
	env, err := s.Env(k)
	if err != nil {
		return 0, err
	}
	return env.LRC.Fixed + env.LRC.Exec + units.Seconds(slackFraction*float64(env.LRC.Exec)), nil
}

// Baseline returns the on-demand normalisation cost for the job.
func (s *System) Baseline(k JobKind) (units.USD, error) {
	env, err := s.Env(k)
	if err != nil {
		return 0, err
	}
	return sim.Baseline(env), nil
}

// Horizon returns the usable trace horizon for the job's market —
// the bound on random start offsets. External schedulers drawing
// their own offsets (cmd/hourglass-serve) use it to stay on-trace.
func (s *System) Horizon(k JobKind) (units.Seconds, error) {
	env, err := s.Env(k)
	if err != nil {
		return 0, err
	}
	return (&sim.Runner{Env: env}).Horizon(), nil
}
