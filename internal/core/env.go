// Package core implements the paper's primary contribution: the
// slack-aware provisioning strategy of §5 — the expected-cost model
// EC(t,w), its efficient approximation (§5.3) and the exact integral
// formulation (§5.2) — together with the baseline provisioners the
// evaluation compares against (Proteus-style greedy, SpotOn, the
// deadline-protection wrapper, and on-demand only).
package core

import (
	"fmt"
	"math"

	"hourglass/internal/cloud"
	"hourglass/internal/perfmodel"
	"hourglass/internal/units"
)

// ConfigStats caches the Table 1 quantities for one configuration.
type ConfigStats struct {
	Config cloud.Config
	Exec   units.Seconds // t_exec: full-job compute time on this config
	Load   units.Seconds // t_load
	Save   units.Seconds // t_save
	Boot   units.Seconds // t_boot
	Fixed  units.Seconds // t_fixed = boot + load + save
	Omega  float64       // ω_c = t_lrc_exec / t_exec
	MTTF   units.Seconds // mean time to eviction (∞ for on-demand)
	Ckpt   units.Seconds // optimal checkpoint interval (Daly)
	// AvgRate is the historical mean price per second (used for
	// future-looking recursion where current prices are unknowable).
	AvgRate units.USD

	// evictionCDF is the eviction model's CDF for this configuration's
	// instance type, resolved once (nil for on-demand).
	evictionCDF func(units.Seconds) float64
}

// Env bundles everything a provisioner consults: the job, the
// performance model, the configuration set with cached stats, the
// market (current prices) and the eviction model (historical CDFs).
type Env struct {
	Job       perfmodel.Job
	Model     *perfmodel.Model
	Market    *cloud.Market
	Evictions *cloud.EvictionModel

	LRC      ConfigStats
	Stats    []ConfigStats // feasible configs only, LRC included
	statsMap map[string]*ConfigStats

	// OfflineCost is the price of the loading strategy's offline
	// partitioning phase (billed on one on-demand machine of the LRC
	// type); §8.2 includes it in every reported cost. Zero for
	// strategies without an offline phase.
	OfflineCost units.USD
}

// NewEnv validates the configuration set, locates the last-resort
// configuration and precomputes per-config statistics.
func NewEnv(job perfmodel.Job, model *perfmodel.Model, configs []cloud.Config,
	market *cloud.Market, evictions *cloud.EvictionModel) (*Env, error) {
	lrcCfg, err := model.LRC(job, configs)
	if err != nil {
		return nil, err
	}
	env := &Env{Job: job, Model: model, Market: market, Evictions: evictions,
		statsMap: map[string]*ConfigStats{}}
	for _, c := range configs {
		if !model.Feasible(job, c) {
			continue
		}
		cs, err := env.buildStats(c, lrcCfg)
		if err != nil {
			return nil, err
		}
		env.Stats = append(env.Stats, cs)
	}
	lrcStats, err := env.buildStats(lrcCfg, lrcCfg)
	if err != nil {
		return nil, err
	}
	env.LRC = lrcStats
	for i := range env.Stats {
		env.statsMap[env.Stats[i].Config.ID()] = &env.Stats[i]
	}
	if len(env.Stats) == 0 {
		return nil, fmt.Errorf("core: no feasible configuration for job %s", job.Name)
	}
	env.OfflineCost = units.USD(float64(model.OfflineTime(job)) *
		float64(lrcCfg.Instance.OnDemand.PerSecond()))
	return env, nil
}

func (e *Env) buildStats(c cloud.Config, lrc cloud.Config) (ConfigStats, error) {
	cs := ConfigStats{
		Config: c,
		Exec:   e.Model.ExecTime(e.Job, c, lrc),
		Load:   e.Model.LoadTime(e.Job, c),
		Save:   e.Model.SaveTime(e.Job, c),
		Boot:   e.Model.Boot(c),
		Omega:  e.Model.NormalizedCapacity(e.Job, c, lrc),
	}
	cs.Fixed = cs.Boot + cs.Load + cs.Save
	if c.Transient {
		mttf, err := e.Evictions.MTTF(c.Instance.Name)
		if err != nil {
			return ConfigStats{}, err
		}
		cs.MTTF = mttf
		cs.Ckpt = dalyInterval(cs.Save, mttf)
		avg, err := e.Evictions.AvgSpotPrice(c.Instance.Name)
		if err != nil {
			return ConfigStats{}, err
		}
		cs.AvgRate = units.USD(avg / float64(units.Hour) * float64(c.Count))
		cs.evictionCDF = e.Evictions.CDFFor(c.Instance.Name)
	} else {
		cs.MTTF = units.Seconds(math.Inf(1))
		cs.Ckpt = units.Seconds(math.Inf(1))
		cs.AvgRate = c.OnDemandRate()
	}
	return cs, nil
}

// dalyInterval is the checkpoint interval that minimises expected lost
// work for a configuration whose checkpoint takes tSave and whose mean
// time to failure is mttf: Daly's first-order √(2·tSave·MTTF), the
// paper's t_ckpt (§5.1, following Flint). Degenerate inputs yield +Inf
// (never checkpoint).
func dalyInterval(tSave, mttf units.Seconds) units.Seconds {
	if tSave <= 0 || mttf <= 0 {
		return units.Seconds(math.Inf(1))
	}
	return units.Seconds(math.Sqrt(2 * float64(tSave) * float64(mttf)))
}

// MarketTrace exposes the price trace backing an instance type.
func (e *Env) MarketTrace(name string) (*cloud.PriceTrace, error) {
	return e.Market.TraceFor(name)
}

// StatsFor returns the cached stats of a configuration.
func (e *Env) StatsFor(c cloud.Config) (*ConfigStats, bool) {
	cs, ok := e.statsMap[c.ID()]
	return cs, ok
}

// State is a provisioning decision point.
type State struct {
	// Now is the current virtual time (also indexes the price trace).
	Now units.Seconds
	// WorkLeft is w(t) ∈ [0,1], the fraction of the job remaining.
	WorkLeft float64
	// Deadline is the absolute termination deadline t_deadline.
	Deadline units.Seconds
	// Current is the configuration currently deployed (nil if none —
	// job start or just-evicted).
	Current *cloud.Config
	// Uptime is how long Current has been up (conditions the eviction
	// CDF).
	Uptime units.Seconds
}

// Horizon is the time remaining to the deadline.
func (s State) Horizon() units.Seconds { return s.Deadline - s.Now }

// Slack implements the paper's slack(t) = horizon(t) − t_lrc_fixed −
// w(t)·t_lrc_exec.
func (e *Env) Slack(s State) units.Seconds {
	return s.Horizon() - e.LRC.Fixed - units.Seconds(s.WorkLeft*float64(e.LRC.Exec))
}

// Useful implements useful(c,t) = min(w·t_exec, slack − overhead,
// t_ckpt), where overhead is t_fixed for a fresh deployment of c and
// t_save when c keeps running (§5.1).
func (e *Env) Useful(cs *ConfigStats, s State, fresh bool) units.Seconds {
	overhead := cs.Save
	if fresh {
		overhead = cs.Fixed
	}
	remainExec := units.Seconds(s.WorkLeft * float64(cs.Exec))
	u := units.Min(remainExec, e.Slack(s)-overhead)
	return units.Min(u, cs.Ckpt)
}

// ExpectedProgress is ω_c·useful(c,t)/t_lrc_exec: the work fraction a
// useful interval completes.
func (e *Env) ExpectedProgress(cs *ConfigStats, s State, fresh bool) float64 {
	u := e.Useful(cs, s, fresh)
	if u <= 0 {
		return 0
	}
	return e.progress(cs, u)
}

// progress is the work fraction a useful interval u on cs completes.
func (e *Env) progress(cs *ConfigStats, u units.Seconds) float64 {
	return cs.Omega * float64(u) / float64(e.LRC.Exec)
}

// LRCFinishCost is the deterministic cost of completing work w on the
// last-resort configuration starting fresh at time t.
func (e *Env) LRCFinishCost(w float64) units.USD {
	dur := float64(e.LRC.Fixed) + w*float64(e.LRC.Exec)
	return units.USD(float64(e.LRC.Config.OnDemandRate()) * dur)
}

// CurrentRate returns the price per second of c at time now, falling
// back to the historical average if the market lookup fails.
func (e *Env) CurrentRate(cs *ConfigStats, now units.Seconds) units.USD {
	r, err := e.Market.Rate(cs.Config, now)
	if err != nil {
		return cs.AvgRate
	}
	return r
}

// EvictionProb returns P(evicted within the next dt | survived uptime
// u) for a transient configuration; 0 for on-demand.
func (e *Env) EvictionProb(cs *ConfigStats, uptime, dt units.Seconds) float64 {
	if !cs.Config.Transient || dt <= 0 {
		return 0
	}
	fa := cs.evictionCDF(uptime)
	fb := cs.evictionCDF(uptime + dt)
	if fa >= 1 {
		return 1
	}
	return (fb - fa) / (1 - fa)
}

// Decision is a provisioner's verdict.
type Decision struct {
	// Config to deploy (or keep) now.
	Config cloud.Config
	// KeepCurrent is true when Config equals the running deployment
	// (no teardown, no reload).
	KeepCurrent bool
	// Replicas > 1 requests SpotOn-style replicated deployments
	// (additional replicas use distinct instance types); checkpointing
	// is disabled while replicated.
	Replicas int
	// Extra holds the additional replica configurations when
	// Replicas > 1 (Config is the primary).
	Extra []cloud.Config
	// ExpectedCost is the provisioner's estimate of finishing cost.
	ExpectedCost units.USD
	// UseCheckpoints reports whether periodic checkpointing is on.
	UseCheckpoints bool
	// MaxRun bounds the compute time before the provisioner must be
	// consulted again (the planned useful interval, which keeps the
	// slack invariant); 0 = no bound.
	MaxRun units.Seconds
}

// Provisioner decides which configuration to run next. Implementations
// are consulted at job start, after evictions, and at checkpoint
// boundaries (§4 step 4).
type Provisioner interface {
	Name() string
	Decide(s State) (Decision, error)
}

// Infeasible is the sentinel "fails deadline" cost (second EC case).
var Infeasible = units.USD(math.Inf(1))
