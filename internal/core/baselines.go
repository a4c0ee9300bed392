package core

import (
	"math"

	"hourglass/internal/units"
)

// Greedy is the Proteus-style provisioner (§8.2): it "greedily selects
// the deployment expected to reduce the cost per unit of work produced
// at each moment", with no notion of deadline. Cost per work for a
// configuration is its current price rate divided by its normalized
// capacity, inflated by the expected checkpoint overhead.
type Greedy struct {
	Env *Env
	// SpotOnly restricts candidates to transient configurations unless
	// none is feasible (both Proteus and SpotOn hunt spot savings).
	SpotOnly bool
	// Hysteresis keeps the current deployment unless a candidate beats
	// its cost-per-work by this relative margin (0 = 0.10) — switching
	// costs a full reload, so thrashing on price noise is never worth
	// it.
	Hysteresis float64
	// Simple drops the checkpoint/rework overhead terms from the
	// cost-per-work score (SpotOn's plainer greedy core).
	Simple bool
}

// NewGreedy builds the Proteus-like baseline.
func NewGreedy(env *Env) *Greedy { return &Greedy{Env: env, SpotOnly: true} }

// Name implements Provisioner.
func (g *Greedy) Name() string { return "proteus" }

// costPerWork estimates $(per unit of normalized work) for cs at now.
func (g *Greedy) costPerWork(cs *ConfigStats, now units.Seconds) float64 {
	if cs.Omega <= 0 {
		return math.Inf(1)
	}
	rate := float64(g.Env.CurrentRate(cs, now))
	overhead := 1.0
	if cs.Config.Transient && !g.Simple {
		// Checkpoint time and expected half-interval rework per MTTF.
		if !math.IsInf(float64(cs.Ckpt), 1) && cs.Ckpt > 0 {
			overhead += float64(cs.Save) / float64(cs.Ckpt)
		}
		if !math.IsInf(float64(cs.MTTF), 1) && cs.MTTF > 0 {
			overhead += float64(cs.Ckpt) / 2 / float64(cs.MTTF)
		}
	}
	return rate * overhead / cs.Omega
}

// Decide implements Provisioner.
func (g *Greedy) Decide(s State) (Decision, error) {
	best := Decision{ExpectedCost: Infeasible}
	bestScore := math.Inf(1)
	for pass := 0; pass < 2; pass++ {
		for i := range g.Env.Stats {
			cs := &g.Env.Stats[i]
			if g.SpotOnly && pass == 0 && !cs.Config.Transient {
				continue
			}
			if pass == 1 && cs.Config.Transient {
				continue
			}
			// Skip spot configs whose market is currently spiking
			// (requests would not be fulfilled).
			if cs.Config.Transient {
				if ok, err := g.Env.Market.Available(cs.Config, s.Now); err == nil && !ok {
					continue
				}
			}
			score := g.costPerWork(cs, s.Now)
			if s.Current != nil && cs.Config.ID() == s.Current.ID() {
				h := g.Hysteresis
				if h == 0 {
					h = 0.10
				}
				score /= 1 + h
			}
			if score < bestScore {
				bestScore = score
				keep := s.Current != nil && cs.Config.ID() == s.Current.ID()
				best = Decision{
					Config:         cs.Config,
					KeepCurrent:    keep,
					ExpectedCost:   units.USD(score * s.WorkLeft * float64(g.Env.LRC.Exec)),
					UseCheckpoints: cs.Config.Transient,
				}
			}
		}
		if !math.IsInf(bestScore, 1) {
			break // found a spot candidate; skip the on-demand pass
		}
	}
	return best, nil
}

// SpotOn is the SpotOn-style provisioner (§8.2): the same greedy
// cost-per-work core over transient configurations while one is
// feasible, with periodic checkpointing on every transient deployment. SpotOn's other
// option, replicas on decorrelated markets with checkpointing off, is
// not modelled: it was never chosen in any exhibit (see DESIGN.md), so
// every executor runs one deployment at a time.
type SpotOn struct {
	Env *Env
}

// NewSpotOn builds the baseline.
func NewSpotOn(env *Env) *SpotOn { return &SpotOn{Env: env} }

// Name implements Provisioner.
func (s *SpotOn) Name() string { return "spoton" }

// Decide implements Provisioner.
func (s *SpotOn) Decide(st State) (Decision, error) {
	g := &Greedy{Env: s.Env, SpotOnly: true, Simple: true, Hysteresis: 0.05}
	return g.Decide(st)
}

// DeadlineProtection is the "+DP" wrapper the paper derives for the
// baselines (§8.2): delegate to the inner provisioner while slack
// remains to tolerate another eviction, then switch to the last-resort
// configuration for good.
type DeadlineProtection struct {
	Inner Provisioner
	Env   *Env
	// Margin is extra safety slack retained before tripping (0 = none).
	Margin units.Seconds

	tripped bool
}

// NewDP wraps a provisioner with deadline protection.
func NewDP(inner Provisioner, env *Env) *DeadlineProtection {
	return &DeadlineProtection{Inner: inner, Env: env}
}

// Name implements Provisioner.
func (d *DeadlineProtection) Name() string { return d.Inner.Name() + "+dp" }

// lrcDecision is the latched last-resort verdict.
func (d *DeadlineProtection) lrcDecision(s State) Decision {
	keep := s.Current != nil && s.Current.ID() == d.Env.LRC.Config.ID()
	return Decision{
		Config:       d.Env.LRC.Config,
		KeepCurrent:  keep,
		ExpectedCost: d.Env.LRCFinishCost(s.WorkLeft),
	}
}

// Decide implements Provisioner. The wrapper trips when the slack can
// no longer absorb the *next* transient exposure window — the upcoming
// segment (bounded by the checkpoint interval) plus deployment and save
// overheads, all of which an eviction could waste entirely.
func (d *DeadlineProtection) Decide(s State) (Decision, error) {
	if d.tripped {
		return d.lrcDecision(s), nil
	}
	if d.Env.Slack(s) <= d.Margin {
		d.tripped = true
		return d.lrcDecision(s), nil
	}
	inner, err := d.Inner.Decide(s)
	if err != nil {
		return Decision{}, err
	}
	if !inner.Config.Transient {
		// The inner provisioner may fall back to a *cheap* on-demand
		// configuration (e.g. during a market spike); accept it only if
		// that configuration still meets the deadline, else trip to the
		// last resort.
		if cs, ok := d.Env.StatsFor(inner.Config); ok {
			need := float64(cs.Fixed) + s.WorkLeft*float64(cs.Exec)
			if units.Seconds(need) <= s.Horizon() {
				return inner, nil
			}
		}
		d.tripped = true
		return d.lrcDecision(s), nil
	}
	cs, ok := d.Env.StatsFor(inner.Config)
	if !ok {
		return d.lrcDecision(s), nil
	}
	segment := units.Min(units.Seconds(s.WorkLeft*float64(cs.Exec)), cs.Ckpt)
	if inner.MaxRun > 0 {
		segment = units.Min(segment, inner.MaxRun)
	}
	exposure := segment + cs.Save
	if inner.KeepCurrent {
		exposure += cs.Save
	} else {
		exposure += cs.Boot + cs.Load
	}
	if d.Env.Slack(s)-exposure <= d.Margin {
		d.tripped = true
		return d.lrcDecision(s), nil
	}
	return inner, nil
}

// OnDemandOnly always runs the last-resort configuration — the
// normalisation baseline of every cost figure.
type OnDemandOnly struct {
	Env *Env
}

// Name implements Provisioner.
func (o *OnDemandOnly) Name() string { return "ondemand" }

// Decide implements Provisioner.
func (o *OnDemandOnly) Decide(s State) (Decision, error) {
	keep := s.Current != nil && s.Current.ID() == o.Env.LRC.Config.ID()
	return Decision{
		Config:       o.Env.LRC.Config,
		KeepCurrent:  keep,
		ExpectedCost: o.Env.LRCFinishCost(s.WorkLeft),
	}, nil
}
