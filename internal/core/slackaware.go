package core

import (
	"math"

	"hourglass/internal/units"
)

// SlackAware is the Hourglass provisioning strategy (§5): pick the
// configuration minimising the expected cost EC(t,w) of finishing the
// job before the deadline, computed with the efficient approximation
// of §5.3 — on success a configuration keeps running through
// consecutive checkpoint intervals, and the failure integral collapses
// to a single evaluation at the configuration's MTTF.
type SlackAware struct {
	Env *Env
	// OpBudget caps branch evaluations per decision; beyond it the
	// conservative last-resort cost is substituted (0 = 2e6). It is
	// part of the model, not only a safety net: on long horizons — a
	// GraphColoring decision at slack 3 — the budget binds, and the
	// substituted costs change what is decided.
	OpBudget int64
	// WarningWindow enables the §9 extension: when the provider warns
	// this long before evictions and the window fits a checkpoint,
	// the failure branch credits the progress made before the eviction
	// instead of assuming total loss.
	WarningWindow units.Seconds

	// LastOps reports the evaluations used by the most recent decision.
	LastOps int64

	// scratch holds the recursion's memo table and is reused across
	// Decide calls within one job run: the memoised recursion depends
	// only on absolute time, work and the deadline (deep levels price
	// at historical averages), so entries stay valid while the deadline
	// is unchanged.
	scratch      *awScratch
	scratchDL    units.Seconds
	scratchValid bool
}

// NewSlackAware builds the strategy with default discretisation.
func NewSlackAware(env *Env) *SlackAware {
	return &SlackAware{Env: env, OpBudget: 2e6}
}

// minFailStep bounds how little slack a simulated failure consumes; it
// guarantees the recursion terminates.
const minFailStep units.Seconds = 60

// Name implements Provisioner.
func (p *SlackAware) Name() string { return "hourglass" }

// awScratch is the working state of one job's decisions. Its memo table
// holds EC(t,w) and the kept-configuration branches EC(t,w)|c on one
// grid: time buckets of max(60 s, horizon/200) and work buckets of
// 1/200, fixed for the horizon the scratch was made for, which keeps
// the dynamic program near-constant cost regardless of job length.
type awScratch struct {
	memo       memoTable
	ops        int64
	budget     int64
	timeBucket units.Seconds
	workBucket float64
}

func (p *SlackAware) newScratch(horizon units.Seconds) *awScratch {
	budget := p.OpBudget
	if budget == 0 {
		budget = 2e6
	}
	return &awScratch{budget: budget, timeBucket: units.Max(60, horizon/200), workBucket: 1.0 / 200}
}

// key is the grid cell of (t, w, uptime) in slot (0 for EC(t,w), c+1
// for configuration c's kept branch).
func (sc *awScratch) key(slot int, t units.Seconds, w float64, uptime units.Seconds) memoKey {
	return memoKey{slot: int64(slot), t: int64(t / sc.timeBucket), w: int64(w / sc.workBucket),
		u: int64(uptime / sc.timeBucket)}
}

// Decide implements Provisioner: evaluate EC(t,w)|c for every feasible
// configuration (continuing the current one counts its lower overhead)
// and return the argmin. The last-resort configuration is always a
// candidate, so a decision always exists.
func (p *SlackAware) Decide(s State) (Decision, error) {
	if !p.scratchValid || p.scratchDL != s.Deadline {
		p.scratch = p.newScratch(s.Horizon())
		p.scratchDL = s.Deadline
		p.scratchValid = true
	}
	sc := p.scratch
	sc.ops = 0
	best := Decision{ExpectedCost: Infeasible}
	for i := range p.Env.Stats {
		cs := &p.Env.Stats[i]
		fresh := s.Current == nil || cs.Config.ID() != s.Current.ID()
		uptime := units.Seconds(0)
		if !fresh {
			uptime = s.Uptime
		}
		// A spot request during a price spike is not fulfilled: skip
		// configurations whose market is currently above the bid.
		if fresh && cs.Config.Transient {
			if ok, err := p.Env.Market.Available(cs.Config, s.Now); err == nil && !ok {
				continue
			}
		}
		// Immediate intervals are priced at the current market rate
		// (§5.1 "the price charged by the service provider at the
		// provisioning moment"); deeper recursion uses historical
		// averages.
		rate := p.Env.CurrentRate(cs, s.Now)
		cost := p.branchCost(sc, i, s.Now, s.WorkLeft, s.Deadline, uptime, fresh, rate, 0)
		if cost < best.ExpectedCost ||
			(cost == best.ExpectedCost && !best.KeepCurrent && !fresh) {
			best = Decision{
				Config:         cs.Config,
				KeepCurrent:    !fresh,
				Replicas:       1,
				ExpectedCost:   cost,
				UseCheckpoints: cs.Config.Transient,
			}
			if cs.Config.Transient {
				// Never run past the planned useful interval: that is
				// what preserves the always-meet-deadline invariant.
				best.MaxRun = p.Env.Useful(cs, s, fresh)
			}
		}
	}
	p.LastOps = sc.ops
	if math.IsInf(float64(best.ExpectedCost), 1) {
		// No transient plan fits: fall back to the last resort.
		keep := s.Current != nil && s.Current.ID() == p.Env.LRC.Config.ID()
		return Decision{
			Config:       p.Env.LRC.Config,
			KeepCurrent:  keep,
			Replicas:     1,
			ExpectedCost: p.Env.LRCFinishCost(s.WorkLeft),
		}, nil
	}
	return best, nil
}

// Evaluate computes EC(t,w) for a fresh decision under historical
// average prices (the apples-to-apples quantity Figure 9 compares
// against the exact integral).
func (p *SlackAware) Evaluate(s State) units.USD {
	sc := p.newScratch(s.Horizon())
	v := p.ecFull(sc, s.Now, s.WorkLeft, s.Deadline, 0)
	p.LastOps = sc.ops
	return v
}

// maxRecursion caps recursion depth as a safety net.
const maxRecursion = 4096

// branchCost computes EC(t,w)|c (§5.2 cases 3 and 4) under the §5.3
// approximation. Depth-0 calls use live market rates and are not
// memoised. Below the root only kept-configuration branches are: a
// fresh branch there is reached only from ecFull, which memoises the
// same (t, w) cell before it prices its branches.
func (p *SlackAware) branchCost(sc *awScratch, idx int, t units.Seconds, w float64,
	deadline units.Seconds, uptime units.Seconds, fresh bool, rate units.USD, depth int) units.USD {
	if w <= 0 {
		return 0
	}
	sc.ops++
	if depth > maxRecursion || sc.ops > sc.budget {
		return p.Env.LRCFinishCost(w)
	}
	if depth == 0 || fresh {
		return p.branchCostUncached(sc, idx, t, w, deadline, uptime, fresh, rate, depth)
	}
	k := sc.key(idx+1, t, w, uptime)
	if v, ok := sc.memo.get(k); ok {
		return v
	}
	// Conservative seed breaks cycles introduced by bucketing.
	sc.memo.put(k, p.Env.LRCFinishCost(w))
	v := p.branchCostUncached(sc, idx, t, w, deadline, uptime, fresh, rate, depth)
	sc.memo.put(k, v)
	return v
}

func (p *SlackAware) branchCostUncached(sc *awScratch, idx int, t units.Seconds, w float64,
	deadline units.Seconds, uptime units.Seconds, fresh bool, rate units.USD, depth int) units.USD {
	cs := &p.Env.Stats[idx]
	st := State{Now: t, WorkLeft: w, Deadline: deadline}
	if !cs.Config.Transient {
		// Case 3: on-demand — deterministic completion. We also charge
		// the boot/load overhead (machines bill from boot), a small
		// refinement over the paper's formula.
		overhead := cs.Save
		if fresh {
			overhead = cs.Fixed
		}
		total := float64(overhead) + w*float64(cs.Exec)
		if units.Seconds(total) > st.Horizon() {
			return Infeasible
		}
		return units.USD(float64(rate) * total)
	}
	// Case 4: transient.
	useful := p.Env.Useful(cs, st, fresh)
	if useful <= 0 {
		return Infeasible
	}
	setup := units.Seconds(0)
	if fresh {
		setup = cs.Boot + cs.Load
	}
	tint := setup + useful + cs.Save
	pFail := p.Env.EvictionProb(cs, uptime, tint)
	progress := p.Env.progress(cs, useful)

	// Success branch: keep running this configuration (approximation:
	// reconfigurations not due to evictions are rare).
	wNext := w - progress
	succTail := p.branchCost(sc, idx, t+tint, wNext, deadline, uptime+tint, false, cs.AvgRate, depth+1)
	if math.IsInf(float64(succTail), 1) && wNext > 0 {
		// Continuing c is no longer viable: finish on the last resort.
		succTail = p.Env.LRCFinishCost(wNext)
	}
	succ := units.USD(float64(rate)*float64(tint)) + succTail

	// Failure branch, evaluated once at the MTTF (not integrated): the
	// work since the last checkpoint is lost, time burns, and a fresh
	// decision is made. With an eviction warning long enough to fit an
	// emergency checkpoint (§9), the progress up to the eviction is
	// credited instead.
	failAt := units.Clamp(cs.MTTF-uptime, minFailStep, tint)
	wAtFail := w
	if p.WarningWindow >= cs.Save {
		computeTime := units.Clamp(failAt-setup, 0, useful)
		wAtFail = w - cs.Omega*float64(computeTime)/float64(p.Env.LRC.Exec)
		if wAtFail < 0 {
			wAtFail = 0
		}
	}
	fail := units.USD(float64(rate)*float64(failAt)) + p.ecFull(sc, t+failAt, wAtFail, deadline, depth+1)

	return units.USD(pFail*float64(fail) + (1-pFail)*float64(succ))
}

// ecFull is EC(t,w): the cost of the best configuration chosen fresh
// at (t,w), memoised on a discretised grid. Used for post-eviction
// follow-up costs, where current prices are unknowable and historical
// averages are used instead.
func (p *SlackAware) ecFull(sc *awScratch, t units.Seconds, w float64,
	deadline units.Seconds, depth int) units.USD {
	if w <= 0 {
		return 0
	}
	sc.ops++
	if depth > maxRecursion || sc.ops > sc.budget {
		return p.Env.LRCFinishCost(w)
	}
	k := sc.key(0, t, w, 0)
	if v, ok := sc.memo.get(k); ok {
		return v
	}
	// Seed with the last-resort cost so cycles resolve conservatively.
	sc.memo.put(k, p.Env.LRCFinishCost(w))
	best := Infeasible
	for i := range p.Env.Stats {
		cs := &p.Env.Stats[i]
		c := p.branchCost(sc, i, t, w, deadline, 0, true, cs.AvgRate, depth+1)
		if c < best {
			best = c
		}
	}
	if math.IsInf(float64(best), 1) {
		best = p.Env.LRCFinishCost(w)
	}
	sc.memo.put(k, best)
	return best
}
