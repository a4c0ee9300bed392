package core

import (
	"errors"
	"math"

	"hourglass/internal/units"
)

// ErrBudget is returned when the exact EC evaluation exceeds its
// operation budget — the "did not finish" outcome of Figure 9.
var ErrBudget = errors.New("core: exact EC evaluation exceeded budget")

// ExactEC evaluates EC(t,w) by the full §5.2 formulation: the failure
// branch integrates the eviction density over every discretised
// instant of the useful interval (instead of collapsing it to the
// MTTF), and the success branch re-optimises over all configurations
// at every checkpoint boundary (instead of sticking with the current
// one). This is the "Optimal" line of Figure 9 — accurate but
// intractable for long jobs and large slacks, which is exactly what
// the figure demonstrates.
type ExactEC struct {
	Env *Env
	// Step is the time discretisation of the integral (the paper uses
	// 1 s, the finest granularity of observed price changes).
	Step units.Seconds
	// OpBudget bounds branch evaluations before giving up (0 = 5e7).
	OpBudget int64

	ops  int64
	memo map[ecKey]units.USD
}

// NewExactEC builds the evaluator with a 1-second integral step.
func NewExactEC(env *Env) *ExactEC {
	return &ExactEC{Env: env, Step: 1, OpBudget: 5e7}
}

// Ops reports how many branch evaluations the last Evaluate used.
func (x *ExactEC) Ops() int64 { return x.ops }

// Evaluate computes EC(t,w) exactly (fresh decision, historical
// average prices, like SlackAware.Evaluate) or returns ErrBudget.
func (x *ExactEC) Evaluate(s State) (units.USD, error) {
	if x.OpBudget == 0 {
		x.OpBudget = 5e7
	}
	if x.Step <= 0 {
		x.Step = 1
	}
	x.ops = 0
	x.memo = map[ecKey]units.USD{}
	cost, err := x.ecFull(s.Now, s.WorkLeft, s.Deadline, 0)
	if err != nil {
		return 0, err
	}
	return cost, nil
}

// ecKey is a cell of the exact evaluator's memo grid.
type ecKey struct{ t, w int64 }

// key discretises the memo grid at the integral step and a fine work
// resolution (the exact evaluator must not profit from coarse buckets).
func (x *ExactEC) key(t units.Seconds, w float64) ecKey {
	return ecKey{int64(t / x.Step), int64(w * 1e6)}
}

func (x *ExactEC) ecFull(t units.Seconds, w float64, deadline units.Seconds, depth int) (units.USD, error) {
	if w <= 0 {
		return 0, nil
	}
	if depth > maxRecursion {
		return x.Env.LRCFinishCost(w), nil
	}
	k := x.key(t, w)
	if v, ok := x.memo[k]; ok {
		return v, nil
	}
	x.memo[k] = x.Env.LRCFinishCost(w) // conservative seed for cycles
	best := Infeasible
	for i := range x.Env.Stats {
		cs := &x.Env.Stats[i]
		c, err := x.branch(cs, t, w, deadline, 0, true, depth)
		if err != nil {
			return 0, err
		}
		if c < best {
			best = c
		}
	}
	if math.IsInf(float64(best), 1) {
		best = x.Env.LRCFinishCost(w)
	}
	x.memo[k] = best
	return best, nil
}

func (x *ExactEC) branch(cs *ConfigStats, t units.Seconds, w float64,
	deadline units.Seconds, uptime units.Seconds, fresh bool, depth int) (units.USD, error) {
	if w <= 0 {
		return 0, nil
	}
	x.ops++
	if x.ops > x.OpBudget {
		return 0, ErrBudget
	}
	if depth > maxRecursion {
		return x.Env.LRCFinishCost(w), nil
	}
	st := State{Now: t, WorkLeft: w, Deadline: deadline}
	rate := cs.AvgRate
	if !cs.Config.Transient {
		overhead := cs.Save
		if fresh {
			overhead = cs.Fixed
		}
		total := float64(overhead) + w*float64(cs.Exec)
		if units.Seconds(total) > st.Horizon() {
			return Infeasible, nil
		}
		return units.USD(float64(rate) * total), nil
	}
	useful := x.Env.Useful(cs, st, fresh)
	if useful <= 0 {
		return Infeasible, nil
	}
	setup := units.Seconds(0)
	if fresh {
		setup = cs.Boot + cs.Load
	}
	tint := setup + useful + cs.Save
	f0 := cs.evictionCDF(uptime)
	fEnd := cs.evictionCDF(uptime + tint)
	pFail := fEnd - f0
	if f0 < 1 {
		pFail /= 1 - f0
	} else {
		pFail = 1
	}

	// Success branch: the exact model re-optimises at the checkpoint
	// boundary — the better of continuing this configuration or
	// switching to the globally best fresh one.
	progress := x.Env.progress(cs, useful)
	wNext := w - progress
	cont, err := x.branch(cs, t+tint, wNext, deadline, uptime+tint, false, depth+1)
	if err != nil {
		return 0, err
	}
	sw, err := x.ecFull(t+tint, wNext, deadline, depth+1)
	if err != nil {
		return 0, err
	}
	tail := cont
	if sw < tail {
		tail = sw
	}
	if math.IsInf(float64(tail), 1) && wNext > 0 {
		tail = x.Env.LRCFinishCost(wNext)
	}
	succ := units.USD(float64(rate)*float64(tint)) + tail

	// Failure branch: integrate over every discretised failure instant
	// within the interval (the §5.2 costTfail integral).
	var fail float64
	if pFail > 0 {
		window := fEnd - f0
		prev := f0
		for xs := x.Step; xs <= tint; xs += x.Step {
			x.ops++
			if x.ops > x.OpBudget {
				return 0, ErrBudget
			}
			cur := cs.evictionCDF(uptime + xs)
			weight := (cur - prev) / window
			prev = cur
			if weight <= 0 {
				continue
			}
			followUp, err := x.ecFull(t+xs, w, deadline, depth+1)
			if err != nil {
				return 0, err
			}
			fail += weight * (float64(rate)*float64(xs) + float64(followUp))
		}
	}
	return units.USD(pFail*fail + (1-pFail)*float64(succ)), nil
}
