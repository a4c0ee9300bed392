package core

import (
	"math"
	"sync"

	"hourglass/internal/units"
)

// SlackAware is the Hourglass provisioning strategy (§5): pick the
// configuration minimising the expected cost EC(t,w) of finishing the
// job before the deadline, computed with the efficient approximation
// of §5.3 — on success a configuration keeps running through
// consecutive checkpoint intervals, and the failure integral collapses
// to a single evaluation at the configuration's MTTF.
//
// Every SlackAware of one Env prices through the Env's shared EC table
// (see ecTable), so building one per job or per run is cheap and a
// decision after the first few for a job kind is a table read.
type SlackAware struct {
	Env *Env
	// WarningWindow enables the §9 extension: when the provider warns
	// this long before evictions and the window fits a checkpoint,
	// the failure branch credits the progress made before the eviction
	// instead of assuming total loss.
	WarningWindow units.Seconds
}

// NewSlackAware builds the strategy.
func NewSlackAware(env *Env) *SlackAware {
	return &SlackAware{Env: env}
}

// minFailStep bounds how little slack a simulated failure consumes.
const minFailStep units.Seconds = 60

// minUseful is the shortest useful interval worth deploying for: a
// configuration that cannot compute this long before it must yield to
// the last resort is not viable. It is the paper's finest price
// granularity, and it ends every kept chain (each step burns at least
// this much of the horizon).
const minUseful units.Seconds = 1

// workCols is the number of work buckets per unit of work in the EC
// table.
const workCols = 200

// maxRows caps the EC table's horizon at a slack-3 deadline (four
// zero-slack deadlines of 200 rows each; longer for jobs whose bucket
// is the one-minute floor). A longer horizon reads the node on the
// cap: a plan priced for the shorter horizon also meets the longer
// one, and the root walks its own chain at the exact horizon, so
// MaxRun stays exact. The cap bounds the table (801 rows of 201
// values) and the fill's recursion (one level per row) whatever
// deadline a caller asks for.
const maxRows = 4 * workCols

// Name implements Provisioner.
func (p *SlackAware) Name() string { return "hourglass" }

// Decide implements Provisioner: evaluate EC(t,w)|c for every feasible
// configuration (continuing the current one counts its lower overhead)
// and return the argmin. The last-resort configuration is always a
// candidate, so a decision always exists. The root is exact: it sees
// live prices, availability and the current uptime, and only the
// follow-up costs after an eviction come from the shared table.
func (p *SlackAware) Decide(s State) (Decision, error) {
	t := p.Env.ecTable(p.WarningWindow, s.Quantum)
	t.mu.Lock()
	defer t.mu.Unlock()
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
		// provisioning moment"); later ones use historical averages.
		rate := p.Env.CurrentRate(cs, s.Now)
		cost := t.branch(cs, s.Horizon(), s.WorkLeft, uptime, fresh, rate, math.MaxInt)
		if cost < best.ExpectedCost ||
			(cost == best.ExpectedCost && !best.KeepCurrent && !fresh) {
			best = Decision{
				Config:         cs.Config,
				KeepCurrent:    !fresh,
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
	if math.IsInf(float64(best.ExpectedCost), 1) {
		// No transient plan fits: fall back to the last resort.
		keep := s.Current != nil && s.Current.ID() == p.Env.LRC.Config.ID()
		return Decision{
			Config:       p.Env.LRC.Config,
			KeepCurrent:  keep,
			ExpectedCost: p.Env.LRCFinishCost(s.WorkLeft),
		}, nil
	}
	return best, nil
}

// Evaluate computes EC(t,w) for a fresh decision under historical
// average prices (the apples-to-apples quantity Figure 9 compares
// against the exact integral).
func (p *SlackAware) Evaluate(s State) units.USD {
	t := p.Env.ecTable(p.WarningWindow, s.Quantum)
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.best(s.Horizon(), s.WorkLeft, math.MaxInt)
}

// ecTable is EC(h, w) for a fresh decision with horizon h = deadline − t
// and work w left, one per Env, eviction-warning window and work
// quantum, filled lazily and shared by every decision on the Env. Below
// the root the §5.3 recursion depends only on h, w and the uptime, and
// the uptime of a fresh choice is 0, so the table needs neither the
// absolute time nor an uptime dimension: kept configurations walk their
// chain exactly (branch) and only fresh choices after an eviction read
// the table.
//
// Node (i, j) holds EC(i·bucket, j/workCols), priced at that point. A
// node's failure branches read the nearest node on a strictly lower
// row, so a fill never revisits its own row: it terminates without a
// cycle seed, and its value does not depend on which decision asked
// first.
type ecTable struct {
	env     *Env
	warning units.Seconds
	quantum float64 // State.Quantum of every node
	bucket  units.Seconds

	mu    sync.Mutex
	nodes []units.USD // row-major, workCols+1 per row; NaN = not filled
}

// newECTable sizes the horizon grid by the job: 200 rows span a
// zero-slack deadline, and never less than a minute each.
func newECTable(env *Env, warning units.Seconds, quantum float64) *ecTable {
	return &ecTable{env: env, warning: warning, quantum: quantum,
		bucket: units.Max(60, (env.LRC.Fixed+env.LRC.Exec)/200)}
}

// best is EC(h,w): the cheapest configuration chosen fresh at (h, w),
// priced at historical averages, or the last resort when none fits.
// Its failure branches read rows up to maxRow.
func (t *ecTable) best(h units.Seconds, w float64, maxRow int) units.USD {
	if w <= 0 {
		return 0
	}
	best := Infeasible
	for i := range t.env.Stats {
		cs := &t.env.Stats[i]
		if c := t.branch(cs, h, w, 0, true, cs.AvgRate, maxRow); c < best {
			best = c
		}
	}
	if math.IsInf(float64(best), 1) {
		best = t.env.LRCFinishCost(w)
	}
	return best
}

// lookup is EC at the node nearest (h, w), on row min(maxRow, maxRows)
// at most.
func (t *ecTable) lookup(h units.Seconds, w float64, maxRow int) units.USD {
	j := int(math.Round(w * workCols))
	if j <= 0 {
		return 0
	}
	j = min(j, workCols)
	// Clamp in floating point: a huge horizon must not overflow int.
	r := math.Min(math.Round(float64(h/t.bucket)), float64(min(maxRow, maxRows)))
	i := max(int(r), 0)
	const width = workCols + 1
	for len(t.nodes) < (i+1)*width {
		t.nodes = append(t.nodes, units.USD(math.NaN()))
	}
	if v := t.nodes[i*width+j]; !math.IsNaN(float64(v)) {
		return v
	}
	v := t.best(units.Seconds(i)*t.bucket, float64(j)/workCols, i-1)
	t.nodes[i*width+j] = v
	return v
}

// branch computes EC(h,w)|c (§5.2 cases 3 and 4) under the §5.3
// approximation: cs deployed fresh (or kept, with the given uptime),
// its first interval billed at rate. On success a transient
// configuration keeps running, so the success branch is a chain of
// checkpoint intervals walked exactly; each interval's failure branch
// is evaluated once at the MTTF and continues with a fresh decision
// read from the table, on a row no higher than maxRow.
func (t *ecTable) branch(cs *ConfigStats, h units.Seconds, w float64,
	uptime units.Seconds, fresh bool, rate units.USD, maxRow int) units.USD {
	e := t.env
	if w <= 0 {
		return 0
	}
	if !cs.Config.Transient {
		// Case 3: on-demand — deterministic completion. We also charge
		// the boot/load overhead (machines bill from boot), a small
		// refinement over the paper's formula.
		overhead := cs.Save
		if fresh {
			overhead = cs.Fixed
		}
		total := float64(overhead) + w*float64(cs.Exec)
		if units.Seconds(total) > h {
			return Infeasible
		}
		return units.USD(float64(rate) * total)
	}
	// Case 4: transient. cost accumulates the chain's expected spend;
	// reach is the probability that every earlier interval succeeded.
	var cost float64
	reach := 1.0
	fUp := cs.evictionCDF(uptime)
	for first := true; ; first = false {
		// Useful, with its continuous form inlined.
		st := State{WorkLeft: w, Deadline: h, Quantum: t.quantum}
		useful := e.useful(cs, st, fresh)
		if t.quantum > 0 {
			useful = e.usefulSteps(cs, st, fresh)
		}
		// A kept chain whose interval finishes the work runs on however
		// short that interval is: sending the residual to the last
		// resort would bill a fresh boot and load for under a second of
		// work, and make EC fall as work grows.
		if useful < minUseful && (first || useful < units.Seconds(w*float64(cs.Exec))) {
			if first {
				return Infeasible
			}
			// Continuing c is no longer viable: finish on the last
			// resort.
			return units.USD(cost + reach*float64(e.LRCFinishCost(w)))
		}
		setup := units.Seconds(0)
		if fresh {
			setup = cs.Boot + cs.Load
		}
		tint := setup + useful + cs.Save
		fEnd := cs.evictionCDF(uptime + tint)
		pFail := 1.0
		if fUp < 1 {
			pFail = (fEnd - fUp) / (1 - fUp)
		}

		// Failure branch, evaluated once at the MTTF (not integrated):
		// the work since the last checkpoint is lost, time burns, and a
		// fresh decision is made. With an eviction warning long enough
		// to fit an emergency checkpoint (§9), the progress up to the
		// eviction is credited instead.
		failAt := units.Clamp(cs.MTTF-uptime, minFailStep, tint)
		wAtFail := w
		if t.warning >= cs.Save {
			computeTime := units.Clamp(failAt-setup, 0, useful)
			wAtFail = math.Max(w-cs.Omega*float64(computeTime)/float64(e.LRC.Exec), 0)
		}
		fail := float64(rate)*float64(failAt) + float64(t.lookup(h-failAt, wAtFail, maxRow))
		cost += reach * (pFail*fail + (1-pFail)*float64(rate)*float64(tint))
		reach *= 1 - pFail

		// Success branch: keep running this configuration
		// (approximation: reconfigurations not due to evictions are
		// rare). An interval that covers the remaining work finishes it.
		if useful >= units.Seconds(w*float64(cs.Exec)) {
			return units.USD(cost)
		}
		w -= e.progress(cs, useful)
		h -= tint
		uptime += tint
		fUp = fEnd
		fresh = false
		rate = cs.AvgRate
	}
}
