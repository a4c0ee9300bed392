package scheduler

import (
	"hourglass"
	"hourglass/internal/admission"
	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/perfmodel"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// Estimator is the admission-pricing seam: backends that can consult
// the market for a submission implement it, and Options.Admission
// requires one. `deadline` is the effective relative deadline
// (explicit override or slack-derived) and `at` the trace offset the
// first recurrence would simulate from — "current market prices" for
// that submission.
type Estimator interface {
	Estimate(spec JobSpec, deadline, at units.Seconds) (admission.Estimate, error)
}

// systemEstimate prices one submission against a shared
// hourglass.System: the feasibility bound is the last-resort
// configuration's fixed + exec time (a deadline under it fails on
// every configuration), and the packing class/demand come from one
// provisioner consultation at the submission's trace offset — the
// same sim.Decide call the simulator's first decision makes, so the
// admission decision sees exactly the prices the run would.
func systemEstimate(sys *hourglass.System, sink obs.Sink, spec JobSpec, deadline, at units.Seconds) (admission.Estimate, error) {
	env, err := sys.Env(spec.Kind)
	if err != nil {
		return admission.Estimate{}, err
	}
	est := admission.Estimate{
		DeadlineSeconds: float64(deadline),
		RequiredSeconds: float64(env.LRC.Fixed + env.LRC.Exec),
		ConfigID:        env.LRC.Config.ID(),
		Demand:          perfmodel.DeadlineUtilization(env.LRC.Exec, env.LRC.Fixed, deadline),
	}
	if !est.Feasible() {
		// The gate rejects; no market consultation needed.
		return est, nil
	}
	prov, err := sys.Provisioner(spec.Kind, spec.Strategy)
	if err != nil {
		return admission.Estimate{}, err
	}
	st := core.State{Now: at, WorkLeft: 1, Deadline: at + deadline}
	dec, cs, err := sim.Decide(env, prov, st, sink)
	if err != nil {
		return admission.Estimate{}, err
	}
	est.ExpectedCostUSD = obs.Finite(float64(dec.ExpectedCost))
	// Pack on the configuration the market chose when the job can
	// share it; a demand above unit capacity falls back to the
	// last-resort class (the job occupies a full deployment anyway).
	if d := perfmodel.DeadlineUtilization(cs.Exec, cs.Fixed, deadline); d <= admission.DeploymentCapacity {
		est.ConfigID = dec.Config.ID()
		est.Demand = d
	}
	return est, nil
}

// Estimate implements Estimator on the simulator backend.
func (b SystemBackend) Estimate(spec JobSpec, deadline, at units.Seconds) (admission.Estimate, error) {
	return systemEstimate(b.Sys, b.Sink, spec, deadline, at)
}

// Estimate implements Estimator: runtime recurrences are priced by the
// same env as simulated ones.
func (b *RuntimeBackend) Estimate(spec JobSpec, deadline, at units.Seconds) (admission.Estimate, error) {
	return systemEstimate(b.Sys, b.Sink, spec, deadline, at)
}

var _ Estimator = SystemBackend{}
var _ Estimator = (*RuntimeBackend)(nil)
