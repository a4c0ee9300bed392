package sim

import (
	"fmt"
	"math"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

// Evictor samples eviction times from the market's spot-price traces —
// the same process the trace-driven simulator suffers, factored out so
// the eviction-aware execution runtime (internal/runtime) injects
// evictions into *real* engine runs drawn from the identical
// distribution.
type Evictor struct {
	Market *cloud.Market
}

// Next returns the absolute time at or after `from` when the
// configuration is evicted (its spot price crosses the bid). On-demand
// configurations, trace exhaustion and trace errors all report +Inf:
// "no eviction on this horizon", matching how the simulator treats
// them.
func (e Evictor) Next(c cloud.Config, from units.Seconds) units.Seconds {
	if !c.Transient {
		return units.Seconds(math.Inf(1))
	}
	if at, ok, err := e.Market.NextEviction(c, from); err == nil && ok {
		return at
	}
	return units.Seconds(math.Inf(1))
}

// Decide consults the provisioner once and resolves the chosen
// configuration's profiled stats, emitting the EvDecision into sink
// (nil = none) exactly as the executors do (see Consult).
func Decide(env *core.Env, prov core.Provisioner, st core.State, sink obs.Sink) (core.Decision, *core.ConfigStats, error) {
	return Consult(env, prov, st, nil, sink)
}

// Consult is Decide for an executor, whose report is the fold of its
// trace: the EvDecision goes to fold (nil = none) and, when tracing, to
// sink, with the same fields and Finite clamping for the simulator and
// the execution runtime so their traces fold alike. Only the traced
// copy names the configuration, so an untraced run formats no id.
func Consult(env *core.Env, prov core.Provisioner, st core.State, fold *obs.Summary, sink obs.Sink) (core.Decision, *core.ConfigStats, error) {
	dec, err := prov.Decide(st)
	if err != nil {
		return core.Decision{}, nil, err
	}
	cs, ok := env.StatsFor(dec.Config)
	if !ok {
		return core.Decision{}, nil, fmt.Errorf("sim: provisioner chose unknown config %s", dec.Config.ID())
	}
	e := obs.Event{Type: obs.EvDecision, T: float64(st.Now), Job: env.Job.Name,
		ECUSD:      obs.Finite(float64(dec.ExpectedCost)),
		SlackSec:   obs.Finite(float64(env.Slack(st))),
		WorkLeft:   st.WorkLeft,
		Keep:       dec.KeepCurrent,
		LastResort: dec.Config == env.LRC.Config,
	}
	if sink != nil {
		e.Config = dec.Config.ID()
		sink.Emit(e)
	}
	if fold != nil {
		fold.Emit(e)
	}
	return dec, cs, nil
}
