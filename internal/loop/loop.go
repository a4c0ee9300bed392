// Package loop is the paper's Figure 2 loop — decide → deploy →
// compute → checkpoint → (evict → re-decide)* — written once for every
// executor. Drive runs it over a Substrate, which adds only what its
// executor needs: reading the durable frontier and running a
// deployment. internal/runtime has two substrates, an engine
// stepped under a watchdog and a coordinator over a shard worker set;
// internal/sim has the virtual one of the trace-driven simulator,
// which jumps each session straight to its next boundary. Every
// accounting rule lives here, so fixing one fixes it for all three:
// what a decision costs, how a decision bounds the segment after it
// (plan), how a segment and its save are billed against the eviction
// (Session.close), how a live deployment is re-decided (consult), how a
// deployment is billed (deploy), and how a finished job is reported.
//
// I/O has one price, the provisioner's (§5): every deployment that
// boots machines loads for t_load, fresh or resuming a checkpoint (§6's
// fast reload is inside t_load), and every save takes t_save. A
// substrate with a real store reports what each read and write took
// there (cloud.StoreTime): a transfer slower than its price is billed
// as measured, and what the store's faults cost — retry backoff and
// failed attempts — is billed on top, so injected faults show as their
// own seconds, not as a different price.
//
// A session is not a segment: at each plan boundary the running
// deployment stops at its superstep barrier while the loop bills the
// segment and its save and consults the provisioner with the
// deployment live. A KeepCurrent decision keeps the deployment running
// in place; any other one ends the session, and the next deployment
// boots the decided configuration from the durable frontier.
//
// Work is counted in whole supersteps of Total: w(t), the fraction the
// provisioner consumes, is the share not yet computed, and a step on a
// configuration takes its profiled Exec / Total virtual seconds. Unless
// the job counts VirtualSteps, each decision carries one superstep's
// work as its quantum, so the provisioner plans whole supersteps and a
// segment never runs past the useful interval it priced. The package links no engine: a substrate
// keeps its job's output itself.
package loop

import (
	"context"
	"fmt"
	"log"
	"math"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

// VirtualSteps is the superstep count of a job whose work is
// continuous, as every simulated job's is: a power of two, so each
// step's share of the work is exact, and fine enough that flooring a
// segment to whole steps moves it by under 2^-30 of the job. Its
// decisions carry no quantum.
const VirtualSteps = 1 << 30

// Never is the eviction instant of an interval nothing can evict.
var Never = units.Seconds(math.Inf(1))

// maxDecisions is the decision count past which the loop reports a
// provisioner livelock.
const maxDecisions = 10_000

// Loop is the state every executor shares: the options, the virtual
// clock and the report — the fold of every event the loop emits.
type Loop struct {
	Env  *core.Env
	Prov core.Provisioner
	// Sink also receives every event (nil = none). Only a traced loop
	// names the configuration its events bill, decide or deploy.
	Sink obs.Sink
	// Log receives non-fatal diagnostics (nil = standard logger).
	Log func(format string, args ...any)
	// Total is the expected superstep count: the denominator of w(t).
	Total int
	// Every is the checkpoint cadence in supersteps (0 = Daly interval).
	Every int
	// RestartBudget bounds evictions + watchdog trips before the loop
	// pins the last-resort configuration (0 = 8).
	RestartBudget int
	// Warning is the provider's eviction notice (§9, 0 = none). A
	// notice no shorter than t_save forces a save at the interruption's
	// barrier (see Session.arm); a Warner is warned this far ahead.
	Warning units.Seconds

	// T is the virtual clock and Deadline the absolute deadline; Drive
	// sets both.
	T, Deadline units.Seconds

	rep     obs.Summary // the fold of the loop's events
	evictor Evictor
	// next is a deployment decided already — at a boundary of the last
	// session, or at the warning of the standby adopted at the last
	// eviction: the next iteration boots it without deciding again.
	next *Choice
}

// Choice is a decision and the configuration it deploys. Warm, when
// set, is the standby booted at an eviction warning that made it.
type Choice struct {
	Dec  core.Decision
	CS   *core.ConfigStats
	Warm Standby
}

// A Substrate is what one executor runs its sessions on.
type Substrate interface {
	// Frontier reads the durable frontier: the superstep of the newest
	// checkpoint a new deployment resumes (0 = none), and what reading
	// it took on the store, which the deployment that follows bills
	// against t_load (zero when the substrate measures none).
	Frontier() (durable int, read cloud.StoreTime, err error)
	// Run readies the deployment of s's choice — booting it, or
	// adopting the warm standby that decided it — and emits deploy once
	// it is up, then runs s over it until the job is computed or s
	// stops. Every barrier reaches s on the calling goroutine.
	Run(s *Session, deploy obs.Event) error
	// Clear removes the job's checkpoints once its output is durable.
	Clear() error
}

// A Warner is a substrate forewarned of its deployments' losses, which
// boots a standby at the warning.
type Warner interface {
	// Loss is the absolute superstep a machine of session s's
	// deployment is scheduled to die in (0 = none).
	Loss(s *Session) int
	// Warn fires the warning and returns the standby it armed; one
	// that never became launchable must still be non-nil.
	Warn(s *Session) Standby
}

// A Standby is a deployment a Warner boots ahead of an interruption.
type Standby interface {
	// Settle decides its fate at the eviction that ended session s: the
	// choice to cut over to, or nil once discarded.
	Settle(s *Session) (*Choice, error)
	// Discard releases it unused, billing its machines up to billTo.
	Discard(billTo units.Seconds) error
	// Teardown releases it without accounting (the error exits).
	Teardown()
}

func teardown(sb Standby) {
	if sb != nil {
		sb.Teardown()
	}
}

// Logf reports a non-fatal diagnostic.
func (l *Loop) Logf(format string, args ...any) {
	if l.Log != nil {
		l.Log(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Emit folds e into the report and, when tracing, publishes it. Every
// event reaches both on the driving goroutine, in one order.
func (l *Loop) Emit(e obs.Event) {
	l.rep.Emit(e)
	if l.Sink != nil {
		l.Sink.Emit(e)
	}
}

// ID names c in the loop's events: only a traced loop formats it.
func (l *Loop) ID(c cloud.Config) string {
	if l.Sink == nil {
		return ""
	}
	return c.ID()
}

// Spend bills a machine-time interval on the market, io seconds of it
// I/O, and emits the matching EvSpend: the report's cost and I/O time
// accumulate in emission order. An empty interval with no I/O bills
// nothing.
func (l *Loop) Spend(c cloud.Config, from, to, io units.Seconds) error {
	if from == to && io == 0 {
		return nil
	}
	cost, err := l.Env.Market.Cost(c, from, to)
	if err != nil {
		return err
	}
	l.Emit(obs.Event{Type: obs.EvSpend, T: float64(from), Config: l.ID(c), USD: float64(cost), IOSec: float64(io)})
	return nil
}

// WorkLeft maps completed supersteps to the w(t) ∈ (0,1] fraction the
// provisioner consumes, clamped above zero so a job that outlives its
// superstep estimate still registers as unfinished.
func (l *Loop) WorkLeft(doneSteps int) float64 {
	w := float64(l.Total-doneSteps) / float64(l.Total)
	if min := 0.5 / float64(l.Total); w < min {
		w = min
	}
	return w
}

// State is the decision point at now with done supersteps durable: the
// work left, the deadline and, unless the job counts VirtualSteps, the
// work of one superstep as the quantum, since a deployment stops only
// at a barrier.
func (l *Loop) State(now units.Seconds, done int) core.State {
	st := core.State{Now: now, WorkLeft: l.WorkLeft(done), Deadline: l.Deadline}
	if l.Total != VirtualSteps {
		st.Quantum = 1 / float64(l.Total)
	}
	return st
}

// StepTime is the virtual duration of one superstep on cs.
func (l *Loop) StepTime(cs *core.ConfigStats) units.Seconds {
	return units.Seconds(float64(cs.Exec) / float64(l.Total))
}

// SegEnd is the instant n more supersteps on cs complete.
func (l *Loop) SegEnd(cs *core.ConfigStats, n int) units.Seconds {
	return l.T + units.Seconds(float64(n)*float64(l.StepTime(cs)))
}

// StepsBefore is how many whole supersteps on cs complete between the
// clock and at (math.MaxInt when at is out of reach).
func (l *Loop) StepsBefore(cs *core.ConfigStats, at units.Seconds) int {
	if !math.IsInf(float64(at), 1) {
		if ratio := float64(at-l.T) / float64(l.StepTime(cs)); ratio < 1e12 {
			return int(ratio)
		}
	}
	return math.MaxInt
}

// guard stops the loop on a provisioner livelock or a cancelled run.
func (l *Loop) guard(ctx context.Context) error {
	if l.rep.Decisions > maxDecisions {
		return fmt.Errorf("loop: exceeded %d decisions (provisioner livelock?)", maxDecisions)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("loop: cancelled after %d decisions: %w", l.rep.Decisions, err)
	}
	return nil
}

// Decide is a decision point: it consults the provisioner — or, once
// the restart budget is spent, pins the deterministic last-resort
// on-demand configuration (the §5 fallback: a fresh LRC deployment
// finishes within the remaining horizon by construction, so nothing
// may preempt it again). KeepCurrent derives from st.Current (nil once
// the deployment is torn down).
func (l *Loop) Decide(ctx context.Context, st core.State) (core.Decision, *core.ConfigStats, error) {
	if err := l.guard(ctx); err != nil {
		return core.Decision{}, nil, err
	}
	env := l.Env
	if l.rep.Restarts < l.RestartBudget {
		return Consult(env, l.Prov, st, &l.rep, l.Sink)
	}
	if !l.rep.LastResort {
		l.Logf("loop: job %q engaging last-resort %s (restarts=%d/%d)",
			env.Job.Name, env.LRC.Config.ID(), l.rep.Restarts, l.RestartBudget)
	}
	dec := core.Decision{
		Config:       env.LRC.Config,
		KeepCurrent:  st.Current != nil && st.Current.ID() == env.LRC.Config.ID(),
		ExpectedCost: env.LRCFinishCost(st.WorkLeft),
	}
	l.Emit(obs.Event{Type: obs.EvDecision, T: float64(st.Now), Job: env.Job.Name,
		Config:     l.ID(dec.Config),
		ECUSD:      obs.Finite(float64(dec.ExpectedCost)),
		SlackSec:   obs.Finite(float64(env.Slack(st))),
		WorkLeft:   st.WorkLeft,
		Keep:       dec.KeepCurrent,
		LastResort: true,
		Forced:     true,
	})
	return dec, &env.LRC, nil
}

// consult is a decision point: the provisioner sees the clock, the work
// left after done supersteps and, when cur is live (booted at bootAt),
// that deployment and its uptime. keep reports that the decision keeps
// cur running in place.
func (l *Loop) consult(ctx context.Context, cur *core.ConfigStats, bootAt units.Seconds, done int) (c Choice, keep bool, err error) {
	st := l.State(l.T, done)
	if cur != nil {
		st.Current, st.Uptime = &cur.Config, l.T-bootAt
	}
	if c.Dec, c.CS, err = l.Decide(ctx, st); err != nil {
		return c, false, err
	}
	return c, cur != nil && c.Dec.KeepCurrent && cur.Config.ID() == c.CS.Config.ID(), nil
}

// plan maps a decision on cs to the segment that starts after done
// supersteps: at most segSteps supersteps — the remaining work, capped
// by the checkpoint cadence when the provisioner wants checkpoints and
// by its planned useful interval MaxRun — ending in a checkpoint when
// checkpointing. A segment that covers the remaining work is the last
// one and runs to completion.
func (l *Loop) plan(dec core.Decision, cs *core.ConfigStats, done int) (segSteps int, checkpointing bool) {
	// fit is how many whole supersteps fit in d, at least one. It
	// forgives a millionth of a step, the rounding of a d the
	// provisioner derived from w(t): a MaxRun of exactly the work left
	// must cover it.
	fit := func(d units.Seconds) int {
		return max(int(float64(d)/float64(l.StepTime(cs))+1e-6), 1)
	}
	segSteps = max(l.Total-done, 1)
	if dec.UseCheckpoints {
		every := l.Every
		if every <= 0 && !math.IsInf(float64(cs.Ckpt), 1) {
			every = fit(cs.Ckpt)
		}
		if every >= 1 {
			checkpointing = true
			segSteps = min(segSteps, every)
		}
	}
	if dec.MaxRun > 0 {
		segSteps = min(segSteps, fit(dec.MaxRun))
	}
	return segSteps, checkpointing
}

// deploy bills the deployment of c requested now, resuming superstep
// done, and advances the clock to its ready instant. New machines pay
// the market wait, t_boot and the reload's I/O: t_load, or the read's
// slower transfer, plus its faults. A warm cutover's boot and reload
// were billed inside the warning window, overlapped with the doomed
// session, and the clock is already the eviction instant: its span —
// the recovery downtime — is zero. It returns the EvDeploy for the
// substrate to emit once the deployment is up. One that resumes durable
// progress (done > 0) is a recovery: its EvDeploy carries Reload, so
// its whole span folds into RecoveryTime.
func (l *Loop) deploy(c Choice, done int, read cloud.StoreTime) (obs.Event, error) {
	cs, start := c.CS, l.T
	if c.Warm == nil {
		avail, err := l.Env.Market.NextAvailable(cs.Config, start)
		if err != nil {
			return obs.Event{}, err
		}
		io := read.Billed(cs.Load)
		readyAt := avail + cs.Boot + io
		if err := l.Spend(cs.Config, avail, readyAt, io); err != nil {
			return obs.Event{}, err
		}
		l.T = readyAt
	}
	return obs.Event{Type: obs.EvDeploy, T: float64(start), Job: l.Env.Job.Name,
		Config: l.ID(cs.Config), WorkLeft: l.WorkLeft(done),
		DurSec: float64(l.T - start), Reload: done > 0}, nil
}

// BillUntil bills cs from the clock to end, io seconds of it I/O, and
// advances the clock there, unless the eviction at `at` lands first.
// Then the machines ran — and are billed — only up to the eviction,
// which is recorded with done supersteps durable: in-memory progress
// past them is gone with the machines, and the caller must redeploy.
func (l *Loop) BillUntil(cs *core.ConfigStats, end, at units.Seconds, done int, io units.Seconds) (evicted bool, err error) {
	evicted = at < end
	if evicted {
		end = at
	}
	if err := l.Spend(cs.Config, l.T, end, io); err != nil {
		return false, err
	}
	l.T = end
	if evicted {
		l.Emit(obs.Event{Type: obs.EvEvict, T: float64(at), Job: l.Env.Job.Name,
			Config: l.ID(cs.Config), WorkLeft: l.WorkLeft(done)})
	}
	return evicted, nil
}

// finish handles a session that computed the job to completion: bill
// the output write, racing the eviction; once the output is durable,
// clear the checkpoints and report the job done. done=false means the
// eviction won (the result never became durable) and was recorded with
// the session's durable supersteps durable.
func (l *Loop) finish(s *Session, sub Substrate) (bool, error) {
	cs := s.CS
	if evicted, err := l.BillUntil(cs, l.SegEnd(cs, s.Done-s.Billed)+cs.Save, s.NextEvict, s.Durable, 0); err != nil || evicted {
		return false, err
	}
	if err := sub.Clear(); err != nil {
		l.Logf("loop: checkpoint GC for job %q incomplete: %v", l.Env.Job.Name, err)
	}
	l.Emit(obs.Event{Type: obs.EvDone, T: float64(l.T), Job: l.Env.Job.Name,
		Config: l.ID(cs.Config), Done: true,
		Missed: l.T > l.Deadline, USD: float64(l.rep.Cost)})
	return true, nil
}

// Drive runs the job from start against the absolute deadline: read the
// durable frontier; take the decision the last session carried over,
// or consult; then deploy it, run its session and settle how that
// ended. The report it returns is meaningful even alongside an error:
// it folds everything billed before the failure.
func (l *Loop) Drive(ctx context.Context, sub Substrate, start, deadline units.Seconds) (obs.Summary, error) {
	if l.RestartBudget <= 0 {
		l.RestartBudget = 8
	}
	l.evictor = Evictor{Market: l.Env.Market}
	l.T, l.Deadline = start, deadline
	for attempt := 0; ; attempt++ {
		durable, read, err := sub.Frontier()
		if err != nil {
			return l.rep, err
		}
		c := l.next
		l.next = nil
		switch {
		case c == nil:
			c = &Choice{}
			*c, _, err = l.consult(ctx, nil, 0, durable)
		case c.Warm != nil:
			// Warm cutover: the decision was made at the warning (and
			// counted there), the standby is booted — go straight to
			// the session.
			err = l.guard(ctx)
		}
		if err != nil {
			teardown(c.Warm)
			return l.rep, err
		}
		if done, err := l.deployment(ctx, sub, *c, attempt, durable, read); err != nil || done {
			return l.rep, err
		}
	}
}

// deployment deploys c from the durable frontier, runs its session and
// folds the outcome into the report. It returns done=true when the job
// finished.
func (l *Loop) deployment(ctx context.Context, sub Substrate, c Choice, attempt, durable int, read cloud.StoreTime) (bool, error) {
	deploy, err := l.deploy(c, durable, read)
	if err != nil {
		teardown(c.Warm)
		return false, err
	}
	s := &Session{l: l, sub: sub, Ctx: ctx, Choice: c, Attempt: attempt, bootAt: l.T,
		Durable: durable, Done: durable, Billed: durable}
	var runErr error
	if s.arm(true) {
		runErr = sub.Run(s, deploy)
	} else {
		// Evicted before one superstep would complete: not worth running
		// the deployment at all.
		l.Emit(deploy)
		teardown(c.Warm)
	}
	switch {
	case s.err != nil:
		// Billing or deciding failed inside the session.
		err = s.err
	case s.next != nil:
		// A boundary decided on another configuration: the session is
		// billed through that boundary, and a standby never pays out.
		l.next = s.next
		return false, s.discardStandby(l.T)
	case s.lost:
		// Evicted, a worker died or the watchdog gave up: billed and
		// recorded already. Progress past the durable frontier is gone
		// with the deployment.
		return false, s.settleStandby()
	case runErr == nil:
		var done bool
		if done, err = l.finish(s, sub); err == nil {
			if done {
				// The job finished under the doomed session after all;
				// the standby was insurance that never paid out.
				return true, s.discardStandby(l.T)
			}
			// Evicted computing the tail or writing the output: a ready
			// standby still takes over.
			return false, s.settleStandby()
		}
	case ctx.Err() != nil:
		err = fmt.Errorf("loop: cancelled mid-session: %w", ctx.Err())
	default:
		err = runErr
	}
	teardown(s.sb)
	return false, err
}

// Evictor samples eviction times from the market's spot-price traces —
// the process the trace-driven simulator suffers and the execution
// runtime injects into real engine runs, drawn from one distribution.
type Evictor struct {
	Market *cloud.Market
}

// Next returns the absolute time at or after `from` when the
// configuration is evicted (its spot price crosses the bid). On-demand
// configurations, trace exhaustion and trace errors all report +Inf:
// "no eviction on this horizon".
func (e Evictor) Next(c cloud.Config, from units.Seconds) units.Seconds {
	if !c.Transient {
		return Never
	}
	if at, ok, err := e.Market.NextEviction(c, from); err == nil && ok {
		return at
	}
	return Never
}

// Consult asks the provisioner once and resolves the chosen
// configuration's profiled stats. Its EvDecision goes to fold (nil =
// none) and, when tracing, to sink, with the same fields and Finite
// clamping for every executor so their traces fold alike. Only the
// traced copy names the configuration, so an untraced run formats no
// id.
func Consult(env *core.Env, prov core.Provisioner, st core.State, fold *obs.Summary, sink obs.Sink) (core.Decision, *core.ConfigStats, error) {
	dec, err := prov.Decide(st)
	if err != nil {
		return core.Decision{}, nil, err
	}
	cs, ok := env.StatsFor(dec.Config)
	if !ok {
		return core.Decision{}, nil, fmt.Errorf("loop: provisioner chose unknown config %s", dec.Config.ID())
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
