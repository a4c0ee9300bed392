// The driver core: the paper's Figure 2 loop — decide → deploy →
// compute → checkpoint → (evict → re-decide)* — written once for both
// execution substrates. Execute (the in-process engine) and ExecuteDist
// (shard process sets) run the same loop (drive) over the same session
// and add only what their substrate needs (see substrate): reading the
// durable frontier, booting a deployment and running it — an engine
// stepped under a watchdog, or a coordinator over a worker set. Every
// accounting rule lives here, so fixing one fixes it for both drivers:
// what a decision costs, how a decision bounds the segment after it
// (plan), how a segment and its save are billed against the eviction
// (session.close), how a live deployment is re-decided (consult), how
// a deployment is billed, and how a finished job is reported.
//
// A session is not a segment: at each plan boundary the running
// deployment stops at its superstep barrier — the engine between two
// Steps, the coordinator at its barrier — while the driver bills the
// segment and its save and consults the provisioner with the
// deployment live. A KeepCurrent decision keeps the deployment running
// in place, the same engine run or the same process set; any other one
// ends the session, and the next deployment boots the decided
// configuration from the durable frontier.

package runtime

import (
	"context"
	"fmt"
	"log"
	"math"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/engine"
	"hourglass/internal/obs"
	"hourglass/internal/sim"
	"hourglass/internal/simnet"
	"hourglass/internal/units"
)

// never is the eviction instant of an interval nothing can evict.
var never = units.Seconds(math.Inf(1))

// maxDecisions is the decision count past which the loop reports a
// provisioner livelock.
const maxDecisions = 10_000

// bytesPerVertex sizes the parallel checkpoint reload flows simnet
// prices.
const bytesPerVertex = 64

// loop is the state both drivers share: the virtual clock, the report
// — the fold of every event the loop emits — the evictor and the
// deadline, plus the options common to Options and DistOptions.
type loop struct {
	env           *core.Env
	prov          core.Provisioner
	sink          obs.Sink
	logger        func(format string, args ...any)
	total         int // expected supersteps: the denominator of w(t)
	every         int // checkpoint cadence in supersteps (0 = Daly interval)
	restartBudget int

	evictor  sim.Evictor
	deadline units.Seconds
	rep      Report
	t        units.Seconds // virtual clock

	// next is a deployment decided already — at a boundary of the last
	// session, or at the warning of the standby adopted at the last
	// eviction (pending): the next run-loop iteration boots it, or runs
	// its session over the pre-booted listener and worker set, without
	// deciding again.
	next    *choice
	pending *standbyState
}

// choice is a decision and the configuration it deploys.
type choice struct {
	dec core.Decision
	cs  *core.ConfigStats
}

// newLoop fills the defaults of the shared options and starts the clock.
func newLoop(l loop, start, deadline units.Seconds) *loop {
	if l.restartBudget <= 0 {
		l.restartBudget = 8
	}
	l.evictor = sim.Evictor{Market: l.env.Market}
	l.t, l.deadline = start, deadline
	return &l
}

func (l *loop) logf(format string, args ...any) {
	if l.logger != nil {
		l.logger(format, args...)
		return
	}
	log.Printf(format, args...)
}

// emit folds e into the report and, when tracing, publishes it. Every
// event reaches both on the driver goroutine, in one order.
func (l *loop) emit(e obs.Event) {
	l.rep.Emit(e)
	if l.sink != nil {
		l.sink.Emit(e)
	}
}

// spend bills a machine-time interval on the market, io seconds of it
// I/O, and emits the matching EvSpend: the report's cost and I/O time
// accumulate in emission order. An empty interval with no I/O bills
// nothing.
func (l *loop) spend(c cloud.Config, from, to, io units.Seconds) error {
	if from == to && io == 0 {
		return nil
	}
	cost, err := l.env.Market.Cost(c, from, to)
	if err != nil {
		return err
	}
	l.emit(obs.Event{Type: obs.EvSpend, T: float64(from), Config: c.ID(), USD: float64(cost), IOSec: float64(io)})
	return nil
}

// workLeft maps completed supersteps to the w(t) ∈ (0,1] fraction the
// provisioner consumes, clamped above zero so a job that outlives its
// superstep estimate still registers as unfinished.
func (l *loop) workLeft(doneSteps int) float64 {
	w := float64(l.total-doneSteps) / float64(l.total)
	if min := 0.5 / float64(l.total); w < min {
		w = min
	}
	return w
}

// stepTime is the virtual duration of one superstep on cs.
func (l *loop) stepTime(cs *core.ConfigStats) units.Seconds {
	return units.Seconds(float64(cs.Exec) / float64(l.total))
}

// segEnd is the instant n more supersteps on cs complete.
func (l *loop) segEnd(cs *core.ConfigStats, n int) units.Seconds {
	return l.t + units.Seconds(float64(n)*float64(l.stepTime(cs)))
}

// guard stops the loop on a provisioner livelock or a cancelled run.
func (l *loop) guard(ctx context.Context) error {
	if l.rep.Decisions > maxDecisions {
		return fmt.Errorf("runtime: exceeded %d decisions (provisioner livelock?)", maxDecisions)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("runtime: cancelled after %d decisions: %w", l.rep.Decisions, err)
	}
	return nil
}

// decide is a decision point: it consults the provisioner — or,
// once the restart budget is spent or slack has run dry, pins the
// deterministic last-resort on-demand configuration (the §5 fallback: a
// fresh LRC deployment finishes within the remaining horizon by
// construction, so nothing may preempt it again). KeepCurrent derives
// from st.Current (nil once the deployment is torn down).
func (l *loop) decide(ctx context.Context, st core.State) (core.Decision, *core.ConfigStats, error) {
	if err := l.guard(ctx); err != nil {
		return core.Decision{}, nil, err
	}
	env := l.env
	if l.rep.Restarts < l.restartBudget && env.Slack(st) > 0 {
		return sim.Consult(env, l.prov, st, &l.rep.Summary, l.sink)
	}
	if !l.rep.LastResort {
		l.logf("runtime: job %q engaging last-resort %s (restarts=%d/%d, slack=%.0fs)",
			env.Job.Name, env.LRC.Config.ID(), l.rep.Restarts, l.restartBudget, float64(env.Slack(st)))
	}
	dec := core.Decision{
		Config:       env.LRC.Config,
		KeepCurrent:  st.Current != nil && st.Current.ID() == env.LRC.Config.ID(),
		ExpectedCost: env.LRCFinishCost(st.WorkLeft),
	}
	l.emit(obs.Event{Type: obs.EvDecision, T: float64(st.Now), Job: env.Job.Name,
		Config:     dec.Config.ID(),
		ECUSD:      obs.Finite(float64(dec.ExpectedCost)),
		SlackSec:   obs.Finite(float64(env.Slack(st))),
		WorkLeft:   st.WorkLeft,
		Keep:       dec.KeepCurrent,
		LastResort: true,
	})
	return dec, &env.LRC, nil
}

// consult is a decision point: the provisioner sees the clock, the work
// left after done supersteps and, when cur is live (booted at bootAt),
// that deployment and its uptime. keep reports that the decision keeps
// cur running in place.
func (l *loop) consult(ctx context.Context, cur *core.ConfigStats, bootAt units.Seconds, done int) (dec core.Decision, cs *core.ConfigStats, keep bool, err error) {
	st := core.State{Now: l.t, WorkLeft: l.workLeft(done), Deadline: l.deadline}
	if cur != nil {
		st.Current, st.Uptime = &cur.Config, l.t-bootAt
	}
	if dec, cs, err = l.decide(ctx, st); err != nil {
		return dec, cs, false, err
	}
	return dec, cs, cur != nil && dec.KeepCurrent && cur.Config.ID() == cs.Config.ID(), nil
}

// plan maps a decision on cs to the segment that starts after done
// supersteps: at most segSteps supersteps — the remaining work, capped
// by the checkpoint cadence when the provisioner wants checkpoints and
// by its planned useful interval MaxRun — ending in a checkpoint when
// checkpointing. A segment that covers the remaining work is the last
// one and runs to completion.
func (l *loop) plan(dec core.Decision, cs *core.ConfigStats, done int) (segSteps int, checkpointing bool) {
	secPerStep := l.stepTime(cs)
	segSteps = max(l.total-done, 1)
	if dec.UseCheckpoints {
		every := l.every
		if every <= 0 && !math.IsInf(float64(cs.Ckpt), 1) {
			every = max(int(float64(cs.Ckpt)/float64(secPerStep)), 1)
		}
		if every >= 1 {
			checkpointing = true
			segSteps = min(segSteps, every)
		}
	}
	if dec.MaxRun > 0 {
		segSteps = min(segSteps, max(int(float64(dec.MaxRun)/float64(secPerStep)), 1))
	}
	return segSteps, checkpointing
}

// price quotes a fresh deployment of cs requested at `from`: when the
// market can supply it, and the load I/O after boot — the profiled input
// load on a fresh start or, resuming a durable checkpoint, its fetch
// plus the parallel reload of perWorker[w] vertices to each worker w.
func (l *loop) price(cs *core.ConfigStats, from units.Seconds, resumed bool, fetch units.Seconds, perWorker []int64) (avail, load units.Seconds, err error) {
	if avail, err = l.env.Market.NextAvailable(cs.Config, from); err != nil || !resumed {
		return avail, cs.Load, err
	}
	return avail, fetch + l.reloadTime(perWorker), nil
}

// reloadTime prices the §6 fast reload with simnet: every worker pulls
// its share of the checkpoint from the datastore in parallel.
func (l *loop) reloadTime(perWorker []int64) units.Seconds {
	cluster, err := simnet.NewCluster(len(perWorker), simnet.DefaultConfig())
	if err != nil {
		l.logf("runtime: reload pricing: %v", err)
		return 0
	}
	flows := make([]simnet.Flow, 0, len(perWorker))
	for w, vertices := range perWorker {
		flows = append(flows, simnet.Flow{Src: simnet.DatastoreNode, Dst: w,
			Bytes: vertices * bytesPerVertex})
	}
	return cluster.SimulateFlows(flows)
}

// deploy bills a fresh deployment of cs from the clock — market wait,
// boot and load (see price) — and advances the clock to the ready
// instant. A deployment that resumes a durable checkpoint is a
// recovery: its EvDeploy carries Reload, so its whole span folds into
// RecoveryTime. It returns that EvDeploy for the caller to emit once
// the deployment is up; done is the superstep it resumes from.
func (l *loop) deploy(cs *core.ConfigStats, resumed bool, fetch units.Seconds, perWorker []int64, done int) (obs.Event, error) {
	start := l.t
	avail, load, err := l.price(cs, start, resumed, fetch, perWorker)
	if err != nil {
		return obs.Event{}, err
	}
	readyAt := avail + cs.Boot + load
	if err := l.spend(cs.Config, avail, readyAt, load); err != nil {
		return obs.Event{}, err
	}
	l.t = readyAt
	return l.deployEvent(cs, start, done, resumed), nil
}

// deployEvent is the EvDeploy of a deployment of cs requested at start
// and ready now.
func (l *loop) deployEvent(cs *core.ConfigStats, start units.Seconds, done int, resumed bool) obs.Event {
	return obs.Event{Type: obs.EvDeploy, T: float64(start), Job: l.env.Job.Name,
		Config: cs.Config.ID(), WorkLeft: l.workLeft(done),
		DurSec: float64(l.t - start), Reload: resumed}
}

// forecast races a segment of segSteps supersteps on cs against the
// eviction at nextEvict. It returns how many supersteps complete before
// the eviction lands (0 = the segment is not interrupted) — or
// evicted=true when it lands before the first one does, in which case
// the eviction is already billed and recorded (see billUntil).
func (l *loop) forecast(cs *core.ConfigStats, nextEvict units.Seconds, segSteps, done int) (evictAfter int, evicted bool, err error) {
	stepsToEvict := l.stepsBefore(cs, nextEvict)
	if stepsToEvict <= 0 {
		evicted, err = l.billUntil(cs, never, nextEvict, done, 0)
		return 0, evicted, err
	}
	if stepsToEvict < segSteps {
		evictAfter = stepsToEvict
	}
	return evictAfter, false, nil
}

// stepsBefore is how many whole supersteps on cs complete between the
// clock and at (math.MaxInt when at is out of reach).
func (l *loop) stepsBefore(cs *core.ConfigStats, at units.Seconds) int {
	if !math.IsInf(float64(at), 1) {
		if ratio := float64(at-l.t) / float64(l.stepTime(cs)); ratio < 1e12 {
			return int(ratio)
		}
	}
	return math.MaxInt
}

// billUntil bills cs from the clock to end, io seconds of it I/O, and
// advances the clock there, unless the eviction at `at` lands first.
// Then the machines ran — and are billed — only up to the eviction,
// which is recorded with done supersteps durable: in-memory progress
// past them is gone with the machines, and the caller must redeploy.
func (l *loop) billUntil(cs *core.ConfigStats, end, at units.Seconds, done int, io units.Seconds) (evicted bool, err error) {
	evicted = at < end
	if evicted {
		end = at
	}
	if err := l.spend(cs.Config, l.t, end, io); err != nil {
		return false, err
	}
	l.t = end
	if evicted {
		l.emit(obs.Event{Type: obs.EvEvict, T: float64(at), Job: l.env.Job.Name,
			Config: cs.Config.ID(), WorkLeft: l.workLeft(done)})
	}
	return evicted, nil
}

// finish handles a segment that computed the job to completion at
// segEnd: bill the output write, racing the eviction; once the output
// is durable, clear the checkpoint namespace and fill the report.
// done=false means the eviction won (the result never became durable)
// and was recorded with durable supersteps durable.
func (l *loop) finish(cs *core.ConfigStats, segEnd, nextEvict units.Seconds, durable int, values []float64, stats engine.Stats, clear func() error) (bool, error) {
	if evicted, err := l.billUntil(cs, segEnd+cs.Save, nextEvict, durable, 0); err != nil || evicted {
		return false, err
	}
	if err := clear(); err != nil {
		l.logf("runtime: checkpoint GC for job %q incomplete: %v", l.env.Job.Name, err)
	}
	l.rep.Values, l.rep.Stats = values, stats
	l.emit(obs.Event{Type: obs.EvDone, T: float64(l.t), Job: l.env.Job.Name,
		Config: cs.Config.ID(), Done: true,
		Missed: l.t > l.deadline, USD: float64(l.rep.Cost)})
	return true, nil
}

// A substrate is what one driver runs its sessions on: the in-process
// engine (driver) or shard process sets (distDriver).
type substrate interface {
	// frontier reads the durable frontier: the superstep of the newest
	// checkpoint a new deployment resumes (0 = none).
	frontier() (int, error)
	// boot bills a deployment of cs resuming superstep durable — or
	// adopts the warm standby that decided it — and returns its EvDeploy.
	boot(cs *core.ConfigStats, durable int, warm *standbyState) (obs.Event, error)
	// run emits deploy once the deployment is up, then runs s over it
	// until the job finishes (returning its output) or s stops. Every
	// barrier reaches s on the calling goroutine.
	run(s *session, deploy obs.Event, warm *standbyState) ([]float64, engine.Stats, error)
	// clear removes the job's checkpoints once its output is durable.
	clear() error
}

// drive is the Figure 2 loop: read the durable frontier; take the
// decision the last session carried over, or consult; then deploy it,
// run its session and settle how that ended.
func (l *loop) drive(ctx context.Context, sub substrate) (Report, error) {
	for attempt := 0; ; attempt++ {
		durable, err := sub.frontier()
		if err != nil {
			return l.rep, err
		}
		c, sb := l.next, l.pending
		l.next, l.pending = nil, nil
		switch {
		case sb != nil:
			// Warm cutover: the decision was made at the warning (and
			// counted there), the set is booted and prefetched — go
			// straight to the session.
			err = l.guard(ctx)
		case c == nil:
			c = &choice{}
			c.dec, c.cs, _, err = l.consult(ctx, nil, 0, durable)
		}
		if err != nil {
			sb.teardown()
			return l.rep, err
		}
		if done, err := l.deployment(ctx, sub, *c, attempt, durable, sb); err != nil || done {
			return l.rep, err
		}
	}
}

// deployment deploys c from the durable frontier, runs its session and
// folds the outcome into the report. It returns done=true when the job
// finished.
func (l *loop) deployment(ctx context.Context, sub substrate, c choice, attempt, durable int, warm *standbyState) (bool, error) {
	cs := c.cs
	deploy, err := sub.boot(cs, durable, warm)
	if err != nil {
		warm.teardown()
		return false, err
	}
	s := &session{l: l, sub: sub, ctx: ctx, choice: c, attempt: attempt, bootAt: l.t,
		durable: durable, done: durable, billed: durable}
	var values []float64
	var stats engine.Stats
	var runErr error
	if s.arm(true) {
		values, stats, runErr = sub.run(s, deploy, warm)
	} else {
		// Evicted before one superstep would complete: not worth running
		// the deployment at all.
		l.emit(deploy)
		warm.teardown()
	}
	switch {
	case s.err != nil:
		// Billing or deciding failed inside the session.
		err = s.err
	case s.next != nil:
		// A boundary decided on another configuration: the session is
		// billed through that boundary, and a standby never pays out.
		l.next = s.next
		return false, s.discardStandby(l.t)
	case s.lost:
		// Evicted, a worker died or the watchdog gave up: billed and
		// recorded already. Progress past the durable frontier is gone
		// with the deployment.
		return false, s.settleStandby()
	case runErr == nil:
		var done bool
		if done, err = l.finish(cs, l.segEnd(cs, s.done-s.billed), s.nextEvict, s.durable,
			values, stats, sub.clear); err == nil {
			if done {
				// The job finished under the doomed session after all;
				// the standby was insurance that never paid out.
				return true, s.discardStandby(l.t)
			}
			// Evicted computing the tail or writing the output: a ready
			// standby still takes over.
			return false, s.settleStandby()
		}
	case ctx.Err() != nil:
		err = fmt.Errorf("runtime: cancelled mid-session: %w", ctx.Err())
	default:
		err = runErr
	}
	s.sb.teardown()
	return false, err
}

// session is one deployment's live run and the plan of its running
// segment. The substrate feeds it every barrier on one goroutine —
// Emit for each superstep and sealed checkpoint, checkpointAt at every
// barrier the job continues past — so the loop's boundary steps (bill,
// record, re-decide) and the warning that arms a standby all run there.
//
// At the plan's boundary the driver consults the provisioner with the
// deployment live. On KeepCurrent the session runs on in place under
// the new plan, its eviction bound and warning re-derived from the
// clock (billed saves move it; a kept deployment's bid crossing does
// not); any other decision stops the session at that barrier, and the
// next run-loop iteration boots the decided configuration.
type session struct {
	l   *loop
	sub substrate
	ctx context.Context // the run's: decisions and standbys outlive the session
	choice
	attempt int
	bootAt  units.Seconds
	cancel  context.CancelFunc

	durable       int  // superstep of the checkpoint resumed or sealed last (0 = none)
	done          int  // supersteps computed (absolute)
	billed        int  // superstep the clock has billed compute through
	planEnd       int  // the plan's boundary (0 = run to completion)
	checkpointing bool // the plan seals a checkpoint at planEnd
	saveAt        int  // a requested save that has not sealed (0 = none)
	nextEvict     units.Seconds
	evictAt       int // injected eviction: stop after this superstep (0 = none)

	// Warm standby (ExecuteDist with WarningWindow > 0), re-derived with
	// the segment; see armWarning.
	sb       *standbyState // armed by the warning (nil = not fired)
	warnAt   int           // fire the warning after this superstep (0 = never)
	forceAt  int           // forced in-window save (0 = none)
	warmTrip bool          // the eviction stops the session at forceAt

	// Why the driver stopped the session, if it did.
	stopped, lost bool
	next          *choice // a boundary decided on another deployment
	err           error
}

// Emit is the deployment's sink.
func (s *session) Emit(e obs.Event) {
	if e.Type == obs.EvCheckpoint {
		s.close(e.Superstep, true, s.cs.Save, func() obs.Event { return e })
		return
	}
	s.l.emit(e)
	if e.Type != obs.EvSuperstep || s.stopped {
		return
	}
	if s.saveAt > 0 {
		// The save requested at the last barrier never sealed (a blob
		// write or the manifest failed): its time is billed, the
		// durable frontier stays put.
		s.close(s.saveAt, true, s.cs.Save, nil)
	}
	s.done = e.Superstep
	if !s.stopped && s.sb == nil && s.warnAt > 0 && s.done >= s.warnAt {
		s.warn()
	}
	// In warm mode the eviction stops the session once the forced save
	// at its boundary seals (see close); the superstep after it is the
	// safety net should that save never seal.
	if !s.stopped && s.evictAt > 0 && s.done >= s.evictAt && !(s.warmTrip && s.done == s.evictAt) {
		s.lose(s.nextEvict)
	}
}

// checkpointAt is the plan hook, called at every barrier the job
// continues past: it asks for a checkpoint where the plan ends its
// segment with one and at the forced in-window save, and closes a
// segment the plan ends without one.
func (s *session) checkpointAt(x int) bool {
	save := !s.stopped && (x == s.forceAt || x == s.planEnd && s.checkpointing)
	if save {
		s.saveAt = x
	} else if !s.stopped && x == s.planEnd {
		s.close(x, false, 0, nil)
	}
	return save
}

// close is the loop's boundary at superstep x: bill the compute since
// the last boundary and, with save, the save of ioSave seconds after
// it, racing the eviction; record the checkpoint sealed, if any — the
// event sealed returns once the boundary is billed; then re-decide at
// the plan's boundary, or stop at the warm eviction's forced save, or
// re-derive the rest of the segment from the clock. A checkpoint that
// lost its save to the eviction is still recorded: it is sealed in the
// store, and the next deployment resumes it.
func (s *session) close(x int, save bool, ioSave units.Seconds, sealed func() obs.Event) {
	l := s.l
	end, at, io := l.segEnd(s.cs, x-s.billed), never, units.Seconds(0) // a bare segment cannot lose the race: its forecast fits
	if save {
		end, at, io = end+ioSave, s.nextEvict, ioSave
	}
	lost, err := l.billUntil(s.cs, end, at, s.durable, io)
	s.billed, s.saveAt = x, 0
	if sealed != nil {
		s.durable = x
		l.emit(sealed())
	}
	switch {
	case err != nil || lost:
		s.stop(lost, err)
	case x == s.planEnd:
		dec, cs, keep, err := l.consult(s.ctx, s.cs, s.bootAt, s.done)
		switch {
		case err != nil:
			s.stop(false, err)
		case keep:
			s.dec = dec
			s.arm(true)
		default:
			s.next = &choice{dec: dec, cs: cs}
			s.stop(false, nil)
		}
	case s.warmTrip && x == s.forceAt:
		s.lose(s.nextEvict)
	default:
		s.arm(false)
	}
}

// arm re-derives the segment from the clock at the in-memory frontier:
// with replan, the plan of the session's decision; always, the eviction
// forecast and the warning. It returns false when the eviction lands
// before one more superstep can complete (billed and recorded then).
func (s *session) arm(replan bool) bool {
	l := s.l
	if replan {
		steps, checkpointing := l.plan(s.dec, s.cs, s.done)
		s.planEnd, s.checkpointing = s.done+steps, checkpointing
		if steps >= l.total-s.done {
			s.planEnd = 0 // the last segment runs to completion
		}
	}
	s.nextEvict = l.evictor.Next(s.cs.Config, l.t)
	segSteps := max(l.total-s.done, 1)
	if s.planEnd > 0 {
		segSteps = s.planEnd - s.done
	}
	evictAfter, evicted, err := l.forecast(s.cs, s.nextEvict, segSteps, s.durable)
	if err != nil || evicted {
		s.stop(evicted, err)
		return false
	}
	s.evictAt = 0
	if evictAfter > 0 {
		s.evictAt = s.done + evictAfter
	}
	s.armWarning()
	return true
}

// lose stops the session at the instant at the deployment is lost — the
// injected eviction, or a worker's death: the machines ran, and are
// billed, up to it.
func (s *session) lose(at units.Seconds) {
	s.nextEvict = at
	_, err := s.l.billUntil(s.cs, never, at, s.durable, 0)
	s.stop(true, err)
}

// stop ends the session at this barrier — the deployment checks its
// context before it runs another superstep — recording why.
func (s *session) stop(lost bool, err error) {
	s.stopped, s.lost, s.err = true, lost, err
	if s.cancel != nil {
		s.cancel()
	}
}
