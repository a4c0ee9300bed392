// The driver core: the paper's Figure 2 loop — decide → deploy →
// compute → checkpoint → (evict → re-decide)* — written once for both
// execution substrates. Execute (the in-process engine) and ExecuteDist
// (shard process sets) each hold one loop and add only what their
// substrate needs: running, pausing and checkpointing an engine, or
// launching, warming and tearing down worker sets. Every accounting
// rule lives here, so fixing one fixes it for both drivers: what a
// decision costs, how a decision bounds the segment after it (plan),
// how a segment and its save are billed against the eviction
// (boundary), how a live deployment is re-decided (consult), how a
// deployment is billed, and how a finished job is reported.

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

// loop is the state both drivers share: the virtual clock, the report,
// the evictor and the deadline, plus the options common to Options and
// DistOptions.
type loop struct {
	env            *core.Env
	prov           core.Provisioner
	sink           obs.Sink
	logger         func(format string, args ...any)
	total          int // expected supersteps: the denominator of w(t)
	every          int // checkpoint cadence in supersteps (0 = Daly interval)
	restartBudget  int
	maxDecisions   int
	bytesPerVertex int64
	net            simnet.Config

	evictor  sim.Evictor
	deadline units.Seconds
	rep      Report
	t        units.Seconds // virtual clock
}

// newLoop fills the defaults of the shared options and starts the clock.
func newLoop(l loop, start, deadline units.Seconds) *loop {
	if l.restartBudget <= 0 {
		l.restartBudget = 8
	}
	if l.maxDecisions <= 0 {
		l.maxDecisions = 10_000
	}
	if l.bytesPerVertex <= 0 {
		l.bytesPerVertex = 64
	}
	if l.net == (simnet.Config{}) {
		l.net = simnet.DefaultConfig()
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

func (l *loop) emit(e obs.Event) {
	if l.sink != nil {
		l.sink.Emit(e)
	}
}

// spend bills a machine-time interval on the market and emits the
// matching EvSpend, in accumulation order so obs.Summarize folds the
// trace back to rep.Cost bit-exactly. An empty interval bills nothing.
func (l *loop) spend(c cloud.Config, from, to units.Seconds) error {
	if from == to {
		return nil
	}
	cost, err := l.env.Market.Cost(c, from, to)
	if err != nil {
		return err
	}
	l.rep.Cost += cost
	l.emit(obs.Event{Type: obs.EvSpend, T: float64(from), Config: c.ID(), USD: float64(cost)})
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
	if l.rep.Decisions > l.maxDecisions {
		return fmt.Errorf("runtime: exceeded %d decisions (provisioner livelock?)", l.maxDecisions)
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("runtime: cancelled after %d decisions: %w", l.rep.Decisions, err)
	}
	return nil
}

// decide counts a decision point and consults the provisioner — or,
// once the restart budget is spent or slack has run dry, pins the
// deterministic last-resort on-demand configuration (the §5 fallback: a
// fresh LRC deployment finishes within the remaining horizon by
// construction, so nothing may preempt it again). KeepCurrent derives
// from st.Current (nil once the deployment is torn down).
func (l *loop) decide(ctx context.Context, st core.State) (core.Decision, *core.ConfigStats, error) {
	l.rep.Decisions++
	if err := l.guard(ctx); err != nil {
		return core.Decision{}, nil, err
	}
	env := l.env
	if l.rep.Restarts < l.restartBudget && env.Slack(st) > 0 {
		return sim.Decide(env, l.prov, st, l.sink)
	}
	if !l.rep.LastResort {
		l.rep.LastResort = true
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

// boundary closes a segment that paused at segEnd with cs still
// running: it bills the segment and, when the plan checkpoints, the
// save of ioSave seconds after it, racing the eviction at nextEvict (a
// bare segment cannot lose the race: its forecast fits). evicted=true
// means the eviction won, billed and recorded with durable supersteps
// durable; the deployment is gone and the caller must redeploy.
// Otherwise a caller whose save sealed records it (see record).
func (l *loop) boundary(cs *core.ConfigStats, segEnd, ioSave, nextEvict units.Seconds, checkpointing bool, durable int) (evicted bool, err error) {
	if !checkpointing {
		_, err := l.billUntil(cs, segEnd, never, 0)
		return false, err
	}
	l.rep.IOTime += ioSave
	return l.billUntil(cs, segEnd+ioSave, nextEvict, durable)
}

// record counts a sealed checkpoint and emits its EvCheckpoint.
func (l *loop) record(e obs.Event) {
	l.rep.Checkpoints++
	l.emit(e)
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
	cluster, err := simnet.NewCluster(len(perWorker), l.net)
	if err != nil {
		l.logf("runtime: reload pricing: %v", err)
		return 0
	}
	flows := make([]simnet.Flow, 0, len(perWorker))
	for w, vertices := range perWorker {
		flows = append(flows, simnet.Flow{Src: simnet.DatastoreNode, Dst: w,
			Bytes: vertices * l.bytesPerVertex})
	}
	return cluster.SimulateFlows(flows)
}

// deploy bills a fresh deployment of cs from the clock — market wait,
// boot and load (see price) — and advances the clock to the ready
// instant. A deployment that resumes a durable checkpoint is a
// recovery: its whole span counts as RecoveryTime and its EvDeploy
// carries Reload, so the trace folds to the same number. It returns
// that EvDeploy for the caller to emit once the deployment is up; done
// is the superstep it resumes from.
func (l *loop) deploy(cs *core.ConfigStats, resumed bool, fetch units.Seconds, perWorker []int64, done int) (obs.Event, error) {
	start := l.t
	avail, load, err := l.price(cs, start, resumed, fetch, perWorker)
	if err != nil {
		return obs.Event{}, err
	}
	l.rep.IOTime += load
	readyAt := avail + cs.Boot + load
	if err := l.spend(cs.Config, avail, readyAt); err != nil {
		return obs.Event{}, err
	}
	if resumed {
		l.rep.RecoveryTime += readyAt - start
	}
	l.t = readyAt
	return l.deployEvent(cs, start, done, resumed), nil
}

// deployEvent counts a deployment of cs requested at start and ready
// now, and returns its EvDeploy.
func (l *loop) deployEvent(cs *core.ConfigStats, start units.Seconds, done int, resumed bool) obs.Event {
	l.rep.Reconfigs++
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
		evicted, err = l.billUntil(cs, never, nextEvict, done)
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

// billUntil bills cs from the clock to end and advances the clock there,
// unless the eviction at `at` lands first. Then the machines ran — and
// are billed — only up to the eviction, which is recorded with done
// supersteps durable: in-memory progress past them is gone with the
// machines, and the caller must redeploy.
func (l *loop) billUntil(cs *core.ConfigStats, end, at units.Seconds, done int) (evicted bool, err error) {
	evicted = at < end
	if evicted {
		end = at
	}
	if err := l.spend(cs.Config, l.t, end); err != nil {
		return false, err
	}
	l.t = end
	if evicted {
		l.rep.Evictions++
		l.rep.Restarts++
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
	if evicted, err := l.billUntil(cs, segEnd+cs.Save, nextEvict, durable); err != nil || evicted {
		return false, err
	}
	if err := clear(); err != nil {
		l.logf("runtime: checkpoint GC for job %q incomplete: %v", l.env.Job.Name, err)
	}
	l.rep.Values, l.rep.Stats, l.rep.Finished = values, stats, true
	l.rep.Completion = l.t
	l.rep.MissedDeadline = l.t > l.deadline
	l.emit(obs.Event{Type: obs.EvDone, T: float64(l.t), Job: l.env.Job.Name,
		Config: cs.Config.ID(), Done: true,
		Missed: l.rep.MissedDeadline, USD: float64(l.rep.Cost)})
	return true, nil
}
