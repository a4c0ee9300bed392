// The driver core: the paper's Figure 2 loop — decide → deploy →
// compute → checkpoint → (evict → re-decide)* — written once for both
// execution substrates. Execute (the in-process engine) and ExecuteDist
// (shard process sets) each hold one loop and add only what their
// substrate needs: running, pausing and checkpointing an engine, or
// launching, warming and tearing down worker sets. Every accounting
// rule — what a decision costs, how a deployment is billed, when an
// eviction wins a race, how a finished job is reported — lives here, so
// fixing one fixes it for both drivers.

package runtime

import (
	"context"
	"fmt"
	"log"
	"math"
	"sync"

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
// trace back to rep.Cost bit-exactly.
func (l *loop) spend(c cloud.Config, from, to units.Seconds) error {
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
	l.rep.Reconfigs++
	if resumed {
		l.rep.RecoveryTime += readyAt - start
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
	stepsToEvict := math.MaxInt
	if !math.IsInf(float64(nextEvict), 1) {
		if ratio := float64(nextEvict-l.t) / float64(l.stepTime(cs)); ratio < 1e12 {
			stepsToEvict = int(ratio)
		}
	}
	if stepsToEvict <= 0 {
		evicted, err = l.billUntil(cs, never, nextEvict, done)
		return 0, evicted, err
	}
	if stepsToEvict < segSteps {
		evictAfter = stepsToEvict
	}
	return evictAfter, false, nil
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

// monitor is the engine or coordinator sink of one segment: it forwards
// events, counts the segment's supersteps and sealed checkpoints, feeds
// the in-process watchdog, fires the eviction warning, and cancels the
// segment at the injected eviction boundary. Both engines emit
// EvSuperstep synchronously at the superstep barrier — the coordinator
// before sealing that boundary's checkpoint — so "evict after N
// supersteps" is deterministic: the segment stops before superstep N+1
// and a dist checkpoint at N never becomes durable, exactly a machine
// loss at that instant.
//
// In warm mode (warmBoundary > 0, set when the warning window fits one
// final save) the cancellation moves to the EvCheckpoint the
// coordinator emits after sealing the forced boundary checkpoint: the
// session still stops before superstep N+1 starts, but the boundary's
// state is durable — the in-window save. If that save never seals, the
// EvSuperstep for N+1 is the safety net.
type monitor struct {
	forward      obs.Sink
	cancel       context.CancelFunc
	evictAfter   int           // cancel after this many supersteps (0 = never)
	warmBoundary int           // absolute superstep of the forced in-window save (0 = reactive)
	warnAfter    int           // fire onWarn after this many supersteps (0 = never)
	onWarn       func()        // must not block: spawn, don't orchestrate
	feed         chan struct{} // watchdog heartbeat, one per superstep (nil = none)

	mu          sync.Mutex
	steps       int // supersteps completed this segment
	durable     int // newest sealed checkpoint superstep this segment
	checkpoints int
	evicted     bool
	warned      bool
}

func (m *monitor) Emit(e obs.Event) {
	switch e.Type {
	case obs.EvSuperstep:
		m.mu.Lock()
		m.steps++
		limit := m.evictAfter
		if m.warmBoundary > 0 {
			limit = m.evictAfter + 1
		}
		trip := m.evictAfter > 0 && m.steps >= limit && !m.evicted
		if trip {
			m.evicted = true
		}
		warn := m.warnAfter > 0 && m.steps >= m.warnAfter && !m.warned
		if warn {
			m.warned = true
		}
		m.mu.Unlock()
		select {
		case m.feed <- struct{}{}:
		default:
		}
		if warn && m.onWarn != nil {
			m.onWarn()
		}
		if trip {
			m.cancel()
		}
	case obs.EvCheckpoint:
		m.mu.Lock()
		if e.Superstep > m.durable {
			m.durable = e.Superstep
		}
		m.checkpoints++
		trip := m.warmBoundary > 0 && e.Superstep >= m.warmBoundary && !m.evicted
		if trip {
			m.evicted = true
		}
		m.mu.Unlock()
		if trip {
			m.cancel()
		}
	}
	if m.forward != nil {
		m.forward.Emit(e)
	}
}

// warnFired reports whether the eviction warning fired this segment.
func (m *monitor) warnFired() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.warned
}

// stepsDone reports the supersteps completed this segment.
func (m *monitor) stepsDone() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.steps
}

// tripped reports whether this monitor cancelled the segment at the
// injected eviction boundary.
func (m *monitor) tripped() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.evicted
}

// progress returns the segment's durable frontier and checkpoint count.
func (m *monitor) progress() (durable, checkpoints int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.durable, m.checkpoints
}
