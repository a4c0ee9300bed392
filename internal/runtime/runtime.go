// Package runtime is the eviction-aware execution driver: it runs real
// engine.Programs under the seeded eviction process the trace-driven
// simulator (internal/sim) replays, closing the loop the paper defends
// end-to-end (§1, Figure 2) — eviction → re-provision → re-partition →
// resume at a different worker count → deadline met.
//
// Where internal/sim evicts abstract work units, Execute injects each
// eviction into a live superstep loop: the in-flight superstep is
// abandoned (context cancellation, engine.ErrInterrupted), the newest
// valid checkpoint is reloaded through engine.CheckpointManager, the
// slack-aware provisioner picks the next configuration given the
// remaining supersteps and remaining slack, micro-partitions are
// re-clustered for the new worker count (micro.Partitioning) with the
// parallel reload priced by internal/simnet, and the run resumes under
// the new engine.Config.Workers. When slack is exhausted — or the
// restart budget is spent — the driver falls back to the last-resort
// on-demand configuration, exactly the paper's §5 guarantee.
//
// Time is split across two clocks. Compute, boot, load and save are
// *virtual* seconds priced by the perfmodel/market, so a multi-hour
// execution drives real supersteps yet accounts like the simulator.
// The watchdog alone is *wall-clock*: it bounds how long a superstep
// may take for real, so a wedged Compute degrades to
// reload-and-reprovision instead of hanging the driver.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"sync/atomic"
	"time"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/engine"
	"hourglass/internal/graph"
	"hourglass/internal/micro"
	"hourglass/internal/obs"
	"hourglass/internal/sim"
	"hourglass/internal/simnet"
	"hourglass/internal/units"
)

// Options configures one eviction-aware execution.
type Options struct {
	// Env supplies the configuration set, market, eviction traces and
	// per-config stats (required).
	Env *core.Env
	// Prov decides what to run after every eviction and checkpoint
	// boundary (required).
	Prov core.Provisioner
	// Graph is the input graph (required).
	Graph *graph.Graph
	// NewProgram returns a fresh vertex program per (re)start — engine
	// programs may carry per-run state, so each resume gets its own
	// (required).
	NewProgram func() engine.Program
	// Part holds the offline micro-partitioning; every deployment's
	// vertex→worker map comes from Part.VertexAssignment(workers)
	// (required).
	Part *micro.Partitioning
	// Manager persists checkpoints across evictions (required). Its
	// store may be fault-injected; Save/Load times are billed as I/O.
	Manager *engine.CheckpointManager
	// TotalSupersteps is the expected superstep count of an
	// uninterrupted run, the denominator of the work-left model w(t)
	// (required > 0). Programs that halt early just finish sooner;
	// programs that run longer keep w clamped above zero.
	TotalSupersteps int

	// CheckpointEvery checkpoints after this many supersteps when the
	// provisioner asks for checkpointing (0 = derive from the config's
	// Daly interval).
	CheckpointEvery int
	// RestartBudget bounds evictions + watchdog trips before the driver
	// pins the last-resort configuration (0 = 8).
	RestartBudget int
	// Watchdog is the wall-clock budget per superstep; a run that
	// exceeds it is cancelled and redeployed from the last checkpoint
	// (0 = disabled).
	Watchdog time.Duration
	// WatchdogGrace is how long to wait for the cancelled engine to
	// acknowledge before abandoning its goroutine (0 = 100ms).
	WatchdogGrace time.Duration
	// MaxDecisions guards against livelock (0 = 10_000).
	MaxDecisions int
	// Canonical forces order-invariant reductions so final values are
	// bit-identical across any worker-count trajectory (see
	// engine.Config.Canonical). Required for programs with aggregators
	// or order-sensitive message folds to survive reconfiguration
	// bit-exactly; engine.ExactCombiner programs (all the bundled
	// combiner programs) keep sender-side combining under it, the rest
	// pay one inbox sort per vertex.
	Canonical bool
	// BytesPerVertex sizes the parallel checkpoint reload flows priced
	// by simnet (0 = 64).
	BytesPerVertex int64
	// Net shapes the reload network (zero value = simnet.DefaultConfig).
	Net simnet.Config
	// MaxSupersteps is passed to the engine as its runaway guard
	// (0 = engine default).
	MaxSupersteps int
	// Sink receives the structured event stream: EvDecision per
	// provisioner consultation, EvSpend per billing charge in
	// accumulation order, EvDeploy/EvEvict/EvCheckpoint lifecycle
	// markers, EvSuperstep per engine superstep and a final EvDone.
	// Folding the stream with obs.Summarize reproduces the Report's
	// cost bit-for-bit. Nil disables tracing.
	Sink obs.Sink
	// Logf receives non-fatal diagnostics (nil = standard logger).
	Logf func(format string, args ...any)
}

// Report is the outcome of one eviction-aware execution.
type Report struct {
	// Values are the final vertex values (nil when the run did not
	// finish).
	Values []float64
	// Stats are the engine stats of the final segment.
	Stats engine.Stats
	// Cost is the accumulated machine spend (virtual market pricing).
	Cost units.USD
	// Finished reports whether the job produced output.
	Finished bool
	// MissedDeadline is Finished && Completion > deadline.
	MissedDeadline bool
	// Completion is the absolute virtual finish time.
	Completion units.Seconds
	// IOTime totals checkpoint save/load plus simnet reload seconds.
	IOTime units.Seconds
	// RecoveryTime totals the post-eviction downtime: every reactive
	// reload deploy's wait + boot + load span. Warm cutovers contribute
	// zero — their boot and prefetch overlapped the warning window —
	// so on a fixed trace warm recovery is strictly cheaper than cold
	// whenever at least one cutover lands.
	RecoveryTime units.Seconds

	Evictions     int  // injected evictions suffered
	Reconfigs     int  // deployments (first boot included)
	Checkpoints   int  // durable checkpoints completed
	Decisions     int  // provisioner consultations
	Restarts      int  // evictions + watchdog trips that forced a reload
	WatchdogTrips int  // wall-clock watchdog firings
	Warnings      int  // eviction warnings fired (ExecuteDist with WarningWindow > 0)
	WarmCutovers  int  // evictions absorbed by a ready warm standby
	StandbyMisses int  // standbys armed or booted that never cut over
	LastResort    bool // the last-resort fallback was engaged

	// ShardCounts is the worker count of every deployment in boot
	// order — populated by ExecuteDist, where each entry is one process
	// set; a re-provision after an eviction may change the count
	// mid-trajectory. Execute leaves it nil.
	ShardCounts []int
}

func (o *Options) validate() error {
	switch {
	case o.Env == nil:
		return errors.New("runtime: nil Env")
	case o.Prov == nil:
		return errors.New("runtime: nil Prov")
	case o.Graph == nil:
		return errors.New("runtime: nil Graph")
	case o.NewProgram == nil:
		return errors.New("runtime: nil NewProgram")
	case o.Part == nil:
		return errors.New("runtime: nil Part")
	case o.Manager == nil:
		return errors.New("runtime: nil Manager")
	case o.TotalSupersteps <= 0:
		return fmt.Errorf("runtime: TotalSupersteps = %d", o.TotalSupersteps)
	}
	return nil
}

func (o *Options) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// driver carries the mutable state of one Execute call.
type driver struct {
	opts     *Options
	evictor  sim.Evictor
	deadline units.Seconds
	rep      Report

	t        units.Seconds     // virtual clock
	cur      *core.ConfigStats // live deployment (nil = none)
	bootAt   units.Seconds     // uptime anchor of cur
	assign   []int32           // vertex→worker map of cur
	snapLive *engine.Snapshot  // in-memory snapshot (survives KeepCurrent only)
}

func (d *driver) emit(e obs.Event) {
	if d.opts.Sink != nil {
		d.opts.Sink.Emit(e)
	}
}

// spend bills a machine-time interval on the market and emits the
// matching EvSpend, in accumulation order so obs.Summarize folds the
// trace back to rep.Cost bit-exactly.
func (d *driver) spend(c cloud.Config, from, to units.Seconds) error {
	cost, err := d.opts.Env.Market.Cost(c, from, to)
	if err != nil {
		return err
	}
	d.rep.Cost += cost
	if d.opts.Sink != nil {
		d.opts.Sink.Emit(obs.Event{Type: obs.EvSpend, T: float64(from),
			Config: c.ID(), USD: float64(cost)})
	}
	return nil
}

// workLeft maps completed supersteps to the w(t) ∈ (0,1] fraction the
// provisioner consumes, clamped above zero so a job that outlives its
// superstep estimate still registers as unfinished. Shared by the
// in-process and dist drivers.
func workLeft(total, doneSteps int) float64 {
	w := float64(total-doneSteps) / float64(total)
	if min := 0.5 / float64(total); w < min {
		w = min
	}
	return w
}

func (d *driver) workLeft(doneSteps int) float64 {
	return workLeft(d.opts.TotalSupersteps, doneSteps)
}

// Execute runs the program to completion under injected evictions,
// starting at virtual time start with an absolute deadline. The
// returned Report is meaningful even alongside an error: it carries
// the spend and I/O accumulated before the failure.
func Execute(ctx context.Context, opts Options, start, deadline units.Seconds) (Report, error) {
	if err := opts.validate(); err != nil {
		return Report{}, err
	}
	if opts.RestartBudget <= 0 {
		opts.RestartBudget = 8
	}
	if opts.WatchdogGrace <= 0 {
		opts.WatchdogGrace = 100 * time.Millisecond
	}
	if opts.MaxDecisions <= 0 {
		opts.MaxDecisions = 10_000
	}
	if opts.BytesPerVertex <= 0 {
		opts.BytesPerVertex = 64
	}
	if opts.Net == (simnet.Config{}) {
		opts.Net = simnet.DefaultConfig()
	}
	d := &driver{
		opts:     &opts,
		evictor:  sim.Evictor{Market: opts.Env.Market},
		deadline: deadline,
		t:        start,
	}
	return d.run(ctx)
}

func (d *driver) run(ctx context.Context) (Report, error) {
	env := d.opts.Env
	for {
		d.rep.Decisions++
		if d.rep.Decisions > d.opts.MaxDecisions {
			return d.rep, fmt.Errorf("runtime: exceeded %d decisions (provisioner livelock?)", d.opts.MaxDecisions)
		}
		if err := ctx.Err(); err != nil {
			return d.rep, fmt.Errorf("runtime: cancelled after %d decisions: %w", d.rep.Decisions, err)
		}

		doneSteps := 0
		if d.snapLive != nil {
			doneSteps = d.snapLive.Superstep
		}
		var curCfg *cloud.Config
		uptime := units.Seconds(0)
		if d.cur != nil {
			curCfg = &d.cur.Config
			uptime = d.t - d.bootAt
		}
		st := core.State{Now: d.t, WorkLeft: d.workLeft(doneSteps),
			Deadline: d.deadline, Current: curCfg, Uptime: uptime}

		dec, cs, err := d.decide(env, st)
		if err != nil {
			return d.rep, err
		}

		var nextEvict units.Seconds
		if d.cur == nil || !dec.KeepCurrent || d.cur.Config.ID() != cs.Config.ID() {
			nextEvict, err = d.deploy(cs)
			if err != nil {
				return d.rep, err
			}
		} else {
			// Keep running: refresh the eviction forecast (prices moved
			// on) and reuse the in-memory state.
			nextEvict = d.evictor.Next(cs.Config, d.t)
		}

		done, err := d.segment(ctx, dec, cs, nextEvict)
		if err != nil || done {
			return d.rep, err
		}
	}
}

// decide consults the provisioner — or, once the restart budget is
// spent or slack has run dry, pins the deterministic last-resort
// on-demand configuration with checkpointing off (the §5 fallback: a
// fresh LRC deployment finishes within the remaining horizon by
// construction, so nothing may preempt it again).
func (d *driver) decide(env *core.Env, st core.State) (core.Decision, *core.ConfigStats, error) {
	if d.rep.Restarts < d.opts.RestartBudget && env.Slack(st) > 0 {
		return sim.Decide(env, d.opts.Prov, st, d.opts.Sink)
	}
	if !d.rep.LastResort {
		d.rep.LastResort = true
		d.opts.logf("runtime: job %q engaging last-resort %s (restarts=%d/%d, slack=%.0fs)",
			env.Job.Name, env.LRC.Config.ID(), d.rep.Restarts, d.opts.RestartBudget, float64(env.Slack(st)))
	}
	dec, cs := lastResortDecision(env, st, d.opts.Sink)
	return dec, cs, nil
}

// lastResortDecision pins the deterministic §5 fallback configuration
// and emits the matching EvDecision — shared by the in-process driver
// and the dist driver, so both trajectories degrade identically when
// the restart budget or slack runs out. KeepCurrent derives from
// st.Current (nil once the deployment is torn down).
func lastResortDecision(env *core.Env, st core.State, sink obs.Sink) (core.Decision, *core.ConfigStats) {
	dec := core.Decision{
		Config:       env.LRC.Config,
		KeepCurrent:  st.Current != nil && st.Current.ID() == env.LRC.Config.ID(),
		ExpectedCost: env.LRCFinishCost(st.WorkLeft),
	}
	if sink != nil {
		sink.Emit(obs.Event{Type: obs.EvDecision, T: float64(st.Now), Job: env.Job.Name,
			Config:     dec.Config.ID(),
			ECUSD:      obs.Finite(float64(dec.ExpectedCost)),
			SlackSec:   obs.Finite(float64(env.Slack(st))),
			WorkLeft:   st.WorkLeft,
			Keep:       dec.KeepCurrent,
			LastResort: true,
		})
	}
	return dec, &env.LRC
}

// deploy tears down the current deployment (in-memory progress is
// lost), waits for market availability, boots the new configuration,
// reloads the newest durable checkpoint and re-clusters the
// micro-partitions for the new worker count. It returns the absolute
// next-eviction time of the fresh deployment.
func (d *driver) deploy(cs *core.ConfigStats) (units.Seconds, error) {
	d.snapLive = nil
	d.cur = nil
	d.rep.Reconfigs++
	env := d.opts.Env

	avail, err := env.Market.NextAvailable(cs.Config, d.t)
	if err != nil {
		return 0, err
	}

	// Durable reload: fetch the newest valid checkpoint (retried,
	// CRC-checked, fallback-scanned) and price the parallel
	// redistribution to the new workers with simnet. A fresh or
	// GC'd-empty namespace loads the input graph instead.
	workers := cs.Config.Count
	assign, err := d.opts.Part.VertexAssignment(workers)
	if err != nil {
		return 0, fmt.Errorf("runtime: re-cluster to %d workers: %w", workers, err)
	}
	d.assign = assign.Assign

	var ioLoad units.Seconds
	snap, fetch, lerr := d.opts.Manager.Load()
	switch {
	case lerr == nil:
		d.snapLive = snap
		ioLoad = fetch + d.reloadTime(workers)
	case errors.Is(lerr, engine.ErrNoCheckpoint):
		// Fresh start: the offline-partitioned input load, as profiled.
		ioLoad = cs.Load
	default:
		return 0, fmt.Errorf("runtime: checkpoint reload: %w", lerr)
	}
	d.rep.IOTime += ioLoad

	readyAt := avail + cs.Boot + ioLoad
	if err := d.spend(cs.Config, avail, readyAt); err != nil {
		return 0, err
	}
	doneSteps := 0
	if d.snapLive != nil {
		doneSteps = d.snapLive.Superstep
	}
	d.emit(obs.Event{Type: obs.EvDeploy, T: float64(d.t), Job: env.Job.Name,
		Config: cs.Config.ID(), WorkLeft: d.workLeft(doneSteps),
		DurSec: float64(readyAt - d.t), Reload: d.rep.Reconfigs > 1})
	d.t = readyAt
	d.cur = cs
	d.bootAt = readyAt
	return d.evictor.Next(cs.Config, readyAt), nil
}

// reloadTime prices the §6 fast reload: every worker pulls its blocks
// of the checkpoint from the datastore in parallel.
func (d *driver) reloadTime(workers int) units.Seconds {
	cluster, err := simnet.NewCluster(workers, d.opts.Net)
	if err != nil {
		d.opts.logf("runtime: reload pricing: %v", err)
		return 0
	}
	perWorker := make([]int64, workers)
	for _, w := range d.assign {
		perWorker[w]++
	}
	flows := make([]simnet.Flow, 0, workers)
	for w, vertices := range perWorker {
		flows = append(flows, simnet.Flow{Src: simnet.DatastoreNode, Dst: w,
			Bytes: vertices * d.opts.BytesPerVertex})
	}
	return cluster.SimulateFlows(flows)
}

// planSteps bounds the next engine segment in supersteps: remaining
// work, capped by the checkpoint interval (when the provisioner wants
// checkpoints) and by the provisioner's planned useful interval.
func (d *driver) planSteps(dec core.Decision, cs *core.ConfigStats, secPerStep units.Seconds, doneSteps int) (segSteps int, checkpointing bool) {
	remSteps := d.opts.TotalSupersteps - doneSteps
	if remSteps < 1 {
		remSteps = 1
	}
	segSteps = remSteps
	if dec.UseCheckpoints {
		every := d.opts.CheckpointEvery
		if every <= 0 && !math.IsInf(float64(cs.Ckpt), 1) {
			every = int(float64(cs.Ckpt) / float64(secPerStep))
			if every < 1 {
				every = 1
			}
		}
		if every >= 1 {
			checkpointing = true
			if every < segSteps {
				segSteps = every
			}
		}
	}
	if dec.MaxRun > 0 {
		if cap := int(float64(dec.MaxRun) / float64(secPerStep)); cap < segSteps {
			if cap < 1 {
				cap = 1
			}
			segSteps = cap
		}
	}
	return segSteps, checkpointing
}

// segment runs one engine segment under the live deployment and folds
// its outcome into the report. It returns done=true when the job
// finished (successfully or not recoverable).
func (d *driver) segment(ctx context.Context, dec core.Decision, cs *core.ConfigStats, nextEvict units.Seconds) (bool, error) {
	env := d.opts.Env
	doneSteps := 0
	if d.snapLive != nil {
		doneSteps = d.snapLive.Superstep
	}
	secPerStep := units.Seconds(float64(cs.Exec) / float64(d.opts.TotalSupersteps))
	segSteps, checkpointing := d.planSteps(dec, cs, secPerStep, doneSteps)

	// How many supersteps fit before the eviction lands?
	stepsToEvict := math.MaxInt
	if !math.IsInf(float64(nextEvict), 1) {
		if ratio := float64(nextEvict-d.t) / float64(secPerStep); ratio < 1e12 {
			stepsToEvict = int(ratio)
		}
	}
	if stepsToEvict <= 0 {
		// Evicted before completing a single superstep.
		if err := d.spend(cs.Config, d.t, nextEvict); err != nil {
			return false, err
		}
		d.evict(nextEvict, cs, doneSteps)
		return false, nil
	}
	evictAfter := 0 // 0 = this segment is not interrupted
	if stepsToEvict < segSteps {
		evictAfter = stepsToEvict
	}

	res, runErr, wedged := d.runEngine(ctx, segSteps, evictAfter, cs)
	actual := res.Stats.Supersteps - doneSteps
	if actual < 0 {
		actual = 0
	}

	switch {
	case runErr == nil:
		return d.finish(res, cs, secPerStep, actual, nextEvict)

	case errors.Is(runErr, engine.ErrPaused):
		return false, d.checkpoint(res, cs, secPerStep, actual, nextEvict, checkpointing)

	case errors.Is(runErr, engine.ErrInterrupted):
		if ctx.Err() != nil {
			return false, fmt.Errorf("runtime: cancelled mid-segment: %w", ctx.Err())
		}
		if wedged {
			// Watchdog: charge the supersteps that did complete, then
			// tear down and reprovision from the last durable checkpoint.
			d.rep.WatchdogTrips++
			end := d.t + units.Seconds(float64(actual)*float64(secPerStep))
			if err := d.spend(cs.Config, d.t, end); err != nil {
				return false, err
			}
			d.opts.logf("runtime: job %q watchdog tripped on %s after superstep %d; redeploying",
				env.Job.Name, cs.Config.ID(), res.Stats.Supersteps)
			d.t = end
			d.rep.Restarts++
			d.snapLive = nil
			d.cur = nil
			return false, nil
		}
		// Injected eviction: the machines ran (and are billed) up to the
		// price crossing; in-memory progress since the last durable
		// checkpoint is lost.
		if err := d.spend(cs.Config, d.t, nextEvict); err != nil {
			return false, err
		}
		d.evict(nextEvict, cs, doneSteps)
		return false, nil

	default:
		return false, runErr
	}
}

// evict records an injected eviction at absolute time `at` and tears
// the deployment down.
func (d *driver) evict(at units.Seconds, cs *core.ConfigStats, doneSteps int) {
	d.t = at
	d.rep.Evictions++
	d.rep.Restarts++
	d.emit(obs.Event{Type: obs.EvEvict, T: float64(at), Job: d.opts.Env.Job.Name,
		Config: cs.Config.ID(), WorkLeft: d.workLeft(doneSteps)})
	d.snapLive = nil
	d.cur = nil
}

// finish handles a segment that completed the job: bill the compute,
// write the output (racing the eviction), clear the checkpoint
// namespace and report.
func (d *driver) finish(res engine.Result, cs *core.ConfigStats, secPerStep units.Seconds, actual int, nextEvict units.Seconds) (bool, error) {
	segEnd := d.t + units.Seconds(float64(actual)*float64(secPerStep))
	outEnd := segEnd + cs.Save
	if nextEvict < outEnd {
		// Evicted while computing the tail or writing the output: the
		// result never became durable.
		if err := d.spend(cs.Config, d.t, nextEvict); err != nil {
			return false, err
		}
		d.evict(nextEvict, cs, res.Stats.Supersteps-actual)
		return false, nil
	}
	if err := d.spend(cs.Config, d.t, outEnd); err != nil {
		return false, err
	}
	d.t = outEnd
	if cerr := d.opts.Manager.Clear(); cerr != nil {
		d.opts.logf("runtime: checkpoint GC for job %q incomplete: %v", d.opts.Manager.Job, cerr)
	}
	d.rep.Values = res.Values
	d.rep.Stats = res.Stats
	d.rep.Finished = true
	d.rep.Completion = d.t
	d.rep.MissedDeadline = d.t > d.deadline
	d.emit(obs.Event{Type: obs.EvDone, T: float64(d.t), Job: d.opts.Env.Job.Name,
		Config: cs.Config.ID(), Done: true,
		Missed: d.rep.MissedDeadline, USD: float64(d.rep.Cost)})
	return true, nil
}

// checkpoint handles a segment that paused mid-job: bill the compute,
// then try to make the snapshot durable, racing the eviction. A save
// that fails (store faults) keeps the in-memory snapshot and the old
// durable frontier; a save interrupted by the eviction loses both.
func (d *driver) checkpoint(res engine.Result, cs *core.ConfigStats, secPerStep units.Seconds, actual int, nextEvict units.Seconds, checkpointing bool) error {
	segEnd := d.t + units.Seconds(float64(actual)*float64(secPerStep))
	if !checkpointing {
		// The provisioner bounded the interval (MaxRun) without asking
		// for durability: bill the segment and go back for a decision
		// with the in-memory snapshot intact.
		if err := d.spend(cs.Config, d.t, segEnd); err != nil {
			return err
		}
		d.t = segEnd
		d.snapLive = res.Snapshot
		return nil
	}
	ioSave, serr := d.opts.Manager.Save(res.Snapshot)
	d.rep.IOTime += ioSave
	saveEnd := segEnd + ioSave
	if nextEvict < saveEnd {
		// Evicted mid-save: billed only up to the price crossing, the
		// checkpoint does not advance the durable frontier, and the
		// in-memory state is gone with the machines. (The blob may still
		// have landed; if a later reload finds it, all downstream
		// accounting derives from the actually-loaded superstep, so the
		// trajectory stays internally consistent — the race only ever
		// under-promises progress.)
		if err := d.spend(cs.Config, d.t, nextEvict); err != nil {
			return err
		}
		d.evict(nextEvict, cs, res.Snapshot.Superstep-actual)
		return nil
	}
	if err := d.spend(cs.Config, d.t, saveEnd); err != nil {
		return err
	}
	d.t = saveEnd
	d.snapLive = res.Snapshot
	if serr != nil {
		// Partial progress is billed (the failed uploads and backoff are
		// in ioSave) but the durable frontier stays put: a later
		// eviction rolls back further. The run itself continues on the
		// intact in-memory state.
		d.opts.logf("runtime: job %q checkpoint at superstep %d failed: %v",
			d.opts.Env.Job.Name, res.Snapshot.Superstep, serr)
		return nil
	}
	d.rep.Checkpoints++
	d.emit(obs.Event{Type: obs.EvCheckpoint, T: float64(d.t), Job: d.opts.Env.Job.Name,
		Config: cs.Config.ID(), WorkLeft: d.workLeft(res.Snapshot.Superstep)})
	return nil
}

// monitor is the engine sink of one segment: it forwards superstep
// events, feeds the watchdog and cancels the run at the eviction
// boundary. Emit is called synchronously at the engine's superstep
// barrier, so "cancel after N supersteps" is deterministic: the engine
// observes the cancellation before starting superstep N+1.
type monitor struct {
	forward    obs.Sink
	cancel     context.CancelFunc
	evictAfter int // cancel after this many supersteps (0 = never)
	feed       chan struct{}
	steps      atomic.Int64
	evicted    atomic.Bool
}

func (m *monitor) Emit(e obs.Event) {
	if m.forward != nil {
		m.forward.Emit(e)
	}
	if e.Type != obs.EvSuperstep {
		return
	}
	n := m.steps.Add(1)
	select {
	case m.feed <- struct{}{}:
	default:
	}
	if m.evictAfter > 0 && int(n) >= m.evictAfter {
		m.evicted.Store(true)
		m.cancel()
	}
}

// runEngine executes one segment, resuming from the in-memory snapshot
// when present. It reports wedged=true when the wall-clock watchdog —
// not the eviction schedule or the caller — cancelled the run.
func (d *driver) runEngine(ctx context.Context, segSteps, evictAfter int, cs *core.ConfigStats) (engine.Result, error, bool) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	mon := &monitor{forward: d.opts.Sink, cancel: cancel,
		evictAfter: evictAfter, feed: make(chan struct{}, 1)}

	stopAfter := segSteps
	remaining := d.opts.TotalSupersteps
	if d.snapLive != nil {
		remaining -= d.snapLive.Superstep
	}
	if stopAfter >= remaining {
		stopAfter = 0 // run to completion
	}
	cfg := engine.Config{
		Workers:       cs.Config.Count,
		Assign:        d.assign,
		StopAfter:     stopAfter,
		MaxSupersteps: d.opts.MaxSupersteps,
		Canonical:     d.opts.Canonical,
		Sink:          mon,
	}

	type outcome struct {
		res engine.Result
		err error
	}
	ch := make(chan outcome, 1)
	snap := d.snapLive
	go func() {
		prog := d.opts.NewProgram()
		var res engine.Result
		var err error
		if snap == nil {
			res, err = engine.RunCtx(runCtx, d.opts.Graph, prog, cfg)
		} else {
			res, err = engine.ResumeCtx(runCtx, d.opts.Graph, prog, snap, cfg)
		}
		ch <- outcome{res, err}
	}()

	wedged := false
	if d.opts.Watchdog > 0 {
	watch:
		for {
			timer := time.NewTimer(d.opts.Watchdog)
			select {
			case out := <-ch:
				timer.Stop()
				return out.res, out.err, false
			case <-mon.feed:
				timer.Stop() // superstep completed in time; re-arm
			case <-timer.C:
				wedged = true
				cancel()
				break watch
			}
		}
		// Give the cancelled engine a grace period to unwind; a Compute
		// stuck past it is abandoned (its goroutine parks on the
		// buffered channel and is collected when it eventually returns).
		select {
		case out := <-ch:
			if out.err == nil || errors.Is(out.err, engine.ErrPaused) {
				// The run actually finished while the watchdog fired —
				// take the result, it is sound.
				return out.res, out.err, false
			}
			return out.res, out.err, true
		case <-time.After(d.opts.WatchdogGrace):
			d.opts.logf("runtime: job %q abandoned a wedged engine goroutine (watchdog %v, grace %v)",
				d.opts.Env.Job.Name, d.opts.Watchdog, d.opts.WatchdogGrace)
			return engine.Result{}, engine.ErrInterrupted, true
		}
	}
	out := <-ch
	if mon.evicted.Load() && errors.Is(out.err, engine.ErrInterrupted) {
		return out.res, out.err, false
	}
	return out.res, out.err, wedged
}
