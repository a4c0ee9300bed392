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
// The decide / deploy / bill / evict accounting is the driver core in
// loop.go, shared with ExecuteDist; this file holds what only the
// in-process substrate needs: the engine run and resume, the segment
// plan, checkpoint saves, the watchdog and the snapshot a KeepCurrent
// decision keeps.
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
	"math"
	"time"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/engine"
	"hourglass/internal/graph"
	"hourglass/internal/micro"
	"hourglass/internal/obs"
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
	// RecoveryTime totals the wait + boot + load span of every deploy
	// that resumes from a durable checkpoint — the downtime of recovering
	// from an eviction, a shard loss, a watchdog trip or a move to
	// another configuration. Fresh starts count nothing, and neither do
	// warm cutovers — their boot and prefetch overlapped the warning
	// window — so on a fixed trace warm recovery is strictly cheaper
	// than cold whenever at least one cutover lands.
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

// driver carries the mutable state of one Execute call.
type driver struct {
	*loop
	opts *Options

	cur      *core.ConfigStats // live deployment (nil = none)
	bootAt   units.Seconds     // uptime anchor of cur
	assign   []int32           // vertex→worker map of cur
	snapLive *engine.Snapshot  // in-memory snapshot (survives KeepCurrent only)
}

// Execute runs the program to completion under injected evictions,
// starting at virtual time start with an absolute deadline. The
// returned Report is meaningful even alongside an error: it carries
// the spend and I/O accumulated before the failure.
func Execute(ctx context.Context, opts Options, start, deadline units.Seconds) (Report, error) {
	if err := opts.validate(); err != nil {
		return Report{}, err
	}
	if opts.WatchdogGrace <= 0 {
		opts.WatchdogGrace = 100 * time.Millisecond
	}
	d := &driver{opts: &opts, loop: newLoop(loop{env: opts.Env, prov: opts.Prov,
		sink: opts.Sink, logger: opts.Logf, total: opts.TotalSupersteps,
		restartBudget: opts.RestartBudget, maxDecisions: opts.MaxDecisions,
		bytesPerVertex: opts.BytesPerVertex, net: opts.Net}, start, deadline)}
	return d.run(ctx)
}

func (d *driver) run(ctx context.Context) (Report, error) {
	for {
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
		dec, cs, err := d.decide(ctx, core.State{Now: d.t, WorkLeft: d.workLeft(doneSteps),
			Deadline: d.deadline, Current: curCfg, Uptime: uptime})
		if err != nil {
			return d.rep, err
		}
		if d.cur == nil || !dec.KeepCurrent || d.cur.Config.ID() != cs.Config.ID() {
			if err := d.redeploy(cs); err != nil {
				return d.rep, err
			}
		}
		// Forecast the next eviction from now: a fresh deployment's from
		// its ready instant, a kept one's afresh, since prices moved on.
		done, err := d.segment(ctx, dec, cs, d.evictor.Next(cs.Config, d.t))
		if err != nil || done {
			return d.rep, err
		}
	}
}

// redeploy tears down the current deployment (in-memory progress is
// lost), re-clusters the micro-partitions for the new worker count and
// boots cs from the newest valid checkpoint — fetched with retries,
// CRC-checked and fallback-scanned by the manager, its redistribution
// to the new workers priced with simnet — or, in a fresh or GC'd-empty
// namespace, from the input graph.
func (d *driver) redeploy(cs *core.ConfigStats) error {
	d.snapLive, d.cur = nil, nil
	workers := cs.Config.Count
	assign, err := d.opts.Part.VertexAssignment(workers)
	if err != nil {
		return fmt.Errorf("runtime: re-cluster to %d workers: %w", workers, err)
	}
	d.assign = assign.Assign
	snap, fetch, lerr := d.opts.Manager.Load()
	if lerr != nil && !errors.Is(lerr, engine.ErrNoCheckpoint) {
		return fmt.Errorf("runtime: checkpoint reload: %w", lerr)
	}
	perWorker := make([]int64, workers)
	for _, w := range d.assign {
		perWorker[w]++
	}
	doneSteps := 0
	if snap != nil {
		doneSteps = snap.Superstep
	}
	ev, err := d.deploy(cs, snap != nil, fetch, perWorker, doneSteps)
	if err != nil {
		return err
	}
	d.emit(ev)
	d.snapLive, d.cur, d.bootAt = snap, cs, d.t
	return nil
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
	// The deployment and its in-memory snapshot outlive the segment only
	// when it pauses at a boundary (see checkpoint); an eviction, a
	// watchdog trip or completion leaves nothing to keep.
	snap := d.snapLive
	d.snapLive, d.cur = nil, nil
	doneSteps := 0
	if snap != nil {
		doneSteps = snap.Superstep
	}
	secPerStep := d.stepTime(cs)
	segSteps, checkpointing := d.planSteps(dec, cs, secPerStep, doneSteps)
	evictAfter, evicted, err := d.forecast(cs, nextEvict, segSteps, doneSteps)
	if evicted || err != nil {
		return false, err
	}

	res, runErr, wedged := d.runEngine(ctx, snap, segSteps, evictAfter, cs)
	actual := max(res.Stats.Supersteps-doneSteps, 0)
	segEnd := d.t + units.Seconds(float64(actual)*float64(secPerStep))
	switch {
	case runErr == nil:
		return d.finish(cs, segEnd, nextEvict, doneSteps, res.Values, res.Stats, d.opts.Manager.Clear)
	case errors.Is(runErr, engine.ErrPaused):
		return false, d.checkpoint(res.Snapshot, cs, segEnd, nextEvict, doneSteps, checkpointing)
	case !errors.Is(runErr, engine.ErrInterrupted):
		return false, runErr
	case ctx.Err() != nil:
		return false, fmt.Errorf("runtime: cancelled mid-segment: %w", ctx.Err())
	case wedged:
		// Watchdog: charge the supersteps that did complete, then
		// reprovision from the last durable checkpoint.
		d.rep.WatchdogTrips++
		if _, err := d.billUntil(cs, segEnd, never, 0); err != nil {
			return false, err
		}
		d.logf("runtime: job %q watchdog tripped on %s after superstep %d; redeploying",
			d.env.Job.Name, cs.Config.ID(), res.Stats.Supersteps)
		d.rep.Restarts++
		return false, nil
	}
	// Injected eviction: the machines ran (and are billed) up to the
	// price crossing; in-memory progress since the last durable
	// checkpoint is lost.
	_, err = d.billUntil(cs, never, nextEvict, doneSteps)
	return false, err
}

// checkpoint handles a segment that paused mid-job at segEnd and keeps
// the deployment for the next decision. When the provisioner asked for
// durability it tries to make the snapshot durable, racing the
// eviction: a save that fails (store faults) keeps the in-memory
// snapshot and the old durable frontier; a save interrupted by the
// eviction loses both.
func (d *driver) checkpoint(snap *engine.Snapshot, cs *core.ConfigStats, segEnd, nextEvict units.Seconds, doneSteps int, checkpointing bool) error {
	if !checkpointing {
		// The provisioner bounded the interval (MaxRun) without asking
		// for durability: bill the segment and go back for a decision
		// with the in-memory snapshot intact.
		d.snapLive, d.cur = snap, cs
		_, err := d.billUntil(cs, segEnd, never, 0)
		return err
	}
	ioSave, serr := d.opts.Manager.Save(snap)
	d.rep.IOTime += ioSave
	// Evicted mid-save: billed only up to the price crossing, the
	// checkpoint does not advance the durable frontier, and the
	// in-memory state is gone with the machines. (The blob may still
	// have landed; if a later reload finds it, all downstream accounting
	// derives from the actually-loaded superstep, so the trajectory
	// stays internally consistent — the race only ever under-promises
	// progress.)
	if evicted, err := d.billUntil(cs, segEnd+ioSave, nextEvict, doneSteps); err != nil || evicted {
		return err
	}
	d.snapLive, d.cur = snap, cs
	if serr != nil {
		// Partial progress is billed (the failed uploads and backoff are
		// in ioSave) but the durable frontier stays put: a later
		// eviction rolls back further. The run itself continues on the
		// intact in-memory state.
		d.logf("runtime: job %q checkpoint at superstep %d failed: %v", d.env.Job.Name, snap.Superstep, serr)
		return nil
	}
	d.rep.Checkpoints++
	d.emit(obs.Event{Type: obs.EvCheckpoint, T: float64(d.t), Job: d.env.Job.Name,
		Config: cs.Config.ID(), WorkLeft: d.workLeft(snap.Superstep)})
	return nil
}

// runEngine executes one segment, resuming from snap when present. It
// reports wedged=true when the wall-clock watchdog — not the eviction
// schedule or the caller — cancelled the run.
func (d *driver) runEngine(ctx context.Context, snap *engine.Snapshot, segSteps, evictAfter int, cs *core.ConfigStats) (engine.Result, error, bool) {
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	mon := &monitor{forward: d.sink, cancel: cancel,
		evictAfter: evictAfter, feed: make(chan struct{}, 1)}

	stopAfter := segSteps
	remaining := d.opts.TotalSupersteps
	if snap != nil {
		remaining -= snap.Superstep
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
			d.logf("runtime: job %q abandoned a wedged engine goroutine (watchdog %v, grace %v)",
				d.env.Job.Name, d.opts.Watchdog, d.opts.WatchdogGrace)
			return engine.Result{}, engine.ErrInterrupted, true
		}
	}
	out := <-ch
	if mon.tripped() && errors.Is(out.err, engine.ErrInterrupted) {
		return out.res, out.err, false
	}
	return out.res, out.err, wedged
}
