// Package runtime is the eviction-aware execution driver: it runs real
// engine.Programs under the seeded eviction process the trace-driven
// simulator (internal/sim) replays, closing the loop the paper defends
// end-to-end (§1, Figure 2) — eviction → re-provision → re-partition →
// resume at a different worker count → deadline met.
//
// The simulator jumps its sessions from boundary to boundary with no
// engine; Execute injects each eviction into a live engine run
// (engine.Execution) at a superstep barrier: the run is dropped with
// its in-memory state, the newest valid checkpoint is reloaded through
// engine.CheckpointManager, the slack-aware provisioner picks the next
// configuration given the remaining supersteps and remaining slack,
// micro-partitions are re-clustered for the new worker count
// (micro.Partitioning), and the run resumes under the new
// engine.Config.Workers. The reload is billed as the provisioner priced
// it: boot plus t_load, §6's fast reload included (or the fetch's
// transfer, when the store was slower), and what the store's faults
// cost the fetch on top. Once the restart
// budget is spent the driver falls back to the last-resort on-demand
// configuration, the paper's §5 guarantee.
//
// The run loop, the session and the decide / plan / deploy / bill /
// evict accounting are internal/loop's, shared with ExecuteDist and the
// simulator: every executor runs the same session over its deployment,
// bills its I/O at one price and closes each plan boundary at the same
// barrier. This file holds what only the in-process substrate needs:
// the checkpoint reload, the re-cluster, and the pump that steps the
// engine under the watchdog and saves its barriers.
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
	"time"

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/engine"
	"hourglass/internal/graph"
	"hourglass/internal/loop"
	"hourglass/internal/micro"
	"hourglass/internal/obs"
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
	// store may be fault-injected: a save is billed t_save and a reload
	// t_load, or the transfer when the store was slower, and what the
	// store's faults cost either (retry backoff, failed attempts) is
	// billed as I/O on top.
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
	// (0 = disabled). A cancelled superstep that does not unwind within
	// a further 100 ms grace is abandoned on its goroutine.
	Watchdog time.Duration
	// Canonical forces order-invariant reductions so final values are
	// bit-identical across any worker-count trajectory (see
	// engine.Config.Canonical). Required for programs with aggregators
	// or order-sensitive message folds to survive reconfiguration
	// bit-exactly; engine.ExactCombiner programs (all the bundled
	// combiner programs) keep sender-side combining under it, the rest
	// pay one inbox sort per vertex.
	Canonical bool
	// Sink also receives the event stream the Report is folded from:
	// EvDecision per provisioner consultation, EvSpend per billing
	// charge in accumulation order (with its I/O seconds),
	// EvDeploy/EvEvict/EvWatchdog/EvCheckpoint lifecycle markers,
	// EvSuperstep per engine superstep and a final EvDone. Nil disables
	// tracing; the Report is the same either way.
	Sink obs.Sink
	// Logf receives non-fatal diagnostics (nil = standard logger).
	Logf func(format string, args ...any)
}

// Report is the outcome of one eviction-aware execution: the fold of
// its event stream (obs.Summary) — cost, evictions, restarts,
// checkpoints, recovery and I/O time, the deadline verdict — and the
// job's output. The driver keeps no other ledger: every number in the
// fold arrives as an event, so obs.Summarize over a recorded trace
// reproduces it bit for bit. RecoveryTime totals the wait + boot + load
// span of every deploy that resumes a durable checkpoint — after an
// eviction, a shard loss, a watchdog trip or a move to another
// configuration; fresh starts and warm cutovers (whose boot and
// prefetch overlapped the warning window) count nothing, so on a fixed
// trace warm recovery is strictly cheaper than cold whenever a cutover
// lands.
type Report struct {
	obs.Summary
	// Values are the final vertex values (nil when the run did not
	// finish).
	Values []float64
	// Stats are the engine stats of the final deployment.
	Stats engine.Stats
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

// watchdogGrace is how long a cancelled engine superstep may take to
// acknowledge the watchdog before the driver abandons its goroutine.
const watchdogGrace = 100 * time.Millisecond

// output is the job output of a substrate's last completed session,
// reported once the loop has made it durable.
type output struct {
	values []float64
	stats  engine.Stats
}

func (o output) report(sum obs.Summary) Report {
	rep := Report{Summary: sum}
	if sum.Finished {
		rep.Values, rep.Stats = o.values, o.stats
	}
	return rep
}

// driver is the in-process substrate of one Execute call.
type driver struct {
	*loop.Loop
	opts *Options
	out  output

	snap *engine.Snapshot // the checkpoint frontier loaded (nil = none)
}

// Execute runs the program to completion under injected evictions,
// starting at virtual time start with an absolute deadline. The
// returned Report is meaningful even alongside an error: it carries
// the spend and I/O accumulated before the failure.
func Execute(ctx context.Context, opts Options, start, deadline units.Seconds) (Report, error) {
	if err := opts.validate(); err != nil {
		return Report{}, err
	}
	d := &driver{opts: &opts, Loop: &loop.Loop{Env: opts.Env, Prov: opts.Prov, Sink: opts.Sink, Log: opts.Logf,
		Total: opts.TotalSupersteps, Every: opts.CheckpointEvery, RestartBudget: opts.RestartBudget}}
	sum, err := d.Drive(ctx, d, start, deadline)
	return d.out.report(sum), err
}

// Frontier implements loop.Substrate: the newest valid checkpoint —
// fetched with retries, CRC-checked and fallback-scanned by the manager
// — or, in a fresh or GC'd-empty namespace, none; and what the fetch
// took on the store.
func (d *driver) Frontier() (int, cloud.StoreTime, error) {
	snap, read, err := d.opts.Manager.Load()
	if err != nil && !errors.Is(err, ckpt.ErrNoCheckpoint) {
		return 0, read, fmt.Errorf("runtime: checkpoint reload: %w", err)
	}
	d.snap = snap
	if snap == nil {
		return 0, read, nil
	}
	return snap.Superstep, read, nil
}

// Clear implements loop.Substrate.
func (d *driver) Clear() error { return d.opts.Manager.Clear() }

// Run implements loop.Substrate: it re-clusters the micro-partitions
// for the deployment's worker count, starts an engine run from the
// durable frontier — or from the input graph — and pumps it. The
// deployment is billed already, so its EvDeploy goes out first, even
// when the re-cluster fails.
func (d *driver) Run(s *loop.Session, deploy obs.Event) error {
	d.Emit(deploy)
	workers := s.CS.Config.Count
	assign, err := d.opts.Part.VertexAssignment(workers)
	if err != nil {
		return fmt.Errorf("runtime: re-cluster to %d workers: %w", workers, err)
	}
	runCtx, cancel := context.WithCancel(s.Ctx)
	defer cancel()
	s.Cancel = cancel
	last := &lastStep{}
	cfg := engine.Config{
		Workers:   workers,
		Assign:    assign.Assign,
		Canonical: d.opts.Canonical,
		Sink:      last,
	}
	var x *engine.Execution
	if d.snap == nil {
		x, err = engine.Start(runCtx, d.opts.Graph, d.opts.NewProgram(), cfg)
	} else {
		x, err = engine.StartFrom(runCtx, d.opts.Graph, d.opts.NewProgram(), d.snap, cfg)
	}
	if err != nil {
		return err
	}
	return d.pump(s, x, last, cancel)
}

// pump steps x one superstep at a time and feeds each barrier to s on
// this goroutine, as the dist coordinator does: the superstep's
// EvSuperstep, then — when the job continues past the barrier —
// CheckpointAt, and the save it asks for. It keeps the job's output
// once x is quiescent, and nothing once s stops.
func (d *driver) pump(s *loop.Session, x *engine.Execution, last *lastStep, cancel context.CancelFunc) error {
	for {
		out, tripped := d.step(x, last, cancel)
		if out.ev != nil {
			s.Emit(*out.ev)
		}
		switch {
		case s.Stopped:
			return nil
		case out.err == nil && !out.more:
			res := x.Result()
			d.out = output{res.Values, res.Stats}
			return nil
		case tripped:
			// Charge the supersteps that did complete, then reprovision
			// from the last durable checkpoint.
			d.Logf("runtime: job %q watchdog tripped on %s after superstep %d; redeploying",
				d.Env.Job.Name, s.CS.Config.ID(), s.Done)
			_, err := d.BillUntil(s.CS, d.SegEnd(s.CS, s.Done-s.Billed), loop.Never, 0, 0)
			d.Emit(obs.Event{Type: obs.EvWatchdog, T: float64(d.T), Job: d.Env.Job.Name,
				Config: s.CS.Config.ID(), WorkLeft: d.WorkLeft(s.Durable)})
			s.Stop(true, err)
			return nil
		case out.err != nil:
			return out.err
		}
		if s.CheckpointAt(s.Done) {
			d.save(s, x, s.Done)
		}
		if s.Stopped {
			return nil
		}
	}
}

// save makes the barrier n of the live run durable and closes the
// plan's boundary there, billed against t_save with what the write took
// on the store. A save that fails (store faults) is billed the same way, and
// the durable frontier stays put: a later eviction rolls back further,
// while the run itself continues on its intact in-memory state.
func (d *driver) save(s *loop.Session, x *engine.Execution, n int) {
	write, err := d.opts.Manager.Save(x.Snapshot())
	if err != nil {
		d.Logf("runtime: job %q checkpoint at superstep %d failed: %v", d.Env.Job.Name, n, err)
	}
	s.Save(n, write, err == nil)
}

// stepped is the outcome of one Step: the EvSuperstep of the superstep
// it ran (nil = none), and Step's results.
type stepped struct {
	ev   *obs.Event
	more bool
	err  error
}

// lastStep is a live run's engine sink: it keeps the EvSuperstep of the
// superstep being stepped, which the stepping goroutine hands over with
// the outcome.
type lastStep struct{ ev *obs.Event }

func (k *lastStep) Emit(e obs.Event) { k.ev = &e }

func (k *lastStep) step(x *engine.Execution) stepped {
	k.ev = nil
	more, err := x.Step()
	return stepped{k.ev, more, err}
}

// step runs one superstep of x under the wall-clock watchdog, which
// bounds how long it may take: one that overstays the watchdog is
// cancelled, and tripped reports it. A cancelled superstep that does
// not unwind within the grace period is abandoned on its goroutine,
// which then only ever touches x, last and its own channel — never the
// loop.
func (d *driver) step(x *engine.Execution, last *lastStep, cancel context.CancelFunc) (out stepped, tripped bool) {
	if d.opts.Watchdog <= 0 {
		return last.step(x), false
	}
	ch := make(chan stepped, 1)
	go func() { ch <- last.step(x) }()
	timer := time.NewTimer(d.opts.Watchdog)
	defer timer.Stop()
	select {
	case out = <-ch:
		return out, false
	case <-timer.C:
	}
	cancel()
	select {
	case out = <-ch:
		return out, true
	case <-time.After(watchdogGrace):
		d.Logf("runtime: job %q abandoned a wedged engine goroutine (watchdog %v, grace %v)",
			d.Env.Job.Name, d.opts.Watchdog, watchdogGrace)
		return stepped{err: engine.ErrInterrupted}, true
	}
}
