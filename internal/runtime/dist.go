// Runtime-driven distributed clusters: ExecuteDist is Execute's
// sibling for the multi-process BSP engine (internal/dist). Where
// Execute abandons an in-process engine segment and Resumes from an
// engine checkpoint, ExecuteDist tears down a whole process set — an
// eviction or re-decision cancels the segment context, which unwinds
// the coordinator at its next barrier wait and every shard worker at
// its next frame wait or inbox drain — then re-decides the worker
// count and boots a *new* process set that resumes from the per-shard
// checkpoint blobs at the new shard count. Decisions, deploy billing,
// eviction races, the last-resort fallback and the finish are the
// driver core in loop.go, the same code Execute runs; this file holds
// only the dist substrate — launchers, the coordinator session and the
// durable frontier read off sealed checkpoints — with warm standby in
// standby.go. The dist plan is the one place the two drivers still
// decide differently; distDriver.segment documents how.
//
// Process sets come from a DistLauncher: LoopbackLauncher runs shards
// as goroutines in this process (unit tests, one-machine deployments),
// ProcessLauncher execs real hourglass-shard worker processes
// (integration; a killed process is indistinguishable from a spot
// eviction). Either way the driver never keeps a deployment across a
// decision point — with the workers gone, KeepCurrent has nothing to
// keep, so every decision is a fresh boot billed like one.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os/exec"
	"strings"
	"sync"
	"time"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/dist"
	"hourglass/internal/obs"
	"hourglass/internal/simnet"
	"hourglass/internal/units"
)

// WorkerSet is one booted set of shard workers. IDs are stable
// per-worker identities ("goroutine:0.2", "pid:4711") that the driver
// stamps into EvDeploy and EvShardEvict events, tying the virtual
// trajectory to real process lifecycles.
type WorkerSet interface {
	// IDs returns one identity per worker, indexed by shard id.
	IDs() []string
	// Stop tears the set down (idempotent; cancelling the launch
	// context has the same effect).
	Stop()
	// Wait blocks until every worker has exited.
	Wait()
}

// DistLauncher boots worker sets for the dist driver. Launch is called
// once per deployment with the coordinator address the workers must
// dial, the worker count this deployment runs at, and the 0-based
// deployment number (the chaos seam: tests key fault injection off
// attempt/shard). Workers must exit when ctx is cancelled.
type DistLauncher interface {
	Launch(ctx context.Context, addr string, shards, attempt int) (WorkerSet, error)
}

// WarningSource is an optional DistLauncher extension: a launcher that
// knows a worker of deployment `attempt` is scheduled to die (a chaos
// -die-at injection, a cloud rebalance notice) reports the absolute
// superstep the death lands in, so the driver can arm a warm standby
// for real worker losses exactly like forecast market evictions.
// Return 0 for "no scheduled death".
type WarningSource interface {
	DeathWarning(attempt int) int
}

// StandbyLauncher is an optional DistLauncher extension: the driver
// boots warm-standby worker sets through it so the workers prefetch the
// job's newest checkpoint chain (dist.ShardOptions.PrefetchJob) while
// the primary session is still running. Launchers without it still get
// warm boots, just cold first reads.
type StandbyLauncher interface {
	LaunchStandby(ctx context.Context, addr string, shards, attempt int, prefetchJob string) (WorkerSet, error)
}

// LoopbackLauncher runs shard workers as goroutines in this process,
// connected to the coordinator over loopback TCP — real wire frames
// and real checkpoint blobs, no process overhead.
type LoopbackLauncher struct {
	// Store holds the shards' checkpoint blobs (required; must be the
	// store the coordinator seals manifests in).
	Store cloud.BlobStore
	// ShardOpts, when non-nil, supplies per-shard options per
	// deployment — the chaos hooks. A zero Store inherits the
	// launcher's.
	ShardOpts func(attempt, shard int) dist.ShardOptions
	// Logf receives per-shard session diagnostics (nil = discard).
	Logf func(format string, args ...any)
	// DeathAt, when non-nil, forewarns the driver of scheduled worker
	// deaths: it reports the absolute superstep a worker of the given
	// deployment will die at (0 = none). Tests wire it to the same
	// schedule their ShardOpts chaos hook injects.
	DeathAt func(attempt int) int
}

// Launch implements DistLauncher.
func (l *LoopbackLauncher) Launch(ctx context.Context, addr string, shards, attempt int) (WorkerSet, error) {
	return l.launch(ctx, addr, shards, attempt, "")
}

// LaunchStandby implements StandbyLauncher.
func (l *LoopbackLauncher) LaunchStandby(ctx context.Context, addr string, shards, attempt int, prefetchJob string) (WorkerSet, error) {
	return l.launch(ctx, addr, shards, attempt, prefetchJob)
}

// DeathWarning implements WarningSource.
func (l *LoopbackLauncher) DeathWarning(attempt int) int {
	if l.DeathAt == nil {
		return 0
	}
	return l.DeathAt(attempt)
}

func (l *LoopbackLauncher) launch(ctx context.Context, addr string, shards, attempt int, prefetchJob string) (WorkerSet, error) {
	wctx, cancel := context.WithCancel(ctx)
	ws := &loopbackSet{cancel: cancel, ids: make([]string, shards)}
	for i := 0; i < shards; i++ {
		opts := dist.ShardOptions{Store: l.Store}
		if l.ShardOpts != nil {
			opts = l.ShardOpts(attempt, i)
			if opts.Store == nil {
				opts.Store = l.Store
			}
		}
		if opts.PrefetchJob == "" {
			opts.PrefetchJob = prefetchJob
		}
		ws.ids[i] = fmt.Sprintf("goroutine:%d.%d", attempt, i)
		// The worker announces its identity in the hello: the
		// coordinator assigns shard ids by accept order, so loss events
		// can only be attributed by the worker naming itself.
		if opts.Proc == "" {
			opts.Proc = ws.ids[i]
		}
		ws.wg.Add(1)
		go func() {
			defer ws.wg.Done()
			// Session errors surface coordinator-side (as shard loss);
			// the shard's own view is diagnostics only.
			if err := dist.Dial(wctx, addr, opts); err != nil && l.Logf != nil {
				l.Logf("runtime: loopback shard: %v", err)
			}
		}()
	}
	return ws, nil
}

type loopbackSet struct {
	ids    []string
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func (s *loopbackSet) IDs() []string { return s.ids }
func (s *loopbackSet) Stop()         { s.cancel() }
func (s *loopbackSet) Wait()         { s.wg.Wait() }

// ProcessLauncher boots real hourglass-shard OS processes in -once
// mode, sharing checkpoints through a cloud.FSStore directory. Workers
// die with the launch context (SIGKILL via exec.CommandContext), so a
// cancelled or evicted segment leaves no process behind.
type ProcessLauncher struct {
	// Bin is the hourglass-shard binary path (required).
	Bin string
	// StoreDir is the checkpoint directory passed as -store; it must
	// back the same files as the driver's Store (required).
	StoreDir string
	// ExtraArgs, when non-nil, appends per-worker flags — the chaos
	// seam for -die-at style fault injection.
	ExtraArgs func(attempt, shard int) []string
	// DeathAt, when non-nil, forewarns the driver of scheduled worker
	// deaths (see WarningSource); wire it to the schedule ExtraArgs
	// passes via -die-at.
	DeathAt func(attempt int) int
}

// Launch implements DistLauncher.
func (l *ProcessLauncher) Launch(ctx context.Context, addr string, shards, attempt int) (WorkerSet, error) {
	return l.launch(ctx, addr, shards, attempt, "")
}

// LaunchStandby implements StandbyLauncher: standby workers get
// -prefetch-job so they warm their blob cache before the handshake.
func (l *ProcessLauncher) LaunchStandby(ctx context.Context, addr string, shards, attempt int, prefetchJob string) (WorkerSet, error) {
	return l.launch(ctx, addr, shards, attempt, prefetchJob)
}

// DeathWarning implements WarningSource.
func (l *ProcessLauncher) DeathWarning(attempt int) int {
	if l.DeathAt == nil {
		return 0
	}
	return l.DeathAt(attempt)
}

func (l *ProcessLauncher) launch(ctx context.Context, addr string, shards, attempt int, prefetchJob string) (WorkerSet, error) {
	ws := &processSet{}
	for i := 0; i < shards; i++ {
		args := []string{"-coordinator", addr, "-store", l.StoreDir, "-once"}
		if prefetchJob != "" {
			args = append(args, "-prefetch-job", prefetchJob)
		}
		if l.ExtraArgs != nil {
			args = append(args, l.ExtraArgs(attempt, i)...)
		}
		cmd := exec.CommandContext(ctx, l.Bin, args...)
		if err := cmd.Start(); err != nil {
			ws.Stop()
			ws.Wait()
			return nil, fmt.Errorf("runtime: starting shard process %d of %d: %w", i, shards, err)
		}
		ws.cmds = append(ws.cmds, cmd)
		ws.ids = append(ws.ids, fmt.Sprintf("pid:%d", cmd.Process.Pid))
	}
	return ws, nil
}

type processSet struct {
	ids  []string
	cmds []*exec.Cmd
}

func (s *processSet) IDs() []string { return s.ids }

func (s *processSet) Stop() {
	for _, c := range s.cmds {
		if c.Process != nil {
			_ = c.Process.Kill()
		}
	}
}

func (s *processSet) Wait() {
	for _, c := range s.cmds {
		// A torn-down or chaos-killed -once worker exits nonzero by
		// design; all the driver needs is that it is gone.
		_ = c.Wait()
	}
}

// DistOptions configures one runtime-driven distributed execution.
type DistOptions struct {
	// Env supplies the configuration set, market, eviction traces and
	// per-config stats (required). A decision's Config.Count is the
	// worker count its process set boots with.
	Env *core.Env
	// Prov decides the configuration after every eviction and loss
	// (required).
	Prov core.Provisioner
	// Program and Graph are the specs every process instantiates
	// (required: Program.Name non-empty).
	Program dist.ProgramSpec
	Graph   dist.GraphSpec
	// Store holds per-shard checkpoint blobs and manifests (required).
	// It must be reachable by every worker the Launcher boots. A
	// checkpoint already in the Job namespace — a failed earlier run's —
	// is resumed as a recovery, the way Execute resumes its Manager's.
	Store cloud.BlobStore
	// Job namespaces the checkpoint keys in Store (required).
	Job string
	// Launcher boots the worker sets (required).
	Launcher DistLauncher
	// TotalSupersteps is the expected superstep count of an
	// uninterrupted run — the denominator of the work-left model
	// (required > 0).
	TotalSupersteps int

	// CheckpointEvery is the dist checkpoint interval in supersteps
	// (0 = 2). It applies to every session whatever the provisioner
	// decided: the dist plan ignores the decision's UseCheckpoints and
	// MaxRun, and bills no t_save for these cadence checkpoints (see
	// distDriver.segment). That is a gap, not a durability rule — it is
	// why ExecuteDist can run a spot set past its useful interval and
	// miss a deadline (finding 1 in bench/README.md).
	CheckpointEvery int
	// WarningWindow is the eviction advance notice: the driver learns
	// of an upcoming eviction (or scheduled worker death, see
	// WarningSource) WarningWindow virtual seconds early, arms a warm
	// standby cluster that boots and prefetches concurrently with the
	// doomed session, and — when the window fits a checkpoint save —
	// forces one final checkpoint at the eviction boundary so the
	// standby resumes within one superstep of it. 0 disables warm
	// standby (pure reactive recovery).
	WarningWindow units.Seconds
	// DeltaChain bounds the dist checkpoint delta chain: up to
	// DeltaChain consecutive delta checkpoints follow each full one
	// (0 = every checkpoint full).
	DeltaChain int
	// RestartBudget bounds evictions + losses before the driver pins
	// the last-resort configuration (0 = 8).
	RestartBudget int
	// MaxDecisions guards against livelock (0 = 10_000).
	MaxDecisions int
	// BarrierTimeout is the coordinator's watchdog window; ctx
	// cancellation also resolves within it (0 = the dist default).
	BarrierTimeout time.Duration
	// MaxSupersteps aborts runaway sessions (0 = dist default).
	MaxSupersteps int
	// BytesPerVertex sizes the parallel checkpoint reload flows priced
	// by simnet (0 = 64).
	BytesPerVertex int64
	// Net shapes the reload network (zero value = simnet.DefaultConfig).
	Net simnet.Config
	// Sink receives the structured event stream; EvDeploy and
	// EvShardEvict carry worker process identity in Proc. Nil disables
	// tracing.
	Sink obs.Sink
	// Logf receives non-fatal diagnostics (nil = standard logger).
	Logf func(format string, args ...any)
}

func (o *DistOptions) validate() error {
	switch {
	case o.Env == nil:
		return errors.New("runtime: nil Env")
	case o.Prov == nil:
		return errors.New("runtime: nil Prov")
	case o.Program.Name == "":
		return errors.New("runtime: empty Program.Name")
	case o.Store == nil:
		return errors.New("runtime: nil Store")
	case o.Job == "":
		return errors.New("runtime: empty Job")
	case o.Launcher == nil:
		return errors.New("runtime: nil Launcher")
	case o.TotalSupersteps <= 0:
		return fmt.Errorf("runtime: TotalSupersteps = %d", o.TotalSupersteps)
	}
	return nil
}

// ExecuteDist drives the distributed program to completion under
// injected evictions and real worker losses, starting at virtual time
// start with an absolute deadline. Cancelling ctx stops the live
// cluster — coordinator and every worker — within BarrierTimeout. The
// returned Report is meaningful even alongside an error: it carries
// the spend, I/O and deployment history accumulated before the
// failure.
func ExecuteDist(ctx context.Context, opts DistOptions, start, deadline units.Seconds) (Report, error) {
	if err := opts.validate(); err != nil {
		return Report{}, err
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 2
	}
	d := &distDriver{opts: &opts, loop: newLoop(loop{env: opts.Env, prov: opts.Prov,
		sink: opts.Sink, logger: opts.Logf, total: opts.TotalSupersteps,
		restartBudget: opts.RestartBudget, maxDecisions: opts.MaxDecisions,
		bytesPerVertex: opts.BytesPerVertex, net: opts.Net}, start, deadline),
		durable: dist.LatestCheckpoint(opts.Store, opts.Job)}
	return d.run(ctx)
}

// distDriver carries the mutable state of one ExecuteDist call.
type distDriver struct {
	*loop
	opts    *DistOptions
	durable int // newest durable checkpoint superstep (0 = none)

	// pending is a warm standby adopted at the last eviction: the next
	// run-loop iteration runs its session over the pre-booted listener
	// and worker set instead of deciding and deploying afresh.
	pending *standbyState
}

func (d *distDriver) run(ctx context.Context) (Report, error) {
	for attempt := 0; ; attempt++ {
		sb := d.pending
		d.pending = nil
		var cs *core.ConfigStats
		var err error
		if sb != nil {
			// Warm cutover: the decision was made at the warning (and
			// counted there), the set is booted and prefetched — go
			// straight to the session.
			if cs, err = sb.cs, d.guard(ctx); err != nil {
				d.teardownStandby(sb)
			}
		} else {
			// No live deployment survives a dist decision point (the
			// process set is gone), so Current is always nil and every
			// decision boots fresh. The rest of the decision is dropped;
			// segment says which parts and why.
			_, cs, err = d.decide(ctx, core.State{Now: d.t, WorkLeft: d.workLeft(d.durable),
				Deadline: d.deadline})
		}
		if err != nil {
			return d.rep, err
		}
		done, err := d.segment(ctx, cs, attempt, sb)
		if err != nil || done {
			return d.rep, err
		}
	}
}

// evenSplit is the dist plane's per-worker vertex count: shards own
// vertices round-robin, so shares are even to within one vertex.
func (d *distDriver) evenSplit(workers int) []int64 {
	vertices := int64(1) << d.opts.Graph.Scale
	perWorker := make([]int64, workers)
	for w := range perWorker {
		perWorker[w] = vertices / int64(workers)
		if int64(w) < vertices%int64(workers) {
			perWorker[w]++
		}
	}
	return perWorker
}

// segment runs one dist session under cs, folding the outcome into the
// report. With warm == nil it boots a fresh process set (billing wait +
// boot + load); with a warm standby it adopts the pre-booted listener
// and worker set at zero additional downtime. It returns done=true when
// the job finished (successfully or not recoverably).
func (d *distDriver) segment(ctx context.Context, cs *core.ConfigStats, attempt int, warm *standbyState) (bool, error) {
	var deploy obs.Event
	if warm == nil {
		var err error
		if deploy, err = d.deploy(cs, d.durable > 0, 0, d.evenSplit(cs.Config.Count), d.durable); err != nil {
			return false, err
		}
	} else {
		// A warm cutover's boot and reload were paid inside the warning
		// window, overlapped with the doomed session: the standby was
		// billed through the eviction instant at adoption and the clock
		// is already that instant, so the deploy span — the recovery
		// downtime — is zero.
		d.rep.Reconfigs++
		deploy = d.deployEvent(cs, d.t, d.durable, d.durable > 0)
	}
	d.rep.ShardCounts = append(d.rep.ShardCounts, cs.Config.Count)

	// The dist plan, the one place ExecuteDist still decides differently
	// from Execute (planSteps): the session runs every remaining
	// superstep on cs. It ignores the decision's MaxRun and
	// UseCheckpoints, seals a checkpoint every CheckpointEvery
	// supersteps regardless, and bills no t_save for those cadence
	// checkpoints. Running a transient configuration past its useful
	// interval is how ExecuteDist misses deadlines the simulator meets
	// (finding 1 in bench/README.md).
	remSteps := max(d.opts.TotalSupersteps-d.durable, 1)
	nextEvict := d.evictor.Next(cs.Config, d.t)
	evictAfter, evicted, err := d.forecast(cs, nextEvict, remSteps, d.durable)
	if evicted || err != nil {
		// Evicted before one superstep would complete: not worth running
		// the cluster at all.
		d.teardownStandby(warm)
		return false, err
	}
	secPerStep := d.stepTime(cs)
	mon := &monitor{forward: d.sink, evictAfter: evictAfter}
	forceCkptAt, sbArm := d.armStandby(ctx, mon, cs, attempt, evictAfter, remSteps, secPerStep, nextEvict)

	rep, runErr := d.session(ctx, cs, attempt, mon, forceCkptAt, deploy, warm)
	segEnd := d.t + units.Seconds(float64(mon.stepsDone())*float64(secPerStep))

	// If the warning fired, a standby orchestration goroutine ran (or is
	// still running) concurrently with the session; join it before
	// touching the report.
	var sb *standbyState
	if sbArm != nil && mon.warnFired() {
		<-sbArm.done
		sb = sbArm
	}
	// Whatever ended the session, its sealed checkpoints are durable.
	d.commitDurable(mon)

	at := nextEvict
	var lost *dist.ShardLostError
	switch {
	case runErr == nil:
		done, err := d.finish(cs, segEnd, nextEvict, d.durable, rep.Values, rep.Stats,
			func() error { return dist.ClearJob(d.opts.Store, d.opts.Job) })
		switch {
		case err != nil:
			d.teardownStandby(sb)
			return false, err
		case done:
			// The job finished under the doomed session after all; the
			// standby was insurance that never paid out.
			return true, d.discardStandby(sb, d.t)
		}
		// Evicted computing the tail or writing the output (finish
		// recorded the eviction at nextEvict): a ready standby still
		// takes over.
		return false, d.settleStandby(sb, nextEvict)
	case ctx.Err() != nil:
		d.teardownStandby(sb)
		return false, fmt.Errorf("runtime: dist run cancelled mid-session: %w", ctx.Err())
	case mon.tripped():
		// Injected eviction: the machines ran (and are billed) up to the
		// price crossing; progress past the durable frontier is gone with
		// the processes.
	case errors.As(runErr, &lost):
		// A worker actually died (chaos hook, killed process): bill the
		// supersteps that did complete, then go back around — the next
		// decision is free to pick a different worker count and the next
		// session resumes the blobs at that count. A forewarned death
		// (WarningSource) may have a standby ready.
		at = segEnd
	default:
		d.teardownStandby(sb)
		return false, runErr
	}
	if _, err := d.billUntil(cs, never, at, d.durable); err != nil {
		d.teardownStandby(sb)
		return false, err
	}
	return false, d.settleStandby(sb, at)
}

// session runs one coordinator session over a worker set — freshly
// launched, or adopted from a warm standby — and emits the deployment's
// EvDeploy, stamped with the worker identities, once the set is up.
// Whatever the outcome, the set is torn down and waited for before
// returning: the next deployment must never race a straggler from this
// one.
func (d *distDriver) session(ctx context.Context, cs *core.ConfigStats, attempt int, mon *monitor, forceCkptAt int, deploy obs.Event, warm *standbyState) (*dist.Report, error) {
	shards := cs.Config.Count
	segCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	mon.cancel = cancel
	var ln net.Listener
	var ws WorkerSet
	if warm != nil {
		ln, ws = warm.ln, warm.ws
		defer warm.cancel()
		defer ln.Close()
	} else {
		var err error
		ln, err = net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("runtime: dist coordinator listener: %w", err)
		}
		defer ln.Close()
		ws, err = d.opts.Launcher.Launch(segCtx, ln.Addr().String(), shards, attempt)
		if err != nil {
			return nil, fmt.Errorf("runtime: launching %d workers: %w", shards, err)
		}
	}
	deploy.Proc = strings.Join(ws.IDs(), ",")
	d.emit(deploy)
	cfg := dist.Config{
		Job:               d.opts.Job,
		Program:           d.opts.Program,
		Graph:             d.opts.Graph,
		Canonical:         true,
		CheckpointEvery:   d.opts.CheckpointEvery,
		DeltaChain:        d.opts.DeltaChain,
		ForceCheckpointAt: forceCkptAt,
		MaxSupersteps:     d.opts.MaxSupersteps,
		BarrierTimeout:    d.opts.BarrierTimeout,
		Store:             d.opts.Store,
		Sink:              mon,
		Logf:              d.opts.Logf,
	}
	rep, runErr := dist.AcceptAndRun(segCtx, ln, shards, cfg)
	cancel()
	ws.Stop()
	ws.Wait()
	return rep, runErr
}

// commitDurable folds a session's checkpoint progress into the driver:
// the durable frontier only ever advances (a later session resuming an
// older manifest would have found the newer one first).
func (d *distDriver) commitDurable(mon *monitor) {
	durable, ckpts := mon.progress()
	d.rep.Checkpoints += ckpts
	d.durable = max(d.durable, durable)
}
