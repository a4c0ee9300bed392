// Runtime-driven distributed clusters: ExecuteDist is Execute's
// sibling for the multi-process BSP engine (internal/dist). Where
// Execute steps an in-process engine run, ExecuteDist runs a whole
// process set — an eviction or re-decision cancels the session
// context, which unwinds the coordinator at its next barrier wait and
// every shard worker at its next frame wait or inbox drain — then
// re-decides the worker count and boots a *new* process set that
// resumes from the per-shard checkpoint blobs at the new shard count.
// The run loop, the session and its plan boundaries, deploy and
// boundary billing, eviction races, the last-resort fallback and the
// finish are internal/loop's, the same code Execute and the simulator
// run; this file holds only the dist substrate — launchers and the
// coordinator session that feeds the session its barriers — with warm
// standby in standby.go.
//
// Process sets come from a DistLauncher: LoopbackLauncher runs shards
// as goroutines in this process (unit tests, one-machine deployments),
// ProcessLauncher execs real hourglass-shard worker processes
// (integration; a killed process is indistinguishable from a spot
// eviction).
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

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/dist"
	"hourglass/internal/loop"
	"hourglass/internal/obs"
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
// dial, the worker count this deployment runs at, the 0-based
// deployment number (the chaos seam: tests key fault injection off
// attempt/shard) and, for a warm standby, the job whose newest
// checkpoint chain the workers prefetch while the primary session is
// still running (dist.ShardOptions.PrefetchJob; "" = none). Workers
// must exit when ctx is cancelled.
//
// DeathWarning reports the absolute superstep a worker of deployment
// attempt is scheduled to die in (a chaos -die-at injection, a cloud
// rebalance notice), so the driver can arm a warm standby for real
// worker losses exactly like forecast market evictions; 0 = none.
type DistLauncher interface {
	Launch(ctx context.Context, addr string, shards, attempt int, prefetchJob string) (WorkerSet, error)
	DeathWarning(attempt int) int
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

// DeathWarning implements DistLauncher.
func (l *LoopbackLauncher) DeathWarning(attempt int) int { return deathWarning(l.DeathAt, attempt) }

func deathWarning(deathAt func(attempt int) int, attempt int) int {
	if deathAt == nil {
		return 0
	}
	return deathAt(attempt)
}

// Launch implements DistLauncher.
func (l *LoopbackLauncher) Launch(ctx context.Context, addr string, shards, attempt int, prefetchJob string) (WorkerSet, error) {
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
	// deaths (see DistLauncher); wire it to the schedule ExtraArgs
	// passes via -die-at.
	DeathAt func(attempt int) int
}

// DeathWarning implements DistLauncher.
func (l *ProcessLauncher) DeathWarning(attempt int) int { return deathWarning(l.DeathAt, attempt) }

// Launch implements DistLauncher: standby workers get -prefetch-job so
// they warm their blob cache before the handshake.
func (l *ProcessLauncher) Launch(ctx context.Context, addr string, shards, attempt int, prefetchJob string) (WorkerSet, error) {
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
	// Prov decides the configuration after every eviction, loss and
	// checkpoint boundary (required).
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

	// CheckpointEvery checkpoints after this many supersteps when the
	// provisioner asks for checkpointing (0 = derive from the config's
	// Daly interval), exactly as Options.CheckpointEvery: both drivers
	// follow one plan (see loop.plan).
	CheckpointEvery int
	// WarningWindow is the eviction advance notice: the driver learns
	// of an upcoming eviction (or scheduled worker death, see
	// DistLauncher) WarningWindow virtual seconds early, arms a warm
	// standby cluster that boots and prefetches concurrently with the
	// doomed session, and — when the window fits a checkpoint save —
	// forces one final checkpoint at the eviction boundary so the
	// standby resumes within one superstep of it (the loop's §9 rule,
	// loop.Loop.Warning). 0 disables warm standby (pure reactive
	// recovery).
	WarningWindow units.Seconds
	// DeltaChain bounds the dist checkpoint delta chain: up to
	// DeltaChain consecutive delta checkpoints follow each full one
	// (0 = every checkpoint full).
	DeltaChain int
	// RestartBudget bounds evictions + losses before the driver pins
	// the last-resort configuration (0 = 8).
	RestartBudget int
	// BarrierTimeout is the coordinator's watchdog window; ctx
	// cancellation also resolves within it (0 = the dist default).
	BarrierTimeout time.Duration
	// Sink also receives the event stream the Report is folded from;
	// EvDeploy and EvShardEvict carry worker process identity in Proc.
	// Nil disables tracing; the Report is the same either way.
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
	d := &distDriver{opts: &opts, Loop: &loop.Loop{Env: opts.Env, Prov: opts.Prov, Sink: opts.Sink, Log: opts.Logf,
		Total: opts.TotalSupersteps, Every: opts.CheckpointEvery, RestartBudget: opts.RestartBudget,
		Warning: opts.WarningWindow}}
	sum, err := d.Drive(ctx, d, start, deadline)
	return d.out.report(sum), err
}

// distDriver is the dist substrate of one ExecuteDist call.
type distDriver struct {
	*loop.Loop
	opts *DistOptions
	out  output
}

// Frontier implements loop.Substrate: a deployment resumes — and is
// billed and planned from — the newest sealed checkpoint in the store.
// Any error reads as no checkpoint, as it does to the session that
// starts next. The shards fetch their own blobs, so the coordinator
// measures no read: the reload is billed its price.
func (d *distDriver) Frontier() (int, cloud.StoreTime, error) {
	c, err := ckpt.Latest(d.opts.Store, d.opts.Job)
	if err != nil {
		return 0, cloud.StoreTime{}, nil
	}
	return c.Superstep, cloud.StoreTime{}, nil
}

// Clear implements loop.Substrate.
func (d *distDriver) Clear() error { return ckpt.Clear(d.opts.Store, d.opts.Job) }

// launch opens a coordinator listener and boots a worker set that
// dials it.
func (d *distDriver) launch(ctx context.Context, shards, attempt int, prefetchJob string) (net.Listener, WorkerSet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("runtime: dist coordinator listener: %w", err)
	}
	ws, err := d.opts.Launcher.Launch(ctx, ln.Addr().String(), shards, attempt, prefetchJob)
	if err != nil {
		ln.Close()
		return nil, nil, fmt.Errorf("runtime: launching %d workers: %w", shards, err)
	}
	return ln, ws, nil
}

// Run implements loop.Substrate: one coordinator session over a worker
// set — freshly launched, or adopted from a warm standby — that emits
// the deployment's EvDeploy, stamped with the worker identities, once
// the set is up. The coordinator runs on this goroutine and calls the
// session's Emit and CheckpointAt at every barrier. Whatever the
// outcome, the set is torn down and waited for before returning: the
// next deployment must never race a straggler from this one.
func (d *distDriver) Run(s *loop.Session, deploy obs.Event) error {
	shards := s.CS.Config.Count
	segCtx, cancel := context.WithCancel(s.Ctx)
	defer cancel()
	s.Cancel = cancel
	var ln net.Listener
	var ws WorkerSet
	if warm, ok := s.Warm.(*standbyState); ok {
		ln, ws = warm.ln, warm.ws
		defer warm.cancel()
	} else {
		var err error
		if ln, ws, err = d.launch(segCtx, shards, s.Attempt, ""); err != nil {
			return err
		}
	}
	defer ln.Close()
	deploy.Proc = strings.Join(ws.IDs(), ",")
	d.Emit(deploy)
	cfg := dist.Config{
		Job:            d.opts.Job,
		Program:        d.opts.Program,
		Graph:          d.opts.Graph,
		Canonical:      true,
		DeltaChain:     d.opts.DeltaChain,
		CheckpointAt:   s.CheckpointAt,
		BarrierTimeout: d.opts.BarrierTimeout,
		Store:          d.opts.Store,
		Sink:           s,
		Logf:           d.opts.Logf,
	}
	rep, runErr := dist.AcceptAndRun(segCtx, ln, shards, cfg)
	cancel()
	ws.Stop()
	ws.Wait()
	var lost *dist.ShardLostError
	switch {
	case errors.As(runErr, &lost) && !s.Stopped && s.Ctx.Err() == nil:
		// A worker actually died (chaos hook, killed process): bill the
		// supersteps that did complete, then go back around — the next
		// decision is free to pick a different worker count and the next
		// session resumes the blobs at that count. A forewarned death
		// (DistLauncher.DeathWarning) may have a standby ready.
		s.Lose(d.SegEnd(s.CS, s.Done-s.Billed))
		return nil
	case runErr != nil:
		return runErr
	}
	d.out = output{rep.Values, rep.Stats}
	return nil
}
