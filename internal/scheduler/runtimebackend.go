package scheduler

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hourglass"
	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/dist"
	"hourglass/internal/engine"
	"hourglass/internal/graph"
	"hourglass/internal/micro"
	"hourglass/internal/obs"
	"hourglass/internal/partition"
	"hourglass/internal/runtime"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// graphSeed seeds the benchmark RMAT graph every recurrence runs on.
const graphSeed = 7

// RuntimeBackend executes recurrences with the eviction-aware runtime
// (internal/runtime) instead of the abstract simulator: every
// recurrence runs a real vertex program over a real graph through the
// paper's decide → deploy → compute → checkpoint → (evict → re-decide)*
// loop, so the worker count follows each decision. Costs remain virtual
// (market-priced), so histories from the simulator and runtime backends
// are comparable.
//
// Dist selects the substrate. false runs runtime.Execute on the
// in-process engine, re-clustering micro-partitions at every worker
// count change. true runs runtime.ExecuteDist over a
// runtime.LoopbackLauncher: each deployment boots a coordinator and
// Config.Count shard workers over loopback TCP, with real wire frames
// and real per-shard checkpoint blobs.
//
// The zero value is not usable; set Sys. The backend is safe for
// concurrent use: the graph, the partitioning and each kind's
// reference superstep count are built lazily under a lock and shared
// across recurrences, while each recurrence gets its own checkpoint
// namespace.
type RuntimeBackend struct {
	// Sys supplies envs, provisioners and admission constants
	// (required).
	Sys *hourglass.System
	// Dist runs recurrences on shard worker sets instead of the
	// in-process engine.
	Dist bool
	// Store holds checkpoints (nil = a private in-memory Datastore).
	// Wrap with faultinject.Wrap for storage-chaos soaks, or pass a
	// cloud.FSStore to put dist blobs in real files.
	Store cloud.BlobStore
	// Sink receives the runtime's decision/lifecycle event stream.
	Sink obs.Sink
	// GraphScale is the RMAT scale of the benchmark graph (0 = 10).
	GraphScale int
	// RestartBudget bounds evictions and losses before the last-resort
	// pin (0 = runtime default).
	RestartBudget int
	// Watchdog bounds wall-clock seconds per in-process superstep
	// (0 = 30s).
	Watchdog time.Duration
	// BarrierTimeout is the dist coordinator's watchdog window; a
	// cancelled run also stops within it (0 = 30s).
	BarrierTimeout time.Duration
	// DeltaChain bounds the dist checkpoint delta chain (0 = every
	// checkpoint full).
	DeltaChain int
	// ShardOpts, when non-nil, supplies per-shard options for each dist
	// deployment — the chaos seam (see runtime.LoopbackLauncher). A
	// zero Store inherits the backend's store.
	ShardOpts func(attempt, shard int) dist.ShardOptions
	// Logf receives diagnostics (nil = the standard logger).
	Logf func(format string, args ...any)

	mu      sync.Mutex
	store   cloud.BlobStore
	part    *micro.Partitioning
	totals  map[hourglass.JobKind]int
	seq     int
	pending map[string]string // jobID → namespace of a failed, resumable run
}

// Admit delegates to the simulator backend: deadlines, horizons and
// baselines are properties of the pricing env, not of how recurrences
// execute.
func (b *RuntimeBackend) Admit(spec JobSpec) (units.Seconds, units.Seconds, units.USD, error) {
	return SystemBackend{Sys: b.Sys}.Admit(spec)
}

// programSpec maps a job kind to the vertex program both substrates
// instantiate.
func programSpec(k hourglass.JobKind) (dist.ProgramSpec, error) {
	switch k {
	case hourglass.PageRank:
		return dist.ProgramSpec{Name: "pagerank", Iterations: 10}, nil
	case hourglass.SSSP:
		return dist.ProgramSpec{Name: "sssp", Source: 0}, nil
	case hourglass.GC:
		return dist.ProgramSpec{Name: "graphcoloring"}, nil
	default:
		return dist.ProgramSpec{}, fmt.Errorf("scheduler: no vertex program for job kind %q", k)
	}
}

// graphSpec is the input graph both substrates build.
func (b *RuntimeBackend) graphSpec() dist.GraphSpec {
	scale := b.GraphScale
	if scale <= 0 {
		scale = 10
	}
	return dist.GraphSpec{Scale: scale, Seed: graphSeed, Undirected: true}
}

// prepare lazily resolves the shared store and the kind's reference
// superstep count — the work-left denominator — from one uninterrupted
// canonical run.
func (b *RuntimeBackend) prepare(k hourglass.JobKind, prog dist.ProgramSpec) (cloud.BlobStore, int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.store == nil {
		b.store = b.Store
		if b.store == nil {
			b.store = cloud.NewDatastore()
		}
	}
	if total, ok := b.totals[k]; ok {
		return b.store, total, nil
	}
	g, err := b.graphSpec().Build()
	if err != nil {
		return nil, 0, err
	}
	p, err := prog.New()
	if err != nil {
		return nil, 0, err
	}
	ref, err := engine.Run(g, p, engine.Config{Workers: 4, Canonical: true})
	if err != nil {
		return nil, 0, fmt.Errorf("scheduler: %s reference run: %w", k, err)
	}
	if b.totals == nil {
		b.totals = map[hourglass.JobKind]int{}
	}
	b.totals[k] = ref.Stats.Supersteps
	return b.store, ref.Stats.Supersteps, nil
}

// partitioning returns the in-process graph and lazily builds its
// micro-partitioning for every worker count the env can decide. Dist
// shards build the graph themselves and own vertices round-robin, so
// they need neither.
func (b *RuntimeBackend) partitioning(env *core.Env) (*graph.Graph, *micro.Partitioning, error) {
	if b.Dist {
		return nil, nil, nil
	}
	g, err := b.graphSpec().Build()
	if err != nil {
		return nil, nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.part != nil {
		return g, b.part, nil
	}
	seen := map[int]bool{}
	var counts []int
	for i := range env.Stats {
		if n := env.Stats[i].Config.Count; !seen[n] {
			seen[n] = true
			counts = append(counts, n)
		}
	}
	if b.part, err = micro.BuildForConfigs(g, partition.Hash{}, counts, partition.Multilevel{Seed: 1}); err != nil {
		return nil, nil, fmt.Errorf("scheduler: building micro-partitioning: %w", err)
	}
	return g, b.part, nil
}

// namespace reserves a checkpoint namespace for a recurrence. A failed
// run parks its namespace, and the job's next attempt takes it back —
// so the checkpoint blobs a failed run left behind are resumed instead
// of stranded. A successful run needs no bookkeeping: the runtime
// clears the namespace once the output is durable.
func (b *RuntimeBackend) namespace(jobID string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ns, ok := b.pending[jobID]; ok {
		delete(b.pending, jobID)
		return ns
	}
	b.seq++
	return fmt.Sprintf("%s-%d", jobID, b.seq)
}

// park hands a failed run's namespace to the job's next attempt.
func (b *RuntimeBackend) park(jobID, ns string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pending == nil {
		b.pending = make(map[string]string)
	}
	b.pending[jobID] = ns
}

// Run executes one recurrence end-to-end under injected evictions.
// Cancelling ctx stops the live engine or cluster (within
// BarrierTimeout for dist) and leaves the namespace's checkpoints for
// the job's next attempt.
func (b *RuntimeBackend) Run(ctx context.Context, spec JobSpec, start, deadline units.Seconds) (sim.RunResult, error) {
	env, err := b.Sys.Env(spec.Kind)
	if err != nil {
		return sim.RunResult{}, err
	}
	prov, err := b.Sys.Provisioner(spec.Kind, spec.Strategy)
	if err != nil {
		return sim.RunResult{}, err
	}
	prog, err := programSpec(spec.Kind)
	if err != nil {
		return sim.RunResult{}, err
	}
	store, total, err := b.prepare(spec.Kind, prog)
	if err != nil {
		return sim.RunResult{}, err
	}
	g, part, err := b.partitioning(env)
	if err != nil {
		return sim.RunResult{}, err
	}
	ns := b.namespace(spec.ID)
	var rep runtime.Report
	if b.Dist {
		barrier := b.BarrierTimeout
		if barrier <= 0 {
			barrier = 30 * time.Second
		}
		rep, err = runtime.ExecuteDist(ctx, runtime.DistOptions{
			Env:             env,
			Prov:            prov,
			Program:         prog,
			Graph:           b.graphSpec(),
			Store:           store,
			Job:             ns,
			Launcher:        &runtime.LoopbackLauncher{Store: store, ShardOpts: b.ShardOpts, Logf: b.Logf},
			TotalSupersteps: total,
			CheckpointEvery: 2,
			DeltaChain:      b.DeltaChain,
			RestartBudget:   b.RestartBudget,
			BarrierTimeout:  barrier,
			Sink:            b.Sink,
			Logf:            b.Logf,
		}, start, deadline)
	} else {
		watchdog := b.Watchdog
		if watchdog <= 0 {
			watchdog = 30 * time.Second
		}
		rep, err = runtime.Execute(ctx, runtime.Options{
			Env:   env,
			Prov:  prov,
			Graph: g,
			// prepare's reference run already instantiated this spec.
			NewProgram:      func() engine.Program { p, _ := prog.New(); return p },
			Part:            part,
			Manager:         &engine.CheckpointManager{Store: store, Job: ns},
			TotalSupersteps: total,
			CheckpointEvery: 2,
			RestartBudget:   b.RestartBudget,
			Watchdog:        watchdog,
			Canonical:       true,
			Sink:            b.Sink,
			Logf:            b.Logf,
		}, start, deadline)
	}
	if err != nil {
		b.park(spec.ID, ns)
		return sim.RunResult{}, err
	}
	res := rep.Summary
	res.Cost += env.OfflineCost // §8.2: include offline partitioning
	return res, nil
}

var _ Backend = (*RuntimeBackend)(nil)
