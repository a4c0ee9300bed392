package scheduler

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hourglass"
	"hourglass/internal/cloud"
	"hourglass/internal/dist"
	"hourglass/internal/obs"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// DistBackend executes recurrences on the distributed BSP engine
// (internal/dist): every recurrence runs coordinator + N shard workers
// over loopback TCP with real wire frames, real per-shard checkpoint
// blobs and seeded shard kills. It is the process-sharded sibling of
// EngineBackend, and deliberately simpler on the billing side: dist
// runs are billed at the env's reserved baseline plus offline cost
// (flat on-demand execution — the market interplay stays with the sim
// and engine backends).
//
// The zero value is not usable; set Sys.
type DistBackend struct {
	// Sys supplies envs and admission constants (required).
	Sys *hourglass.System
	// Store holds dist checkpoint blobs (nil = a private in-memory
	// Datastore; use a cloud.FSStore to exercise real files).
	Store cloud.BlobStore
	// Sink receives superstep/checkpoint/evict events.
	Sink obs.Sink
	// Shards is the worker-process count per recurrence (0 = 4).
	Shards int
	// GraphScale is the RMAT scale of the benchmark graph (0 = 10).
	GraphScale int
	// GraphSeed seeds the benchmark graph (0 = 7).
	GraphSeed int64
	// BarrierTimeout is the coordinator's wall-clock watchdog window
	// per recurrence session (0 = 30s). Lower it when driving chaos
	// soaks whose injected failures should resolve fast; raise it for
	// slow shared CI machines.
	BarrierTimeout time.Duration
	// DeltaChain bounds the dist checkpoint delta chain: up to
	// DeltaChain consecutive delta checkpoints follow each full one
	// (0 = every checkpoint full).
	DeltaChain int
	// KillAtSuperstep, when > 0, kills one shard mid-superstep on the
	// first session of every recurrence, forcing a checkpoint resume
	// (chaos soak; the recurrence still completes).
	KillAtSuperstep int
	// ShardOpts, when non-nil, supplies per-shard options for each
	// recovery attempt and overrides KillAtSuperstep — the chaos seam
	// tests use to script multi-session failures. A zero Store inherits
	// the backend's store.
	ShardOpts func(attempt, shard int) dist.ShardOptions
	// Logf receives diagnostics (nil = discard).
	Logf func(format string, args ...any)

	mu      sync.Mutex
	store   cloud.BlobStore
	seq     int
	pending map[string]string // jobID → namespace of a failed, resumable run
}

// Admit delegates to the simulator backend: deadlines, horizons and
// baselines are properties of the pricing env, not of how recurrences
// execute.
func (b *DistBackend) Admit(spec JobSpec) (units.Seconds, units.Seconds, units.USD, error) {
	return SystemBackend{Sys: b.Sys}.Admit(spec)
}

// distProgramFor maps a job kind to its distributed program spec.
func distProgramFor(k hourglass.JobKind) (dist.ProgramSpec, error) {
	switch k {
	case hourglass.PageRank:
		return dist.ProgramSpec{Name: "pagerank", Iterations: 10}, nil
	case hourglass.SSSP:
		return dist.ProgramSpec{Name: "sssp", Source: 0}, nil
	case hourglass.GC:
		return dist.ProgramSpec{Name: "graphcoloring"}, nil
	default:
		return dist.ProgramSpec{}, fmt.Errorf("scheduler: no dist program for job kind %q", k)
	}
}

// blobStore lazily resolves the shared store.
func (b *DistBackend) blobStore() cloud.BlobStore {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.store == nil {
		if b.Store != nil {
			b.store = b.Store
		} else {
			b.store = cloud.NewDatastore()
		}
	}
	return b.store
}

// namespace reserves a checkpoint namespace for a recurrence. A run
// that failed leaves its namespace pending, and the job's next attempt
// gets the same one back — so the checkpoint blobs a failed run left
// behind are actually resumable, instead of being stranded under a
// name no future run will ever look at.
func (b *DistBackend) namespace(jobID string) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ns, ok := b.pending[jobID]; ok {
		return ns
	}
	b.seq++
	return fmt.Sprintf("%s-%d", jobID, b.seq)
}

// settle records a run's outcome for its namespace: success forgets it
// (the blobs are cleared), failure parks it for the job's next attempt.
func (b *DistBackend) settle(jobID, ns string, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if ok {
		delete(b.pending, jobID)
		return
	}
	if b.pending == nil {
		b.pending = make(map[string]string)
	}
	b.pending[jobID] = ns
}

// Run executes one recurrence on a loopback shard cluster.
func (b *DistBackend) Run(ctx context.Context, spec JobSpec, start, deadline units.Seconds) (sim.RunResult, error) {
	env, err := b.Sys.Env(spec.Kind)
	if err != nil {
		return sim.RunResult{}, err
	}
	pspec, err := distProgramFor(spec.Kind)
	if err != nil {
		return sim.RunResult{}, err
	}
	shards := b.Shards
	if shards <= 0 {
		shards = 4
	}
	scale, seed := b.GraphScale, b.GraphSeed
	if scale <= 0 {
		scale = 10
	}
	if seed == 0 {
		seed = 7
	}
	store := b.blobStore()
	barrier := b.BarrierTimeout
	if barrier <= 0 {
		barrier = 30 * time.Second
	}
	cfg := dist.Config{
		Job:             b.namespace(spec.ID),
		Program:         pspec,
		Graph:           dist.GraphSpec{Scale: scale, Seed: seed, Undirected: true},
		Canonical:       true,
		CheckpointEvery: 2,
		DeltaChain:      b.DeltaChain,
		BarrierTimeout:  barrier,
		Store:           store,
		Sink:            b.Sink,
		Logf:            b.Logf,
	}
	shardOpts := b.ShardOpts
	if shardOpts == nil && b.KillAtSuperstep > 0 {
		kill := b.KillAtSuperstep
		shardOpts = func(attempt, shard int) dist.ShardOptions {
			opts := dist.ShardOptions{Store: store}
			if attempt == 0 && shard == 0 {
				opts.DieAtSuperstep = kill
			}
			return opts
		}
	}
	if shardOpts != nil {
		inner := shardOpts
		shardOpts = func(attempt, shard int) dist.ShardOptions {
			opts := inner(attempt, shard)
			if opts.Store == nil {
				opts.Store = store
			}
			return opts
		}
	}
	// ctx rides into the cluster: a cancelled scheduler context aborts
	// the live session at its next barrier wait (within BarrierTimeout),
	// not after the job finished on its own.
	rep, restarts, err := dist.ExecuteWithRecovery(ctx, cfg, dist.FixedShards(shards), shards, shardOpts)
	b.settle(spec.ID, cfg.Job, err == nil)
	if err != nil {
		// The namespace keeps its checkpoint blobs: the next attempt
		// for this job resumes from them instead of starting over.
		return sim.RunResult{}, err
	}
	// Clearing only a successful run's blobs is what makes the failed
	// path above resumable.
	if cerr := dist.ClearJob(store, cfg.Job); cerr != nil && b.Logf != nil {
		b.Logf("scheduler: clearing dist job %s: %v", cfg.Job, cerr)
	}
	res := sim.RunResult{
		// Flat on-demand billing: the reserved baseline for the env
		// plus the §8.2 offline partitioning cost.
		Cost:        sim.Baseline(env) + env.OfflineCost,
		Finished:    true,
		Completion:  start + env.LRC.Fixed + env.LRC.Exec,
		Checkpoints: rep.Checkpoints,
		Evictions:   restarts,
	}
	return res, nil
}

var _ Backend = (*DistBackend)(nil)
