package runtime_test

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/dist"
	"hourglass/internal/engine"
	"hourglass/internal/obs"
	"hourglass/internal/runtime"
)

// distGraph is the dist-plane input: built identically in every worker
// from the spec, small enough for -race.
var distGraph = dist.GraphSpec{Scale: 8, Seed: 7, Undirected: true, Weighted: true}

var distProgram = dist.ProgramSpec{Name: "pagerank", Iterations: 10}

// distReference runs the uninterrupted single-process engine on the
// spec-built graph: the bit-exact target every runtime-driven dist
// trajectory must reproduce.
func distReference(t *testing.T) engine.Result {
	t.Helper()
	g, err := distGraph.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := distProgram.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(g, prog, engine.Config{Workers: 4, Canonical: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// onDemandByCount picks the never-evicted configuration with the given
// worker count — the deterministic building block of scripted resize
// trajectories.
func onDemandByCount(t *testing.T, env *core.Env, count int) cloud.Config {
	t.Helper()
	for i := range env.Stats {
		c := env.Stats[i].Config
		if !c.Transient && c.Count == count {
			return c
		}
	}
	t.Fatalf("no on-demand configuration with count %d", count)
	return cloud.Config{}
}

// scriptedProv replays a fixed configuration sequence, one per
// decision, holding the last entry forever.
type scriptedProv struct {
	mu      sync.Mutex
	configs []cloud.Config
	i       int
}

func (p *scriptedProv) Name() string { return "scripted" }

func (p *scriptedProv) Decide(core.State) (core.Decision, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.configs[p.i]
	if p.i < len(p.configs)-1 {
		p.i++
	}
	return core.Decision{Config: c, UseCheckpoints: true}, nil
}

// deathLauncher is a loopback launcher whose first deployment loses
// shard 1 while computing superstep dieAt. forewarn announces the death
// to the driver; kill=false makes the announcement a false alarm.
func deathLauncher(t *testing.T, store cloud.BlobStore, dieAt int, kill, forewarn bool) *runtime.LoopbackLauncher {
	l := &runtime.LoopbackLauncher{Store: store, Logf: t.Logf}
	if kill {
		l.ShardOpts = func(attempt, shard int) dist.ShardOptions {
			opts := dist.ShardOptions{Store: store}
			if attempt == 0 && shard == 1 {
				opts.DieAtSuperstep = dieAt
			}
			return opts
		}
	}
	if forewarn {
		l.DeathAt = func(attempt int) int {
			if attempt == 0 {
				return dieAt
			}
			return 0
		}
	}
	return l
}

func (h *harness) distOptions(t *testing.T, store cloud.BlobStore, job string, prov core.Provisioner, total int, launcher runtime.DistLauncher) runtime.DistOptions {
	t.Helper()
	return runtime.DistOptions{
		Env:             h.env,
		Prov:            prov,
		Program:         distProgram,
		Graph:           distGraph,
		Store:           store,
		Job:             job,
		Launcher:        launcher,
		TotalSupersteps: total,
		CheckpointEvery: 2,
		BarrierTimeout:  30 * time.Second,
		Logf:            t.Logf,
	}
}

func TestExecuteDistValidatesOptions(t *testing.T) {
	if _, err := runtime.ExecuteDist(context.Background(), runtime.DistOptions{}, 0, 1); err == nil {
		t.Fatal("empty options accepted")
	}
}

func TestExecuteDistUninterrupted(t *testing.T) {
	h := getHarness(t, "pagerank")
	ref := distReference(t)
	store := cloud.NewDatastore()
	opts := h.distOptions(t, store, "dist-od", &core.OnDemandOnly{Env: h.env},
		ref.Stats.Supersteps, &runtime.LoopbackLauncher{Store: store, Logf: t.Logf})
	rep, err := runtime.ExecuteDist(context.Background(), opts, 0, h.relDl)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished || rep.MissedDeadline {
		t.Fatalf("on-demand dist run: finished=%v missed=%v completion=%v deadline=%v",
			rep.Finished, rep.MissedDeadline, rep.Completion, h.relDl)
	}
	if rep.Evictions != 0 || rep.Restarts != 0 {
		t.Fatalf("on-demand dist run suffered %d evictions / %d restarts", rep.Evictions, rep.Restarts)
	}
	if len(rep.ShardCounts) != 1 {
		t.Fatalf("ShardCounts = %v, want one deployment", rep.ShardCounts)
	}
	if rep.Cost <= 0 {
		t.Fatalf("cost = %v", rep.Cost)
	}
	assertBitIdentical(t, ref.Values, rep.Values)
	// The cleared namespace is the finish-path contract: a successful
	// run leaves no blobs behind.
	if keys := store.Keys(); len(keys) != 0 {
		t.Fatalf("%d keys survived a successful run: %v", len(keys), keys)
	}
}

// TestExecuteDistKillResizesWorkerCount is the tentpole acceptance
// test: a worker of the first process set (8 workers) is killed
// mid-run, the driver re-decides onto a 4-worker configuration, boots
// a fresh process set that resumes the same blobs at the new shard
// count, and the final values are bit-identical to an uninterrupted
// in-process run.
func TestExecuteDistKillResizesWorkerCount(t *testing.T) {
	h := getHarness(t, "pagerank")
	ref := distReference(t)
	if ref.Stats.Supersteps <= 4 {
		t.Fatalf("reference run too short (%d supersteps) for a kill at superstep 3", ref.Stats.Supersteps)
	}
	store := cloud.NewDatastore()
	sink := &listSink{}
	prov := &scriptedProv{configs: []cloud.Config{
		onDemandByCount(t, h.env, 8),
		onDemandByCount(t, h.env, 4),
	}}
	launcher := deathLauncher(t, store, 3, true, false)
	opts := h.distOptions(t, store, "dist-resize", prov, ref.Stats.Supersteps, launcher)
	opts.Sink = sink
	// A generous deadline keeps the scripted trajectory out of the
	// last-resort fallback.
	rep, err := runtime.ExecuteDist(context.Background(), opts, 0, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished {
		t.Fatal("run did not finish")
	}
	if rep.Evictions != 1 || rep.Restarts != 1 {
		t.Fatalf("evictions=%d restarts=%d, want 1/1", rep.Evictions, rep.Restarts)
	}
	if len(rep.ShardCounts) != 2 || rep.ShardCounts[0] != 8 || rep.ShardCounts[1] != 4 {
		t.Fatalf("ShardCounts = %v, want [8 4]", rep.ShardCounts)
	}
	if rep.Checkpoints == 0 {
		t.Fatal("no durable checkpoints recorded")
	}
	assertBitIdentical(t, ref.Values, rep.Values)

	var deploys, evicts []obs.Event
	for _, e := range sink.snapshot() {
		switch e.Type {
		case obs.EvDeploy:
			deploys = append(deploys, e)
		case obs.EvShardEvict:
			evicts = append(evicts, e)
		}
	}
	if len(deploys) != 2 {
		t.Fatalf("%d deploy events, want 2", len(deploys))
	}
	for i, e := range deploys {
		if e.Proc == "" {
			t.Errorf("deploy %d carries no process identity", i)
		}
		if want := i > 0; e.Reload != want {
			t.Errorf("deploy %d reload=%v, want %v", i, e.Reload, want)
		}
	}
	if len(evicts) != 1 {
		t.Fatalf("%d shard-evict events, want 1", len(evicts))
	}
	if evicts[0].Proc != "goroutine:0.1" {
		t.Errorf("shard-evict proc %q, want the killed worker goroutine:0.1", evicts[0].Proc)
	}
}

// TestExecuteDistSlackAware runs the full paper loop — slack-aware
// provisioner over the seeded market, whatever evictions it injects —
// and demands the trajectory-independent invariant: bit-identical
// final values.
func TestExecuteDistSlackAware(t *testing.T) {
	h := getHarness(t, "pagerank")
	ref := distReference(t)
	store := cloud.NewDatastore()
	opts := h.distOptions(t, store, "dist-sa", h.provisioner(t),
		ref.Stats.Supersteps, &runtime.LoopbackLauncher{Store: store, Logf: t.Logf})
	rep, err := runtime.ExecuteDist(context.Background(), opts, 0, h.relDl)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished {
		t.Fatal("run did not finish")
	}
	if len(rep.ShardCounts) != rep.Reconfigs {
		t.Fatalf("ShardCounts %v but %d reconfigs", rep.ShardCounts, rep.Reconfigs)
	}
	assertBitIdentical(t, ref.Values, rep.Values)
}

// cancelAfterSink cancels a context once it has seen `after` superstep
// events.
type cancelAfterSink struct {
	after  int
	cancel context.CancelFunc

	mu sync.Mutex
	n  int
}

func (s *cancelAfterSink) Emit(e obs.Event) {
	if e.Type != obs.EvSuperstep {
		return
	}
	s.mu.Lock()
	s.n++
	trip := s.n == s.after
	s.mu.Unlock()
	if trip {
		s.cancel()
	}
}

// TestExecuteDistCancelStopsCluster is the cancellation acceptance
// check at the driver level: cancelling the driver context mid-session
// aborts the run — coordinator unwound, every worker goroutine exited
// (the driver waits on the set before returning) — within the barrier
// timeout, and surfaces a context error rather than retrying.
func TestExecuteDistCancelStopsCluster(t *testing.T) {
	h := getHarness(t, "pagerank")
	ref := distReference(t)
	store := cloud.NewDatastore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := h.distOptions(t, store, "dist-cancel", &core.OnDemandOnly{Env: h.env},
		ref.Stats.Supersteps, &runtime.LoopbackLauncher{Store: store, Logf: t.Logf})
	opts.BarrierTimeout = 5 * time.Second
	opts.Sink = &cancelAfterSink{after: 2, cancel: cancel}
	begin := time.Now()
	rep, err := runtime.ExecuteDist(ctx, opts, 0, h.relDl)
	elapsed := time.Since(begin)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled in the chain", err)
	}
	if rep.Finished {
		t.Fatal("cancelled run claims to have finished")
	}
	if elapsed > opts.BarrierTimeout {
		t.Fatalf("teardown took %v, budget %v", elapsed, opts.BarrierTimeout)
	}
}

// buildShardBinaryRT compiles cmd/hourglass-shard for the process
// launcher integration test.
func buildShardBinaryRT(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hourglass-shard")
	cmd := exec.Command("go", "build", "-o", bin, "hourglass/cmd/hourglass-shard")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building hourglass-shard: %v\n%s", err, out)
	}
	return bin
}

// TestExecuteDistProcessKill runs the tentpole against real OS worker
// processes: the first process set (4 workers) loses one to an
// injected death, the driver re-provisions an 8-worker process set
// from the shared checkpoint directory, and the result is bit-identical
// to an uninterrupted in-process run. Worker identities in the trace
// are real pids.
func TestExecuteDistProcessKill(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns processes and compiles a binary")
	}
	h := getHarness(t, "pagerank")
	ref := distReference(t)
	bin := buildShardBinaryRT(t)
	storeDir := t.TempDir()
	store, err := cloud.NewFSStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	sink := &listSink{}
	prov := &scriptedProv{configs: []cloud.Config{
		onDemandByCount(t, h.env, 4),
		onDemandByCount(t, h.env, 8),
	}}
	launcher := &runtime.ProcessLauncher{
		Bin:      bin,
		StoreDir: storeDir,
		ExtraArgs: func(attempt, shard int) []string {
			if attempt == 0 && shard == 0 {
				return []string{"-die-at", strconv.Itoa(3)}
			}
			return nil
		},
	}
	opts := h.distOptions(t, store, "dist-prockill", prov, ref.Stats.Supersteps, launcher)
	opts.Sink = sink
	rep, err := runtime.ExecuteDist(context.Background(), opts, 0, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished {
		t.Fatal("run did not finish")
	}
	if rep.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", rep.Evictions)
	}
	if len(rep.ShardCounts) != 2 || rep.ShardCounts[0] != 4 || rep.ShardCounts[1] != 8 {
		t.Fatalf("ShardCounts = %v, want [4 8]", rep.ShardCounts)
	}
	assertBitIdentical(t, ref.Values, rep.Values)
	for _, e := range sink.snapshot() {
		if e.Type == obs.EvShardEvict && e.Proc == "" {
			t.Errorf("shard-evict event carries no pid: %+v", e)
		}
		if e.Type == obs.EvDeploy && e.Proc == "" {
			t.Errorf("deploy event carries no pids: %+v", e)
		}
	}
}
