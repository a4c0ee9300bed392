package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/engine"
	"hourglass/internal/obs"
)

// captureSink records events for assertions.
type captureSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *captureSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *captureSink) byType(typ string) []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []obs.Event
	for _, e := range s.events {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// testGraph is the shared input: small enough for -race, irregular
// enough that every shard count splits it differently.
var testGraph = GraphSpec{Scale: 8, Seed: 7, Undirected: true, Weighted: true}

// refRun executes the single-process engine reference.
func refRun(t *testing.T, pspec ProgramSpec, canonical bool) engine.Result {
	t.Helper()
	return refRunOn(t, pspec, canonical, 4, nil)
}

// refRunOn executes the single-process engine on workers partitions
// under the default v mod workers assignment — the one a cluster of
// that many shards uses — reporting supersteps to sink.
func refRunOn(t *testing.T, pspec ProgramSpec, canonical bool, workers int, sink obs.Sink) engine.Result {
	t.Helper()
	g, err := testGraph.Build()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pspec.New()
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Run(g, prog, engine.Config{Workers: workers, Canonical: canonical, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func assertBitIdentical(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", label, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			t.Fatalf("%s: vertex %d = %v, want %v (not bit-identical)", label, v, got[v], want[v])
		}
	}
}

// TestDistBitIdentity runs each supported program over 1, 2 and 4
// shard processes' worth of workers (in-process, loopback TCP) and
// demands bit-identical values and matching counters versus the
// single-process engine: canonical mode for the order-sensitive
// PageRank sums, plain combiner mode for the min-folding programs.
func TestDistBitIdentity(t *testing.T) {
	cases := []struct {
		pspec     ProgramSpec
		canonical bool
	}{
		{ProgramSpec{Name: "pagerank", Iterations: 10}, true},
		{ProgramSpec{Name: "sssp", Source: 0}, false},
		{ProgramSpec{Name: "wcc"}, false},
		{ProgramSpec{Name: "bfs", Source: 3}, false},
		// GraphColoring exercises the engine.VertexAux path: per-vertex
		// aux state initialised from the topology on every shard and its
		// message folds order-invariant by construction.
		{ProgramSpec{Name: "graphcoloring"}, false},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.pspec.Name, func(t *testing.T) {
			t.Parallel()
			ref := refRun(t, tc.pspec, tc.canonical)
			for _, shards := range []int{1, 2, 4} {
				sink := &captureSink{}
				cfg := Config{
					Job:       fmt.Sprintf("%s-%d", tc.pspec.Name, shards),
					Program:   tc.pspec,
					Graph:     testGraph,
					Canonical: tc.canonical,
					Store:     cloud.NewDatastore(),
					Sink:      sink,
				}
				rep, err := RunCluster(context.Background(), cfg, shards, nil)
				if err != nil {
					t.Fatalf("%d shards: %v", shards, err)
				}
				assertBitIdentical(t, rep.Values, ref.Values, fmt.Sprintf("%d shards", shards))
				if rep.Stats.Supersteps != ref.Stats.Supersteps {
					t.Errorf("%d shards: %d supersteps, engine %d", shards, rep.Stats.Supersteps, ref.Stats.Supersteps)
				}
				if rep.Stats.ComputeCalls != ref.Stats.ComputeCalls {
					t.Errorf("%d shards: %d compute calls, engine %d", shards, rep.Stats.ComputeCalls, ref.Stats.ComputeCalls)
				}
				if rep.Stats.MessagesSent != ref.Stats.MessagesSent {
					t.Errorf("%d shards: %d messages, engine %d", shards, rep.Stats.MessagesSent, ref.Stats.MessagesSent)
				}
				if shards == 1 && rep.Stats.RemoteMessages != 0 {
					t.Errorf("1 shard: %d remote messages, want 0", rep.Stats.RemoteMessages)
				}
				// The wire counters must see every frame of a real session:
				// at minimum the per-shard handshake and per-step control.
				steps := sink.byType(obs.EvSuperstep)
				if len(steps) != ref.Stats.Supersteps {
					t.Errorf("%d shards: %d superstep events, want %d", shards, len(steps), ref.Stats.Supersteps)
				}
				for _, e := range steps {
					if e.WireFrames <= 0 || e.WireBytes <= 0 {
						t.Errorf("%d shards: superstep %d event missing wire counters: %+v", shards, e.Superstep, e)
					}
				}
				if rep.WireFrames <= 0 || rep.WireBytes <= 0 {
					t.Errorf("%d shards: empty wire totals %d/%d", shards, rep.WireFrames, rep.WireBytes)
				}
				// The data plane is the peer mesh: not a single batch
				// frame may ever reach the coordinator.
				if rep.CoordBatchFrames != 0 {
					t.Errorf("%d shards: %d batch frames routed through the coordinator, want 0", shards, rep.CoordBatchFrames)
				}
				if shards == 1 {
					continue
				}
				// Same kernel, same v mod n partitions: the in-process run
				// on as many workers must count the same work per superstep
				// and the same cross-partition traffic.
				local := &captureSink{}
				same := refRunOn(t, tc.pspec, tc.canonical, shards, local)
				if rep.Stats.RemoteMessages != same.Stats.RemoteMessages {
					t.Errorf("%d shards: %d remote messages, engine on %d workers %d", shards, rep.Stats.RemoteMessages, shards, same.Stats.RemoteMessages)
				}
				want := local.byType(obs.EvSuperstep)
				if len(want) != len(steps) {
					t.Fatalf("%d shards: %d superstep events, engine on %d workers %d", shards, len(steps), shards, len(want))
				}
				for i, e := range steps {
					w := want[i]
					if e.Superstep != w.Superstep || e.Active != w.Active || e.Messages != w.Messages || e.Combined != w.Combined {
						t.Errorf("%d shards: superstep %d active/messages/combined %d/%d/%d, engine %d: %d/%d/%d",
							shards, e.Superstep, e.Active, e.Messages, e.Combined, w.Superstep, w.Active, w.Messages, w.Combined)
					}
				}
			}
		})
	}
}

// TestDistKillRecovery is the PR's acceptance test: PageRank sharded
// over 4 worker processes' protocol, one shard killed mid-superstep
// (abrupt connection drop with the worklist half-consumed), recovery
// through per-shard checkpoint blob reload, final values bit-identical
// to an uninterrupted single-process run.
func TestDistKillRecovery(t *testing.T) {
	pspec := ProgramSpec{Name: "pagerank", Iterations: 10}
	ref := refRun(t, pspec, true)
	if ref.Stats.Supersteps <= 6 {
		t.Fatalf("reference run too short (%d supersteps) for a kill at superstep 5", ref.Stats.Supersteps)
	}
	sink := &captureSink{}
	store := cloud.NewDatastore()
	cfg := Config{
		Job:             "pagerank-kill",
		Program:         pspec,
		Graph:           testGraph,
		Canonical:       true,
		CheckpointEvery: 2,
		Store:           store,
		Sink:            sink,
	}
	_, err := RunCluster(context.Background(), cfg, 4, func(i int) ShardOptions {
		var opts ShardOptions
		if i == 2 {
			opts.DieAtSuperstep = 5
		}
		return opts
	})
	var lost *ShardLostError
	if !errors.As(err, &lost) {
		t.Fatalf("killed session: %v, want ShardLostError", err)
	}
	rep, err := RunCluster(context.Background(), cfg, 4, nil)
	if err != nil {
		t.Fatalf("recovery session failed: %v", err)
	}
	if !rep.Resumed {
		t.Fatal("final session did not resume from a checkpoint")
	}
	if rep.StartSuperstep != 4 {
		t.Errorf("resumed at superstep %d, want 4 (kill at 5, checkpoint every 2)", rep.StartSuperstep)
	}
	assertBitIdentical(t, rep.Values, ref.Values, "recovered run")

	evicts := sink.byType(obs.EvShardEvict)
	if len(evicts) != 1 {
		t.Fatalf("%d shard-evict events, want 1", len(evicts))
	}
	if evicts[0].Superstep != 5 {
		t.Errorf("evict at superstep %d, want 5", evicts[0].Superstep)
	}
	if evicts[0].Job != "pagerank" {
		t.Errorf("evict job %q, want pagerank", evicts[0].Job)
	}
	if rep.Checkpoints == 0 {
		t.Error("resumed session wrote no further checkpoints")
	}
	if rep.CoordBatchFrames != 0 {
		t.Errorf("%d batch frames routed through the coordinator, want 0", rep.CoordBatchFrames)
	}
}

// TestDistPeerKillRecovery covers the mesh's own failure mode: the
// peer-plane connections of one shard are severed halfway through a
// superstep's worklist — mid-flush, with partial batches already on
// the wire — while its coordinator connection stays up. The broken
// data plane must surface as a ShardLostError (not a hang), and the
// job must recover from the newest checkpoint bit-identically.
func TestDistPeerKillRecovery(t *testing.T) {
	pspec := ProgramSpec{Name: "pagerank", Iterations: 10}
	ref := refRun(t, pspec, true)
	if ref.Stats.Supersteps <= 6 {
		t.Fatalf("reference run too short (%d supersteps) for a peer kill at superstep 5", ref.Stats.Supersteps)
	}
	sink := &captureSink{}
	store := cloud.NewDatastore()
	cfg := Config{
		Job:             "pagerank-peerkill",
		Program:         pspec,
		Graph:           testGraph,
		Canonical:       true,
		CheckpointEvery: 2,
		BarrierTimeout:  2 * time.Second,
		Store:           store,
		Sink:            sink,
	}
	_, err := RunCluster(context.Background(), cfg, 4, func(i int) ShardOptions {
		opts := ShardOptions{Proc: fmt.Sprintf("worker-%d", i)}
		if i == 1 {
			opts.Proc = "partitioned"
			opts.DropPeersAtSuperstep = 5
		}
		return opts
	})
	var lost *ShardLostError
	if !errors.As(err, &lost) {
		t.Fatalf("peer-killed session: %v, want ShardLostError", err)
	}
	// The partitioned worker is to blame, not a peer whose link to it
	// failed. Shard ids follow accept order, so the worker is told
	// apart by its announced process identity.
	for _, e := range sink.byType(obs.EvShardEvict) {
		if e.Proc != "partitioned" {
			t.Errorf("shard-evict names %q (shard %d), want the partitioned worker (%s)", e.Proc, e.Shard, e.Err)
		}
	}
	rep, err := RunCluster(context.Background(), cfg, 4, nil)
	if err != nil {
		t.Fatalf("recovery session failed: %v", err)
	}
	if !rep.Resumed || rep.StartSuperstep != 4 {
		t.Fatalf("resumed=%v start=%d, want resume at superstep 4", rep.Resumed, rep.StartSuperstep)
	}
	assertBitIdentical(t, rep.Values, ref.Values, "post-peer-kill recovery")
	if len(sink.byType(obs.EvShardEvict)) == 0 {
		t.Error("no shard-evict event for the severed peer plane")
	}
	if rep.CoordBatchFrames != 0 {
		t.Errorf("%d batch frames routed through the coordinator, want 0", rep.CoordBatchFrames)
	}
}

// TestDistGraphColoringAuxRecovery checkpoints and resumes a program
// whose per-vertex auxiliary state rides in the shard blobs
// (engine.VertexAux), resuming under a *different* shard count so the
// aux overlay is re-filtered by the new ownership.
func TestDistGraphColoringAuxRecovery(t *testing.T) {
	pspec := ProgramSpec{Name: "graphcoloring"}
	ref := refRun(t, pspec, false)
	if ref.Stats.Supersteps <= 3 {
		t.Fatalf("reference run too short (%d supersteps) for a kill at superstep 2", ref.Stats.Supersteps)
	}
	store := cloud.NewDatastore()
	cfg := Config{
		Job:             "gc-reshard",
		Program:         pspec,
		Graph:           testGraph,
		CheckpointEvery: 1,
		Store:           store,
	}
	_, err := RunCluster(context.Background(), cfg, 4, func(i int) ShardOptions {
		opts := ShardOptions{Store: store}
		if i == 2 {
			opts.DieAtSuperstep = 2
		}
		return opts
	})
	var lost *ShardLostError
	if !errors.As(err, &lost) {
		t.Fatalf("first session: %v, want ShardLostError", err)
	}
	rep, err := RunCluster(context.Background(), cfg, 3, nil)
	if err != nil {
		t.Fatalf("resume with 3 shards: %v", err)
	}
	if !rep.Resumed {
		t.Fatal("session did not resume from a checkpoint")
	}
	assertBitIdentical(t, rep.Values, ref.Values, "graphcoloring resharded resume")
}

// TestDistResumeAcrossShardCounts kills a 4-shard session and resumes
// it with 3 shards: every shard reloads the full 4-blob set (with its
// combined pending inbox) and keeps what the new assignment gives it,
// and the result stays bit-identical.
func TestDistResumeAcrossShardCounts(t *testing.T) {
	pspec := ProgramSpec{Name: "pagerank", Iterations: 10}
	ref := refRun(t, pspec, true)
	store := cloud.NewDatastore()
	cfg := Config{
		Job:             "pagerank-reshard",
		Program:         pspec,
		Graph:           testGraph,
		Canonical:       true,
		CheckpointEvery: 2,
		Store:           store,
	}
	_, err := RunCluster(context.Background(), cfg, 4, func(i int) ShardOptions {
		opts := ShardOptions{Store: store}
		if i == 0 {
			opts.DieAtSuperstep = 5
		}
		return opts
	})
	var lost *ShardLostError
	if !errors.As(err, &lost) {
		t.Fatalf("first session: %v, want ShardLostError", err)
	}
	// PageRank is an ExactCombiner, so the canonical blobs carry the
	// folded inbox: one pending value per vertex, not one per in-edge.
	pending := 0
	for shard := 0; shard < 4; shard++ {
		data, _, err := store.Get(ckpt.BlobKey(cfg.Job, 4, shard))
		if err != nil {
			t.Fatal(err)
		}
		blob, err := ckpt.DecodeBlob(data)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int32]bool{}
		for _, d := range blob.PendDst {
			if seen[d] {
				t.Fatalf("shard %d blob carries several pending values for vertex %d", shard, d)
			}
			seen[d] = true
		}
		pending += len(blob.PendDst)
	}
	if pending == 0 {
		t.Fatal("checkpoint at superstep 4 carries no pending messages")
	}
	rep, err := RunCluster(context.Background(), cfg, 3, nil)
	if err != nil {
		t.Fatalf("resume with 3 shards: %v", err)
	}
	if !rep.Resumed || rep.StartSuperstep != 4 {
		t.Fatalf("resumed=%v start=%d, want resume at superstep 4", rep.Resumed, rep.StartSuperstep)
	}
	assertBitIdentical(t, rep.Values, ref.Values, "resharded resume")
}

// TestDistBarrierWatchdog covers the muted-shard failure mode: a shard
// that computes but stops voting must be declared dead within the
// watchdog window (not hang the job), and the job must then recover.
func TestDistBarrierWatchdog(t *testing.T) {
	pspec := ProgramSpec{Name: "pagerank", Iterations: 10}
	ref := refRun(t, pspec, true)
	sink := &captureSink{}
	store := cloud.NewDatastore()
	cfg := Config{
		Job:             "pagerank-mute",
		Program:         pspec,
		Graph:           testGraph,
		Canonical:       true,
		CheckpointEvery: 2,
		BarrierTimeout:  500 * time.Millisecond,
		Store:           store,
		Sink:            sink,
	}
	begin := time.Now()
	_, err := RunCluster(context.Background(), cfg, 3, func(i int) ShardOptions {
		opts := ShardOptions{Store: store}
		if i == 1 {
			opts.MuteAtSuperstep = 3
		}
		return opts
	})
	elapsed := time.Since(begin)
	var lost *ShardLostError
	if !errors.As(err, &lost) {
		t.Fatalf("muted session: %v, want ShardLostError", err)
	}
	if lost.Superstep != 3 {
		t.Errorf("shard declared dead at superstep %d, want 3", lost.Superstep)
	}
	if elapsed > 10*time.Second {
		t.Fatalf("watchdog took %v to fire (window 500ms)", elapsed)
	}
	if len(sink.byType(obs.EvShardEvict)) != 1 {
		t.Errorf("%d shard-evict events, want 1", len(sink.byType(obs.EvShardEvict)))
	}
	rep, err := RunCluster(context.Background(), cfg, 3, nil)
	if err != nil {
		t.Fatalf("recovery session: %v", err)
	}
	if !rep.Resumed {
		t.Error("recovery session did not resume from the superstep-2 checkpoint")
	}
	assertBitIdentical(t, rep.Values, ref.Values, "post-watchdog recovery")
}

// TestDistChecksCheckpointIntegrity corrupts the newest checkpoint's
// blob and manifests that resume falls back to the older checkpoint
// instead of failing or restoring garbage.
func TestDistCheckpointFallback(t *testing.T) {
	pspec := ProgramSpec{Name: "pagerank", Iterations: 10}
	ref := refRun(t, pspec, true)
	store := cloud.NewDatastore()
	cfg := Config{
		Job:             "pagerank-corrupt",
		Program:         pspec,
		Graph:           testGraph,
		Canonical:       true,
		CheckpointEvery: 2,
		Store:           store,
	}
	_, err := RunCluster(context.Background(), cfg, 2, func(i int) ShardOptions {
		opts := ShardOptions{Store: store}
		if i == 0 {
			opts.DieAtSuperstep = 5
		}
		return opts
	})
	var lost *ShardLostError
	if !errors.As(err, &lost) {
		t.Fatalf("first session: %v, want ShardLostError", err)
	}
	// Corrupt one blob of the superstep-4 checkpoint.
	key := ckpt.BlobKey(cfg.Job, 4, 0)
	data, _, err := store.Get(key)
	if err != nil {
		t.Fatalf("checkpoint blob missing: %v", err)
	}
	data[len(data)/2] ^= 0xFF
	if _, err := store.Put(key, data); err != nil {
		t.Fatal(err)
	}
	rep, err := RunCluster(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatalf("resume after corruption: %v", err)
	}
	if !rep.Resumed || rep.StartSuperstep != 2 {
		t.Fatalf("resumed=%v start=%d, want fallback to superstep 2", rep.Resumed, rep.StartSuperstep)
	}
	assertBitIdentical(t, rep.Values, ref.Values, "fallback resume")
}

// TestDistFreshAfterClear ensures ckpt.Clear really empties a dist
// job's namespace:
// the next session must start from superstep 0.
func TestDistFreshAfterClear(t *testing.T) {
	pspec := ProgramSpec{Name: "wcc"}
	store := cloud.NewDatastore()
	cfg := Config{
		Job:             "wcc-clear",
		Program:         pspec,
		Graph:           testGraph,
		CheckpointEvery: 1,
		Store:           store,
	}
	if _, err := RunCluster(context.Background(), cfg, 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := ckpt.Clear(store, cfg.Job); err != nil {
		t.Fatal(err)
	}
	for _, k := range store.Keys() {
		t.Errorf("key %q survived ckpt.Clear", k)
	}
	rep, err := RunCluster(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Resumed {
		t.Error("session resumed from a cleared namespace")
	}
}

// cancelAfterSink cancels a context once it has seen `after` superstep
// events — the deterministic stand-in for "the driver decided to stop
// the cluster mid-run".
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

// TestDistRunClusterCancel is the tentpole's cancellation acceptance
// check at the dist layer: cancelling the context mid-run must stop a
// live cluster — coordinator error, every shard goroutine exited —
// within the barrier-timeout budget, and the error must NOT look like
// a shard loss (recovery loops abort instead of retrying a deliberate
// stop).
func TestDistRunClusterCancel(t *testing.T) {
	pspec := ProgramSpec{Name: "pagerank", Iterations: 10}
	store := cloud.NewDatastore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := Config{
		Job:             "pagerank-cancel",
		Program:         pspec,
		Graph:           testGraph,
		Canonical:       true,
		CheckpointEvery: 2,
		BarrierTimeout:  5 * time.Second,
		Store:           store,
		Sink:            &cancelAfterSink{after: 3, cancel: cancel},
	}
	begin := time.Now()
	_, err := RunCluster(ctx, cfg, 3, nil)
	elapsed := time.Since(begin)
	if err == nil {
		t.Fatal("cancelled cluster reported success")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cluster error = %v, want context.Canceled in its chain", err)
	}
	var lost *ShardLostError
	if errors.As(err, &lost) {
		t.Fatalf("cancellation surfaced as shard loss (%v) — recovery would retry a deliberate stop", err)
	}
	if elapsed > cfg.BarrierTimeout {
		t.Fatalf("teardown took %v, budget %v", elapsed, cfg.BarrierTimeout)
	}
	// RunCluster returning at all proves every shard goroutine exited:
	// it waits on them. And a session over the same dead context must
	// abort before booting anything — no handshake, no superstep.
	sink := &captureSink{}
	cfg.Sink = sink
	rep, rerr := RunCluster(ctx, cfg, 3, nil)
	if rep != nil || !errors.Is(rerr, context.Canceled) || errors.As(rerr, &lost) {
		t.Fatalf("session on a cancelled context: report=%v err=%v, want an immediate cancellation", rep, rerr)
	}
	if n := len(sink.byType(obs.EvSuperstep)); n != 0 {
		t.Fatalf("session on a cancelled context ran %d supersteps", n)
	}
}

// TestDistReshardAcrossSessions drives one job through three sessions
// at three *different* worker counts — 4, then 3, then 2 — by killing a
// shard in the first two. Each session resumes the same blob set under
// a new assignment (the runtime's re-decide-the-worker-count path), and
// the final values stay bit-identical.
func TestDistReshardAcrossSessions(t *testing.T) {
	pspec := ProgramSpec{Name: "pagerank", Iterations: 10}
	ref := refRun(t, pspec, true)
	if ref.Stats.Supersteps <= 6 {
		t.Fatalf("reference run too short (%d supersteps) for kills at supersteps 3 and 5", ref.Stats.Supersteps)
	}
	store := cloud.NewDatastore()
	cfg := Config{
		Job:             "pagerank-replan",
		Program:         pspec,
		Graph:           testGraph,
		Canonical:       true,
		CheckpointEvery: 2,
		Store:           store,
	}
	killAt := func(shard, superstep int) func(int) ShardOptions {
		return func(i int) ShardOptions {
			var opts ShardOptions
			if i == shard {
				opts.DieAtSuperstep = superstep
			}
			return opts
		}
	}
	// Session 0 dies at superstep 3 (durable: 2); session 1 resumes at
	// 2 on three shards and dies at 5 (durable: 4); session 2 finishes
	// from 4 on two.
	var lost *ShardLostError
	if _, err := RunCluster(context.Background(), cfg, 4, killAt(1, 3)); !errors.As(err, &lost) {
		t.Fatalf("session 0 on 4 shards: %v, want ShardLostError", err)
	}
	if _, err := RunCluster(context.Background(), cfg, 3, killAt(0, 5)); !errors.As(err, &lost) {
		t.Fatalf("session 1 on 3 shards: %v, want ShardLostError", err)
	}
	rep, err := RunCluster(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatalf("session 2 on 2 shards: %v", err)
	}
	if !rep.Resumed || rep.StartSuperstep != 4 {
		t.Fatalf("resumed=%v start=%d, want final session resuming at superstep 4", rep.Resumed, rep.StartSuperstep)
	}
	assertBitIdentical(t, rep.Values, ref.Values, "resharded recovery 4→3→2")
}
