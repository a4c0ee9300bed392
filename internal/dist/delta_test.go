package dist

// Delta-checkpoint acceptance tests: chained manifests must round-trip
// bit-identically across shard counts, corruption anywhere in a chain
// must fall back to the newest fully-valid chain (ultimately the full
// root), and delta blobs must actually be smaller than full ones on a
// converging program.

import (
	"context"
	"errors"
	"testing"

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/obs"
)

// snapshot copies the captured event list for summary folding.
func (s *captureSink) snapshot() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Event(nil), s.events...)
}

// TestDistDeltaChainRoundTrip builds a maximal chain — one full root
// plus DeltaChain deltas at checkpoint-every-1 cadence — kills the
// session at its tip, and resumes at a different shard count. The
// overlay restore must land exactly on the tip and stay bit-identical.
func TestDistDeltaChainRoundTrip(t *testing.T) {
	pspec := ProgramSpec{Name: "pagerank", Iterations: 10}
	ref := refRun(t, pspec, true)
	store := cloud.NewDatastore()
	sink := &captureSink{}
	cfg := Config{
		Job:             "pagerank-delta",
		Program:         pspec,
		Graph:           testGraph,
		Canonical:       true,
		CheckpointEvery: 1,
		DeltaChain:      3,
		Store:           store,
		Sink:            sink,
	}
	_, err := RunCluster(context.Background(), cfg, 4, func(i int) ShardOptions {
		opts := ShardOptions{Store: store}
		if i == 0 {
			opts.DieAtSuperstep = 4
		}
		return opts
	})
	var lost *ShardLostError
	if !errors.As(err, &lost) {
		t.Fatalf("first session: %v, want ShardLostError", err)
	}

	// Checkpoints 1..4 sealed (checkpoint S is the state entering
	// superstep S): full at 1, then a delta chain of 3.
	ckpts := sink.byType(obs.EvCheckpoint)
	if len(ckpts) != 4 {
		t.Fatalf("%d checkpoints, want 4", len(ckpts))
	}
	for i, e := range ckpts {
		if e.Superstep != i+1 || e.Chain != i {
			t.Errorf("checkpoint %d: superstep %d chain %d, want %d/%d",
				i, e.Superstep, e.Chain, i+1, i)
		}
	}
	if deltas := sink.byType(obs.EvDeltaSave); len(deltas) != 3 {
		t.Fatalf("%d delta-save events, want 3", len(deltas))
	}

	// Resume at a different shard count: every worker reloads the whole
	// 4-blob chain per link and re-partitions.
	rep, err := RunCluster(context.Background(), cfg, 3, nil)
	if err != nil {
		t.Fatalf("resume with 3 shards: %v", err)
	}
	if !rep.Resumed || rep.StartSuperstep != 4 {
		t.Fatalf("resumed=%v start=%d, want resume at the chain tip 4", rep.Resumed, rep.StartSuperstep)
	}
	assertBitIdentical(t, rep.Values, ref.Values, "delta chain resume")
}

// TestDistDeltaChainBoundForcesFull checks the chain bound: with
// DeltaChain=2 at every-1 cadence the chain pattern must be
// full,δ,δ,full,δ,δ,... — a corrupt-chain blast radius bounded by the
// config, not the run length.
func TestDistDeltaChainBoundForcesFull(t *testing.T) {
	pspec := ProgramSpec{Name: "pagerank", Iterations: 10}
	store := cloud.NewDatastore()
	sink := &captureSink{}
	cfg := Config{
		Job:             "pagerank-bound",
		Program:         pspec,
		Graph:           testGraph,
		Canonical:       true,
		CheckpointEvery: 1,
		DeltaChain:      2,
		Store:           store,
		Sink:            sink,
	}
	if _, err := RunCluster(context.Background(), cfg, 2, nil); err != nil {
		t.Fatal(err)
	}
	for i, e := range sink.byType(obs.EvCheckpoint) {
		if want := i % 3; e.Chain != want {
			t.Errorf("checkpoint at superstep %d: chain %d, want %d", e.Superstep, e.Chain, want)
		}
	}
}

// TestDistDeltaCorruptMidChain corrupts a delta blob in the middle of
// the chain: every manifest whose restore list crosses the corrupt link
// must be rejected, and resume lands on the newest chain that verifies
// end to end.
func TestDistDeltaCorruptMidChain(t *testing.T) {
	pspec := ProgramSpec{Name: "pagerank", Iterations: 10}
	ref := refRun(t, pspec, true)
	store := cloud.NewDatastore()
	cfg := Config{
		Job:             "pagerank-midchain",
		Program:         pspec,
		Graph:           testGraph,
		Canonical:       true,
		CheckpointEvery: 1,
		DeltaChain:      4,
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
	// Chain on disk: full@1 ← δ@2 ← δ@3 ← δ@4. Corrupt the δ@3 blob of
	// shard 0: manifests 4 and 3 become unrestorable, manifest 2 stays
	// valid.
	key := ckpt.BlobKey(cfg.Job, 3, 0)
	data, _, err := store.Get(key)
	if err != nil {
		t.Fatalf("mid-chain blob missing: %v", err)
	}
	data[len(data)/2] ^= 0xFF
	if _, err := store.Put(key, data); err != nil {
		t.Fatal(err)
	}
	rep, err := RunCluster(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatalf("resume after mid-chain corruption: %v", err)
	}
	if !rep.Resumed || rep.StartSuperstep != 2 {
		t.Fatalf("resumed=%v start=%d, want fallback to superstep 2", rep.Resumed, rep.StartSuperstep)
	}
	assertBitIdentical(t, rep.Values, ref.Values, "mid-chain fallback resume")
}

// TestDistDeltaCorruptFullRoot corrupts the chain's full root: nothing
// downstream of it can be trusted, so the session must restart from
// scratch — and still converge bit-identically.
func TestDistDeltaCorruptFullRoot(t *testing.T) {
	pspec := ProgramSpec{Name: "pagerank", Iterations: 10}
	ref := refRun(t, pspec, true)
	store := cloud.NewDatastore()
	cfg := Config{
		Job:             "pagerank-rootloss",
		Program:         pspec,
		Graph:           testGraph,
		Canonical:       true,
		CheckpointEvery: 1,
		DeltaChain:      4,
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
	key := ckpt.BlobKey(cfg.Job, 1, 0)
	data, _, err := store.Get(key)
	if err != nil {
		t.Fatalf("root blob missing: %v", err)
	}
	data[len(data)/2] ^= 0xFF
	if _, err := store.Put(key, data); err != nil {
		t.Fatal(err)
	}
	rep, err := RunCluster(context.Background(), cfg, 2, nil)
	if err != nil {
		t.Fatalf("restart after root corruption: %v", err)
	}
	if rep.Resumed {
		t.Fatalf("resumed at superstep %d over a corrupt full root", rep.StartSuperstep)
	}
	assertBitIdentical(t, rep.Values, ref.Values, "fresh restart after root loss")
}

// TestDistDeltaSparseSavings runs a converging program (WCC: label
// propagation settles after the first couple of supersteps) at every-1
// cadence and demands that the average delta checkpoint is materially
// smaller than the average full one — the whole point of encoding
// deltas.
func TestDistDeltaSparseSavings(t *testing.T) {
	pspec := ProgramSpec{Name: "wcc"}
	ref := refRun(t, pspec, false)
	store := cloud.NewDatastore()
	sink := &captureSink{}
	cfg := Config{
		Job:             "wcc-sparse",
		Program:         pspec,
		Graph:           testGraph,
		CheckpointEvery: 1,
		DeltaChain:      8,
		Store:           store,
		Sink:            sink,
	}
	rep, err := RunCluster(context.Background(), cfg, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitIdentical(t, rep.Values, ref.Values, "sparse delta run")

	var fullBytes, deltaBytes, fulls, deltas, minDelta int64
	for _, e := range sink.byType(obs.EvCheckpoint) {
		if e.Chain == 0 {
			fullBytes += e.WireBytes
			fulls++
		} else {
			deltaBytes += e.WireBytes
			deltas++
			if minDelta == 0 || e.WireBytes < minDelta {
				minDelta = e.WireBytes
			}
		}
	}
	if fulls == 0 || deltas == 0 {
		t.Fatalf("checkpoint mix fulls=%d deltas=%d, want both", fulls, deltas)
	}
	avgFull := fullBytes / fulls
	avgDelta := deltaBytes / deltas
	if avgDelta*2 >= avgFull {
		t.Fatalf("avg delta %dB not materially below avg full %dB", avgDelta, avgFull)
	}
	// Once labels settle, a delta is near-empty: the convergence tail is
	// where chained checkpoints pay off hardest.
	if minDelta*10 >= avgFull {
		t.Errorf("smallest delta %dB, want under a tenth of a full %dB", minDelta, avgFull)
	}
	t.Logf("wcc deltas: avg %dB over %d deltas vs avg %dB over %d fulls", avgDelta, deltas, avgFull, fulls)
	// The summary fold sees the same split.
	sum := obs.Summarize(sink.snapshot())
	if sum.FullBytes != fullBytes || sum.DeltaBytes != deltaBytes {
		t.Errorf("fold full/delta bytes %d/%d, want %d/%d", sum.FullBytes, sum.DeltaBytes, fullBytes, deltaBytes)
	}
}
