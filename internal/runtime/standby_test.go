package runtime_test

// Warm-standby acceptance tests: forewarned worker deaths and forecast
// market evictions must cut over to a pre-booted standby cluster with
// zero recovery downtime on the virtual clock, a final in-window
// checkpoint at the eviction boundary, and bit-identical results —
// while infeasible standbys fall back to the reactive path and the run
// still finishes.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/dist"
	"hourglass/internal/obs"
	"hourglass/internal/runtime"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// transientByCount picks the spot configuration with the given worker
// count — the evictable sibling of onDemandByCount.
func transientByCount(t *testing.T, env *core.Env, count int) cloud.Config {
	t.Helper()
	for i := range env.Stats {
		c := env.Stats[i].Config
		if c.Transient && c.Count == count {
			return c
		}
	}
	t.Fatalf("no transient configuration with count %d", count)
	return cloud.Config{}
}

// spotEvictionOffset scans start offsets 30 minutes apart for one where
// the seeded market evicts the spot configuration a few supersteps into
// its first segment, using the driver's own projection arithmetic. It
// returns the offset and the projected boundary in supersteps, or a
// negative offset when the market offers none.
func spotEvictionOffset(h *harness, spot cloud.Config, total int) (units.Seconds, int) {
	var cs *core.ConfigStats
	for i := range h.env.Stats {
		if h.env.Stats[i].Config.ID() == spot.ID() {
			cs = &h.env.Stats[i]
		}
	}
	secPerStep := float64(cs.Exec) / float64(total)
	ev := sim.Evictor{Market: h.env.Market}
	for i := 0; i < 600; i++ {
		s := units.Seconds(float64(i) * 1800)
		avail, err := h.env.Market.NextAvailable(spot, s)
		if err != nil {
			continue
		}
		readyAt := avail + cs.Boot + cs.Load
		ne := ev.Next(spot, readyAt)
		if math.IsInf(float64(ne), 1) {
			continue
		}
		if k := int(float64(ne-readyAt) / secPerStep); k >= 3 && k < total-1 {
			return s, k
		}
	}
	return -1, 0
}

// assertStandbyFoldParity folds the event stream and checks every
// warm-standby counter against the report.
func assertStandbyFoldParity(t *testing.T, sink *listSink, rep runtime.Report) obs.Summary {
	t.Helper()
	sum := obs.Summarize(sink.snapshot())
	if sum.CostUSD != float64(rep.Cost) {
		t.Errorf("folded cost %v != report %v", sum.CostUSD, float64(rep.Cost))
	}
	if sum.Warnings != rep.Warnings || sum.WarmCutovers != rep.WarmCutovers ||
		sum.StandbyMisses != rep.StandbyMisses {
		t.Errorf("standby fold mismatch: warnings %d/%d cutovers %d/%d misses %d/%d",
			sum.Warnings, rep.Warnings, sum.WarmCutovers, rep.WarmCutovers,
			sum.StandbyMisses, rep.StandbyMisses)
	}
	if sum.RecoverySec != float64(rep.RecoveryTime) {
		t.Errorf("folded recovery %v != report %v", sum.RecoverySec, float64(rep.RecoveryTime))
	}
	if sum.Evictions != rep.Evictions || sum.Deploys != rep.Reconfigs {
		t.Errorf("fold mismatch: evictions %d/%d deploys %d/%d",
			sum.Evictions, rep.Evictions, sum.Deploys, rep.Reconfigs)
	}
	return sum
}

// TestExecuteDistWarmCutoverOnForewarnedDeath is the tentpole
// acceptance test on the death path: the launcher forewarns that a
// worker of the first deployment (8 shards) dies at superstep 6, so the
// driver arms a standby at the fallback count (4 shards), forces a
// final checkpoint at the boundary (superstep 5 — off the every-2
// cadence, provable only via ForceCheckpointAt), boots and prefetches
// the standby concurrently with the doomed session, and cuts over at
// the loss instant with zero recovery downtime. Delta checkpointing is
// on, so the cutover also proves chained-manifest resume through the
// full runtime path.
func TestExecuteDistWarmCutoverOnForewarnedDeath(t *testing.T) {
	h := getHarness(t, "pagerank")
	ref := distReference(t)
	store := cloud.NewDatastore()
	sink := &listSink{}
	prov := &scriptedProv{configs: []cloud.Config{
		onDemandByCount(t, h.env, 8),
		onDemandByCount(t, h.env, 4),
	}}
	launcher := deathLauncher(t, store, 6, true, true)
	opts := h.distOptions(t, store, "sb-death", prov, ref.Stats.Supersteps, launcher)
	opts.Sink = sink
	opts.WarningWindow = 2000
	opts.DeltaChain = 4
	rep, err := runtime.ExecuteDist(context.Background(), opts, 0, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished {
		t.Fatal("run did not finish")
	}
	assertBitIdentical(t, ref.Values, rep.Values)
	if rep.Warnings != 1 || rep.WarmCutovers != 1 || rep.StandbyMisses != 0 {
		t.Fatalf("warnings=%d cutovers=%d misses=%d, want 1/1/0",
			rep.Warnings, rep.WarmCutovers, rep.StandbyMisses)
	}
	if rep.Evictions != 1 || rep.Restarts != 1 {
		t.Fatalf("evictions=%d restarts=%d, want 1/1", rep.Evictions, rep.Restarts)
	}
	if len(rep.ShardCounts) != 2 || rep.ShardCounts[0] != 8 || rep.ShardCounts[1] != 4 {
		t.Fatalf("ShardCounts = %v, want [8 4]", rep.ShardCounts)
	}
	// The whole point: the standby booted inside the warning window, so
	// the eviction cost zero downtime on the virtual clock.
	if rep.RecoveryTime != 0 {
		t.Fatalf("RecoveryTime = %v on a pure warm-cutover run, want 0", rep.RecoveryTime)
	}

	var deploys, cutovers []obs.Event
	forcedSave, deltaSaves := false, 0
	for _, e := range sink.snapshot() {
		switch e.Type {
		case obs.EvDeploy:
			deploys = append(deploys, e)
		case obs.EvCutover:
			cutovers = append(cutovers, e)
		case obs.EvCheckpoint:
			if e.Superstep == 5 {
				forcedSave = true
			}
		case obs.EvDeltaSave:
			deltaSaves++
		}
	}
	if !forcedSave {
		t.Error("no checkpoint sealed at superstep 5: the forced in-window save never happened")
	}
	if deltaSaves < 2 {
		t.Errorf("%d delta saves, want >= 2 (cadence 2,4 full+delta chain before the boundary)", deltaSaves)
	}
	if len(cutovers) != 1 {
		t.Fatalf("%d cutover events, want 1", len(cutovers))
	}
	if len(deploys) != 2 {
		t.Fatalf("%d deploy events, want 2", len(deploys))
	}
	if deploys[1].DurSec != 0 {
		t.Errorf("warm deploy DurSec = %v, want 0 (boot+reload paid inside the window)", deploys[1].DurSec)
	}
	if !deploys[1].Reload {
		t.Error("warm deploy not flagged as a reload")
	}
	// The adopted worker set is the standby launch (deployment 1), not a
	// fresh boot.
	if deploys[1].Proc == "" || deploys[1].Proc[:len("goroutine:1.")] != "goroutine:1." {
		t.Errorf("warm deploy proc %q, want the standby set goroutine:1.*", deploys[1].Proc)
	}
	assertStandbyFoldParity(t, sink, rep)

	if keys := store.Keys(); len(keys) != 0 {
		t.Fatalf("%d keys survived a successful run: %v", len(keys), keys)
	}
}

// TestExecuteDistWarmCutoverOnMarketEviction exercises the forecast
// path: a transient first deployment whose price crossing the evictor
// projects mid-run. The monitor must let the forced boundary checkpoint
// seal before cancelling (warm mode moves the trip from EvSuperstep to
// EvCheckpoint), and the pre-booted on-demand standby takes over at the
// crossing with zero downtime. The test locates a start offset where
// the seeded market evicts the spot cluster a few supersteps in, using
// the driver's own projection arithmetic.
func TestExecuteDistWarmCutoverOnMarketEviction(t *testing.T) {
	h := getHarness(t, "pagerank")
	ref := distReference(t)
	total := ref.Stats.Supersteps
	spot := transientByCount(t, h.env, 8)
	start, boundary := spotEvictionOffset(h, spot, total)
	if start < 0 {
		t.Fatal("no start offset puts a price crossing 3..total-2 supersteps into the spot segment")
	}
	t.Logf("start offset %.0fs: spot eviction projected after superstep %d", float64(start), boundary)

	store := cloud.NewDatastore()
	sink := &listSink{}
	prov := &scriptedProv{configs: []cloud.Config{spot, onDemandByCount(t, h.env, 4)}}
	opts := h.distOptions(t, store, "sb-market", prov, total,
		&runtime.LoopbackLauncher{Store: store, Logf: t.Logf})
	opts.Sink = sink
	opts.WarningWindow = 600
	rep, err := runtime.ExecuteDist(context.Background(), opts, start, start+200_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished {
		t.Fatal("run did not finish")
	}
	assertBitIdentical(t, ref.Values, rep.Values)
	if rep.Evictions < 1 {
		t.Fatal("projected market eviction never landed")
	}
	if rep.Warnings < 1 || rep.WarmCutovers < 1 {
		t.Fatalf("warnings=%d cutovers=%d, want >= 1 each", rep.Warnings, rep.WarmCutovers)
	}
	if rep.RecoveryTime != 0 {
		t.Fatalf("RecoveryTime = %v, want 0 (every eviction was a warm cutover)", rep.RecoveryTime)
	}
	// Warm mode must have sealed the forced checkpoint at the eviction
	// boundary itself — strictly past what the every-2 cadence alone
	// could guarantee durable.
	sealedAtBoundary := false
	for _, e := range sink.snapshot() {
		if e.Type == obs.EvCheckpoint && e.Superstep == boundary {
			sealedAtBoundary = true
		}
	}
	if !sealedAtBoundary {
		t.Errorf("no checkpoint sealed at the eviction boundary %d: the in-window save was lost", boundary)
	}
	assertStandbyFoldParity(t, sink, rep)
}

// TestExecuteDistStandbyNotReady pins the fallback contract: a warning
// window too short to boot anything (50 virtual seconds vs a ~90 s
// boot) records a standby miss and the driver recovers reactively —
// the run still finishes bit-identically, but the redeploy downtime is
// real and shows up in RecoveryTime.
func TestExecuteDistStandbyNotReady(t *testing.T) {
	h := getHarness(t, "pagerank")
	ref := distReference(t)
	store := cloud.NewDatastore()
	sink := &listSink{}
	prov := &scriptedProv{configs: []cloud.Config{
		onDemandByCount(t, h.env, 8),
		onDemandByCount(t, h.env, 4),
	}}
	launcher := deathLauncher(t, store, 6, true, true)
	opts := h.distOptions(t, store, "sb-miss", prov, ref.Stats.Supersteps, launcher)
	opts.Sink = sink
	opts.WarningWindow = 50
	rep, err := runtime.ExecuteDist(context.Background(), opts, 0, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished {
		t.Fatal("run did not finish")
	}
	assertBitIdentical(t, ref.Values, rep.Values)
	if rep.Warnings != 1 || rep.StandbyMisses != 1 || rep.WarmCutovers != 0 {
		t.Fatalf("warnings=%d misses=%d cutovers=%d, want 1/1/0",
			rep.Warnings, rep.StandbyMisses, rep.WarmCutovers)
	}
	if rep.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", rep.Evictions)
	}
	if rep.RecoveryTime <= 0 {
		t.Fatalf("RecoveryTime = %v, want > 0 (reactive redeploy after the miss)", rep.RecoveryTime)
	}
	// Even a missed standby keeps the in-window save: 50 s fits the
	// profiled checkpoint save, so the boundary superstep 5 is durable.
	forcedSave := false
	for _, e := range sink.snapshot() {
		if e.Type == obs.EvCheckpoint && e.Superstep == 5 {
			forcedSave = true
		}
	}
	if !forcedSave {
		t.Error("no checkpoint sealed at superstep 5 despite the window fitting a save")
	}
	assertStandbyFoldParity(t, sink, rep)
}

// TestExecuteDistStandbyThenUnforewarnedLoss chains both recovery
// modes in one run: a forewarned death absorbed by a warm cutover,
// then an unforewarned death of the adopted standby set handled by the
// classic reactive path. The run must survive both and stay
// bit-identical.
func TestExecuteDistStandbyThenUnforewarnedLoss(t *testing.T) {
	h := getHarness(t, "pagerank")
	ref := distReference(t)
	if ref.Stats.Supersteps <= 10 {
		t.Fatalf("reference run too short (%d supersteps) for deaths at 6 and 9", ref.Stats.Supersteps)
	}
	store := cloud.NewDatastore()
	sink := &listSink{}
	prov := &scriptedProv{configs: []cloud.Config{
		onDemandByCount(t, h.env, 8),
		onDemandByCount(t, h.env, 4),
	}}
	launcher := &runtime.LoopbackLauncher{
		Store: store,
		ShardOpts: func(attempt, shard int) dist.ShardOptions {
			opts := dist.ShardOptions{Store: store}
			if attempt == 0 && shard == 1 {
				opts.DieAtSuperstep = 6
			}
			if attempt == 1 && shard == 0 {
				opts.DieAtSuperstep = 9 // the standby set dies too — unforewarned
			}
			return opts
		},
		DeathAt: func(attempt int) int {
			if attempt == 0 {
				return 6
			}
			return 0
		},
		Logf: t.Logf,
	}
	opts := h.distOptions(t, store, "sb-twice", prov, ref.Stats.Supersteps, launcher)
	opts.Sink = sink
	opts.WarningWindow = 2000
	rep, err := runtime.ExecuteDist(context.Background(), opts, 0, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished {
		t.Fatal("run did not finish")
	}
	assertBitIdentical(t, ref.Values, rep.Values)
	if rep.WarmCutovers != 1 || rep.Warnings != 1 {
		t.Fatalf("cutovers=%d warnings=%d, want 1/1", rep.WarmCutovers, rep.Warnings)
	}
	if rep.Evictions != 2 || rep.Restarts != 2 {
		t.Fatalf("evictions=%d restarts=%d, want 2/2", rep.Evictions, rep.Restarts)
	}
	if len(rep.ShardCounts) != 3 {
		t.Fatalf("ShardCounts = %v, want three deployments", rep.ShardCounts)
	}
	if rep.RecoveryTime <= 0 {
		t.Fatalf("RecoveryTime = %v, want > 0 (the second, unforewarned loss recovers cold)", rep.RecoveryTime)
	}
	assertStandbyFoldParity(t, sink, rep)
}

// TestExecuteDistDiscardedStandbyDoesNotHang is the regression test for
// the teardown deadlock: a forewarned death that never happens leaves a
// booted standby — workers parked reading a welcome the coordinator will
// never send — to be discarded when the job finishes under the original
// session. Teardown must release the listener before waiting for the
// workers; waiting first blocks forever. The run is bounded so the
// regression fails instead of wedging the suite.
func TestExecuteDistDiscardedStandbyDoesNotHang(t *testing.T) {
	h := getHarness(t, "pagerank")
	ref := distReference(t)
	store := cloud.NewDatastore()
	sink := &listSink{}
	prov := &scriptedProv{configs: []cloud.Config{
		onDemandByCount(t, h.env, 8),
		onDemandByCount(t, h.env, 4),
	}}
	launcher := deathLauncher(t, store, 6, false, true) // a false alarm: nothing dies
	opts := h.distOptions(t, store, "sb-discard", prov, ref.Stats.Supersteps, launcher)
	opts.Sink = sink
	opts.WarningWindow = 2000

	type outcome struct {
		rep runtime.Report
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		rep, err := runtime.ExecuteDist(context.Background(), opts, 0, 200_000)
		done <- outcome{rep, err}
	}()
	var rep runtime.Report
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		rep = o.rep
	case <-time.After(60 * time.Second):
		t.Fatal("ExecuteDist did not return: discarding the booted standby deadlocked the driver")
	}
	if !rep.Finished {
		t.Fatal("run did not finish")
	}
	assertBitIdentical(t, ref.Values, rep.Values)
	if rep.Warnings != 1 || rep.WarmCutovers != 0 || rep.StandbyMisses != 1 {
		t.Fatalf("warnings=%d cutovers=%d misses=%d, want 1/0/1",
			rep.Warnings, rep.WarmCutovers, rep.StandbyMisses)
	}
	if rep.Evictions != 0 || len(rep.ShardCounts) != 1 {
		t.Fatalf("evictions=%d ShardCounts=%v, want an uninterrupted single deployment",
			rep.Evictions, rep.ShardCounts)
	}
	assertStandbyFoldParity(t, sink, rep)
}

// TestExecuteDistWarmBeatsColdOnCheckedInTraces is the recovery-time
// acceptance check on the checked-in r4 market: the same spot schedule
// run twice from the same start offset — once reactive, once with a
// warning window — and the warm run's recovery downtime must be
// strictly below the cold run's.
func TestExecuteDistWarmBeatsColdOnCheckedInTraces(t *testing.T) {
	h := getSoakHarness(t, "pagerank")
	ref := distReference(t)
	total := ref.Stats.Supersteps
	spot := transientByCount(t, h.env, 8)
	start, _ := spotEvictionOffset(h, spot, total)
	if start < 0 {
		t.Fatal("checked-in trace offers no start offset with a mid-run spot eviction")
	}

	run := func(job string, window units.Seconds) runtime.Report {
		t.Helper()
		store := cloud.NewDatastore()
		prov := &scriptedProv{configs: []cloud.Config{spot, onDemandByCount(t, h.env, 4)}}
		opts := h.distOptions(t, store, job, prov, total,
			&runtime.LoopbackLauncher{Store: store, Logf: t.Logf})
		opts.WarningWindow = window
		rep, err := runtime.ExecuteDist(context.Background(), opts, start, start+200_000)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Finished {
			t.Fatal("run did not finish")
		}
		assertBitIdentical(t, ref.Values, rep.Values)
		return rep
	}

	cold := run("sb-cold", 0)
	warm := run("sb-warm", 600)
	if cold.Evictions < 1 {
		t.Fatal("cold run saw no eviction — the located offset is stale")
	}
	if cold.RecoveryTime <= 0 {
		t.Fatalf("cold RecoveryTime = %v, want > 0", cold.RecoveryTime)
	}
	if warm.WarmCutovers < 1 {
		t.Fatal("warm run absorbed no eviction via cutover")
	}
	if warm.RecoveryTime >= cold.RecoveryTime {
		t.Fatalf("warm RecoveryTime %v not strictly below cold %v",
			warm.RecoveryTime, cold.RecoveryTime)
	}
	t.Logf("checked-in trace, start %.0fs: cold recovery %.0fs over %d evictions, warm %.0fs with %d cutovers",
		float64(start), float64(cold.RecoveryTime), cold.Evictions,
		float64(warm.RecoveryTime), warm.WarmCutovers)
}

// TestWarmStandbyChaosSchedules sweeps seeded warm-standby schedules:
// slack-aware provisioning over the synthetic market, a forewarned
// death on the first deployment, per-seed warning windows and delta
// chains. Every schedule must finish bit-identical with the event
// stream folding back to the report exactly. Nightly runs rotate
// -chaos-seed-base to sweep fresh windows and death schedules.
func TestWarmStandbyChaosSchedules(t *testing.T) {
	const schedules = 6
	var warnings, cutovers, misses int
	for i := 0; i < schedules; i++ {
		seed := *chaosSeedBase + int64(11_000+i)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := getHarness(t, "pagerank")
			ref := distReference(t)
			rng := rand.New(rand.NewSource(seed))
			store := cloud.NewDatastore()
			sink := &listSink{}
			dieAt := 3 + rng.Intn(6)
			window := units.Seconds(300 + rng.Float64()*1500)
			span := float64(h.horizon - h.relDl)
			if span < 0 {
				span = 0
			}
			start := units.Seconds(rng.Float64() * span)
			launcher := &runtime.LoopbackLauncher{
				Store: store,
				ShardOpts: func(attempt, shard int) dist.ShardOptions {
					opts := dist.ShardOptions{Store: store}
					if attempt == 0 && shard == 0 {
						opts.DieAtSuperstep = dieAt
					}
					return opts
				},
				DeathAt: func(attempt int) int {
					if attempt == 0 {
						return dieAt
					}
					return 0
				},
				Logf: t.Logf,
			}
			opts := h.distOptions(t, store, fmt.Sprintf("sb-chaos/%d", seed),
				h.provisioner(t), ref.Stats.Supersteps, launcher)
			opts.Sink = sink
			opts.WarningWindow = window
			opts.DeltaChain = rng.Intn(5)
			rep, err := runtime.ExecuteDist(context.Background(), opts, start, start+h.relDl)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			if !rep.Finished {
				t.Fatal("run did not finish")
			}
			assertBitIdentical(t, ref.Values, rep.Values)
			assertStandbyFoldParity(t, sink, rep)
			warnings += rep.Warnings
			cutovers += rep.WarmCutovers
			misses += rep.StandbyMisses
		})
	}
	if warnings == 0 {
		t.Error("no eviction warnings fired across the sweep — the chaos hook is dead")
	}
	t.Logf("warm-standby chaos: %d warnings, %d cutovers, %d misses across %d schedules",
		warnings, cutovers, misses, schedules)
}
