package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/perfmodel"
	"hourglass/internal/units"
)

// testEnv mirrors §8.1: historical month for eviction stats, live month
// for the simulated market.
func testEnv(t testing.TB, job perfmodel.Job) *core.Env {
	t.Helper()
	historical := cloud.GenerateSet(cloud.Catalogue(), cloud.GenParams{Days: 8, Seed: 1010})
	em, err := cloud.BuildEvictionModel(historical, 256)
	if err != nil {
		t.Fatal(err)
	}
	live := cloud.GenerateSet(cloud.Catalogue(), cloud.GenParams{Days: 8, Seed: 2020})
	env, err := core.NewEnv(job, perfmodel.Default(), cloud.DefaultConfigs(), cloud.NewMarket(live), em)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func deadlineFor(env *core.Env, frac float64) units.Seconds {
	return env.LRC.Fixed + env.LRC.Exec + units.Seconds(frac*float64(env.LRC.Exec))
}

func TestOnDemandRunAlwaysMeetsDeadline(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	r := &Runner{Env: env}
	for _, start := range []units.Seconds{0, 3 * units.Hour, 2 * units.Day} {
		res, err := r.Run(&core.OnDemandOnly{Env: env}, start, start+deadlineFor(env, 0.1))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Finished || res.MissedDeadline {
			t.Errorf("start %v: finished=%v missed=%v", start, res.Finished, res.MissedDeadline)
		}
		if res.Evictions != 0 {
			t.Errorf("on-demand run suffered %d evictions", res.Evictions)
		}
		// Cost ≈ the baseline (save-time differences only).
		base := float64(Baseline(env))
		if got := float64(res.Cost); got < base*0.95 || got > base*1.10 {
			t.Errorf("on-demand cost %v, baseline %v", res.Cost, Baseline(env))
		}
	}
}

func TestHourglassNeverMissesDeadlines(t *testing.T) {
	// The paper's core guarantee (always-0 labels in Figures 1 and 5).
	for _, job := range []perfmodel.Job{perfmodel.JobSSSP, perfmodel.JobPageRank} {
		env := testEnv(t, job)
		r := &Runner{Env: env}
		for _, frac := range []float64{0.1, 0.5, 1.0} {
			batch, err := r.RunBatch(func() core.Provisioner { return core.NewSlackAware(env) },
				frac, 30, 42)
			if err != nil {
				t.Fatalf("%s slack %v: %v", job.Name, frac, err)
			}
			if batch.MissedFraction != 0 {
				t.Errorf("%s slack %.0f%%: hourglass missed %.0f%% of deadlines",
					job.Name, frac*100, batch.MissedFraction*100)
			}
		}
	}
}

func TestHourglassGCNoMissesAndSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("long-job batch")
	}
	env := testEnv(t, perfmodel.JobGC)
	r := &Runner{Env: env}
	batch, err := r.RunBatch(func() core.Provisioner { return core.NewSlackAware(env) }, 0.5, 25, 7)
	if err != nil {
		t.Fatal(err)
	}
	if batch.MissedFraction != 0 {
		t.Errorf("hourglass missed %.0f%% of GC deadlines", batch.MissedFraction*100)
	}
	if batch.MeanNormCost >= 1.0 {
		t.Errorf("hourglass GC normalized cost %.2f, expected below on-demand", batch.MeanNormCost)
	}
}

func TestHourglassCheaperThanOnDemand(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	r := &Runner{Env: env}
	hg, err := r.RunBatch(func() core.Provisioner { return core.NewSlackAware(env) }, 1.0, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	od, err := r.RunBatch(func() core.Provisioner { return &core.OnDemandOnly{Env: env} }, 1.0, 40, 11)
	if err != nil {
		t.Fatal(err)
	}
	if hg.MeanNormCost >= od.MeanNormCost {
		t.Errorf("hourglass %.3f not cheaper than on-demand %.3f", hg.MeanNormCost, od.MeanNormCost)
	}
	// Figure 5 shape: with 100% slack the savings are substantial.
	if hg.MeanNormCost > 0.8 {
		t.Errorf("hourglass normalized cost %.2f, want < 0.8 at 100%% slack", hg.MeanNormCost)
	}
}

func TestGreedyMissesDeadlinesOnLongJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("long-job batch")
	}
	// The §2 dilemma: eager/greedy provisioning over a 4-hour job with a
	// small slack misses deadlines (79% in Figure 1).
	env := testEnv(t, perfmodel.JobGC)
	r := &Runner{Env: env}
	batch, err := r.RunBatch(func() core.Provisioner { return core.NewGreedy(env) }, 0.2, 25, 13)
	if err != nil {
		t.Fatal(err)
	}
	if batch.MissedFraction == 0 {
		t.Errorf("greedy missed no deadlines on GC at 20%% slack — dilemma not reproduced")
	}
}

func TestDPWrapperNeverMisses(t *testing.T) {
	if testing.Short() {
		t.Skip("long-job batch")
	}
	env := testEnv(t, perfmodel.JobGC)
	r := &Runner{Env: env}
	batch, err := r.RunBatch(func() core.Provisioner { return core.NewDP(core.NewGreedy(env), env) },
		0.3, 25, 17)
	if err != nil {
		t.Fatal(err)
	}
	if batch.MissedFraction != 0 {
		t.Errorf("greedy+DP missed %.0f%% of deadlines", batch.MissedFraction*100)
	}
}

func TestRunAccountsEvictionsAndCheckpoints(t *testing.T) {
	env := testEnv(t, perfmodel.JobGC)
	r := &Runner{Env: env}
	// Greedy on a long job across many starts: some runs must observe
	// evictions and all transient segments checkpoint.
	sawEviction := false
	sawCheckpoint := false
	for i := 0; i < 20; i++ {
		start := units.Seconds(i) * 8 * units.Hour
		res, err := r.Run(core.NewGreedy(env), start, start+deadlineFor(env, 1.0))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Finished {
			t.Fatalf("run %d did not finish", i)
		}
		if res.Evictions > 0 {
			sawEviction = true
		}
		if res.Checkpoints > 0 {
			sawCheckpoint = true
		}
		if res.Cost <= 0 {
			t.Errorf("run %d: non-positive cost", i)
		}
	}
	if !sawEviction {
		t.Error("no run observed an eviction — spot market too calm for the experiment")
	}
	if !sawCheckpoint {
		t.Error("no run checkpointed")
	}
}

func TestBaselinePositive(t *testing.T) {
	env := testEnv(t, perfmodel.JobSSSP)
	if Baseline(env) <= 0 {
		t.Fatal("baseline not positive")
	}
}

func TestBatchAggregation(t *testing.T) {
	env := testEnv(t, perfmodel.JobSSSP)
	r := &Runner{Env: env}
	batch, err := r.RunBatch(func() core.Provisioner { return &core.OnDemandOnly{Env: env} }, 0.5, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Runs != 10 {
		t.Errorf("runs = %d", batch.Runs)
	}
	if batch.MeanNormCost < 0.9 || batch.MeanNormCost > 1.1 {
		t.Errorf("on-demand normalized cost = %.3f, want ≈ 1", batch.MeanNormCost)
	}
	if batch.MissedFraction != 0 {
		t.Errorf("on-demand missed %.2f", batch.MissedFraction)
	}
}

func TestSpotOnRuns(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	r := &Runner{Env: env}
	batch, err := r.RunBatch(func() core.Provisioner { return core.NewSpotOn(env) }, 0.5, 15, 5)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Runs != 15 {
		t.Errorf("spotOn batch incomplete: %d", batch.Runs)
	}
}

func TestWarningWindowNeverHurts(t *testing.T) {
	// §9 extension: an eviction warning that fits the checkpoint upload
	// preserves in-flight progress, so cost must not increase and
	// deadlines must still hold — for the plan-aware strategies (which
	// fold the window into their failure branches) as much as for
	// plan-oblivious baselines that only benefit at runtime.
	env := testEnv(t, perfmodel.JobGC)
	strategies := []struct {
		name       string
		factory    func() core.Provisioner
		guaranteed bool // strategy promises MissedFraction == 0
	}{
		{"slack-aware", func() core.Provisioner {
			p := core.NewSlackAware(env)
			p.WarningWindow = 120
			return p
		}, true},
		{"relaxed", func() core.Provisioner {
			p := core.NewRelaxed(env, env.LRC.Exec/2)
			p.Inner.WarningWindow = 120
			return p
		}, false},
		{"spoton", func() core.Provisioner { return core.NewSpotOn(env) }, false},
	}
	for _, s := range strategies {
		t.Run(s.name, func(t *testing.T) {
			plain := &Runner{Env: env}
			warned := &Runner{Env: env, WarningWindow: 120}
			// The plain batch runs the unmodified strategy: the warning
			// must be absent from both the plan and the runtime.
			var plainFactory func() core.Provisioner
			switch s.name {
			case "slack-aware":
				plainFactory = func() core.Provisioner { return core.NewSlackAware(env) }
			case "relaxed":
				plainFactory = func() core.Provisioner { return core.NewRelaxed(env, env.LRC.Exec/2) }
			default:
				plainFactory = s.factory
			}
			pb, err := plain.RunBatch(plainFactory, 0.3, 20, 77)
			if err != nil {
				t.Fatal(err)
			}
			wp, err := warned.RunBatch(s.factory, 0.3, 20, 77)
			if err != nil {
				t.Fatal(err)
			}
			if s.guaranteed && wp.MissedFraction != 0 {
				t.Errorf("warning-aware run missed %.2f", wp.MissedFraction)
			}
			if wp.MissedFraction > pb.MissedFraction {
				t.Errorf("warning raised misses: %.2f vs %.2f", wp.MissedFraction, pb.MissedFraction)
			}
			if wp.MeanNormCost > pb.MeanNormCost*1.05 {
				t.Errorf("warning raised cost: %.3f vs %.3f", wp.MeanNormCost, pb.MeanNormCost)
			}
		})
	}
}

func TestRelaxedStrategyRuns(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	r := &Runner{Env: env}
	batch, err := r.RunBatch(func() core.Provisioner {
		return core.NewRelaxed(env, env.LRC.Exec/2)
	}, 0.2, 20, 31)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Runs != 20 {
		t.Fatalf("runs = %d", batch.Runs)
	}
	// Relaxed must be at most as expensive as strict Hourglass (it has
	// strictly more perceived slack).
	strict, err := r.RunBatch(func() core.Provisioner { return core.NewSlackAware(env) }, 0.2, 20, 31)
	if err != nil {
		t.Fatal(err)
	}
	if batch.MeanNormCost > strict.MeanNormCost*1.1 {
		t.Errorf("relaxed %.3f costlier than strict %.3f", batch.MeanNormCost, strict.MeanNormCost)
	}
}

func TestRunCtxCancellation(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	r := &Runner{Env: env}

	// A pre-cancelled context aborts before any work is simulated.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.RunCtx(ctx, core.NewSlackAware(env), 0, deadlineFor(env, 0.5))
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v (err=%v)", res, err)
	}
	if res.Finished {
		t.Error("cancelled run reported Finished")
	}

	// A live context leaves Run unchanged.
	res, err = r.RunCtx(context.Background(), core.NewSlackAware(env), 0, deadlineFor(env, 0.5))
	if err != nil || !res.Finished {
		t.Errorf("uncancelled run: %+v, %v", res, err)
	}
}

func TestHorizonExported(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	r := &Runner{Env: env}
	if h := r.Horizon(); h <= 0 {
		t.Errorf("horizon %v", h)
	}
}

// flatTrace builds a step-1s price trace at a deep discount, with an
// optional spike above on-demand over [spikeAt, spikeAt+spikeLen).
func flatTrace(it cloud.InstanceType, dur, spikeAt, spikeLen units.Seconds) *cloud.PriceTrace {
	prices := make([]float64, int(dur))
	for i := range prices {
		prices[i] = 0.25 * float64(it.OnDemand)
	}
	for i := int(spikeAt); spikeLen > 0 && i < int(spikeAt+spikeLen) && i < len(prices); i++ {
		prices[i] = 3 * float64(it.OnDemand)
	}
	return &cloud.PriceTrace{Instance: it.Name, Step: 1, Prices: prices}
}

// flatEnv is a PageRank env over two days of flat, deeply discounted
// traces; the named instances spike above on-demand — an eviction —
// for 15 minutes at spikeAt.
func flatEnv(t *testing.T, spikeAt units.Seconds, spiked ...string) *core.Env {
	t.Helper()
	historical := cloud.GenerateSet(cloud.Catalogue(), cloud.GenParams{Days: 8, Seed: 1010})
	em, err := cloud.BuildEvictionModel(historical, 256)
	if err != nil {
		t.Fatal(err)
	}
	ts := cloud.TraceSet{}
	for _, it := range cloud.Catalogue() {
		var spikeLen units.Seconds
		if slices.Contains(spiked, it.Name) {
			spikeLen = 15 * units.Minute
		}
		ts[it.Name] = flatTrace(it, 2*units.Day, spikeAt, spikeLen)
	}
	env, err := core.NewEnv(perfmodel.JobPageRank, perfmodel.Default(),
		cloud.DefaultConfigs(), cloud.NewMarket(ts), em)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// saveFixture picks the transient configuration with the longest save
// and returns an env whose flat traces evict it inside the save window
// of its first segment, the configuration, and the instant that
// segment's compute ends.
func saveFixture(t *testing.T) (*core.Env, core.ConfigStats, units.Seconds) {
	t.Helper()
	env := flatEnv(t, 0)
	var spot *core.ConfigStats
	for i := range env.Stats {
		if cs := &env.Stats[i]; cs.Config.Transient && (spot == nil || cs.Save > spot.Save) {
			spot = cs
		}
	}
	if spot == nil {
		t.Fatal("config set lacks a transient configuration")
	}
	if spot.Save < 2 {
		t.Fatalf("save window %v too short to aim a spike into", spot.Save)
	}
	// First segment geometry (start 0, flat market: immediately
	// available): deploy, compute to the first checkpoint (or the end of
	// the job), then save.
	segEnd := spot.Boot + spot.Load + units.Min(spot.Ckpt, spot.Exec)
	return flatEnv(t, segEnd+spot.Save/2, spot.Config.Instance.Name), *spot, segEnd
}

// checkLifecycle asserts the invariants every run's event stream keeps:
// lifecycle events (deploy, evict, checkpoint, done) are time-ordered;
// work left never rises except at an EvDeploy, which re-anchors the run
// at the durable frontier; and that frontier — the work left at the
// last sealed checkpoint — never regresses. A rise anywhere else
// (mid-segment, at an eviction) is a bookkeeping bug: billing a dead
// deployment, resurrecting lost progress.
func checkLifecycle(events []obs.Event) error {
	var prevT float64
	prevW, durable := 1.0, 1.0
	for i, e := range events {
		switch e.Type {
		case obs.EvDeploy, obs.EvEvict, obs.EvCheckpoint, obs.EvDone:
		default:
			continue
		}
		switch {
		case e.T < prevT-1e-9:
			return fmt.Errorf("event %d (%s) at t=%v before t=%v", i, e.Type, e.T, prevT)
		case e.Type == obs.EvDeploy && e.WorkLeft != durable:
			return fmt.Errorf("event %d: deploy resumes w=%.6f, durable frontier w=%.6f", i, e.WorkLeft, durable)
		case e.Type != obs.EvDeploy && e.WorkLeft > prevW+1e-9:
			return fmt.Errorf("event %d (%s): work left rose %.6f -> %.6f outside a deploy", i, e.Type, prevW, e.WorkLeft)
		case e.Type == obs.EvCheckpoint && e.WorkLeft > durable+1e-9:
			return fmt.Errorf("event %d: checkpoint regressed the durable frontier %.6f -> %.6f", i, durable, e.WorkLeft)
		}
		if e.Type == obs.EvCheckpoint {
			durable = e.WorkLeft
		}
		prevT, prevW = e.T, e.WorkLeft
	}
	return nil
}

func TestEvictionDuringSaveRollsBack(t *testing.T) {
	// An eviction inside the save window bills the machines up to the
	// eviction, fails the save and rolls the run back to the last
	// durable checkpoint — none yet, so the redeploy, once the market
	// recovers, starts the job over.
	env, spot, segEnd := saveFixture(t)
	sink := &eventSink{}
	r := &Runner{Env: env, Sink: sink}
	res, err := r.Run(&fixedProv{cfg: spot}, 0, 2*units.Day)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Finished {
		t.Fatal("run did not finish")
	}
	if res.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", res.Evictions)
	}
	if res.Reconfigs != 2 {
		t.Errorf("reconfigs = %d, want 2 (initial deploy + recovery)", res.Reconfigs)
	}
	events := sink.snapshot()
	if err := checkLifecycle(events); err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		if e.Type == obs.EvCheckpoint && e.T < float64(segEnd+spot.Save) {
			t.Errorf("checkpoint sealed at t=%v by a save the eviction interrupted", e.T)
		}
		if e.Type != obs.EvEvict {
			continue
		}
		if e.T <= float64(segEnd) || e.T >= float64(segEnd+spot.Save) {
			t.Errorf("eviction at t=%v outside the save window (%v, %v)", e.T, segEnd, segEnd+spot.Save)
		}
		bill := events[i-1]
		want, err := env.Market.Cost(spot.Config, units.Seconds(bill.T), units.Seconds(e.T))
		if err != nil {
			t.Fatal(err)
		}
		if bill.Type != obs.EvSpend || bill.USD != float64(want) {
			t.Errorf("eviction billed by %+v, want $%v up to the eviction", bill, want)
		}
	}
	if res.Completion <= segEnd+spot.Save {
		t.Errorf("completion %v not after the failed save", res.Completion)
	}
}

// spotThenOnDemand deploys spot first and on-demand after the spot
// deployment is lost, checkpointing throughout; a live deployment is
// kept.
type spotThenOnDemand struct {
	spot, od cloud.Config
	deployed bool
}

func (p *spotThenOnDemand) Name() string { return "spot-then-ondemand" }

func (p *spotThenOnDemand) Decide(st core.State) (core.Decision, error) {
	if st.Current != nil {
		return core.Decision{Config: *st.Current, KeepCurrent: true, UseCheckpoints: true}, nil
	}
	c := p.od
	if !p.deployed {
		c, p.deployed = p.spot, true
	}
	return core.Decision{Config: c, UseCheckpoints: true}, nil
}

// TestReloadMeansDurableProgress: a redeploy is a reload — recovery
// downtime in the result — only when it resumes durable progress. An
// eviction before the first checkpoint starts the job over.
func TestReloadMeansDurableProgress(t *testing.T) {
	var spot *core.ConfigStats
	env := flatEnv(t, 0)
	for i := range env.Stats {
		cs := &env.Stats[i]
		if cs.Config.Transient && cs.Ckpt+cs.Save < cs.Exec/2 {
			spot = cs
			break
		}
	}
	if spot == nil {
		t.Fatal("no transient configuration checkpoints twice per run")
	}
	readyAt := spot.Boot + spot.Load
	for _, tc := range []struct {
		name    string
		spikeAt units.Seconds
		reload  bool
	}{
		{"before the first checkpoint", readyAt + spot.Ckpt/2, false},
		{"after the first checkpoint", readyAt + spot.Ckpt + spot.Save + spot.Ckpt/2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env := flatEnv(t, tc.spikeAt, spot.Config.Instance.Name)
			sink := &eventSink{}
			r := &Runner{Env: env, Sink: sink}
			res, err := r.Run(&spotThenOnDemand{spot: spot.Config, od: env.LRC.Config}, 0, 2*units.Day)
			if err != nil {
				t.Fatal(err)
			}
			if res.Evictions != 1 || !res.Finished {
				t.Fatalf("evictions = %d, finished = %v; want one eviction, then done", res.Evictions, res.Finished)
			}
			var deploys []obs.Event
			for _, e := range sink.snapshot() {
				if e.Type == obs.EvDeploy {
					deploys = append(deploys, e)
				}
			}
			if len(deploys) != 2 {
				t.Fatalf("%d deploys, want 2", len(deploys))
			}
			if deploys[0].Reload || deploys[1].Reload != tc.reload {
				t.Fatalf("deploy reload = %v, %v; want false, %v", deploys[0].Reload, deploys[1].Reload, tc.reload)
			}
			if (res.RecoveryTime > 0) != tc.reload {
				t.Fatalf("recovery = %v with reload %v", res.RecoveryTime, tc.reload)
			}
		})
	}
}

// alternating never lets a job finish: it alternates two
// configurations for a second each, without checkpoints, so every
// deployment starts the job over.
type alternating struct{ a, b cloud.Config }

func (p *alternating) Name() string { return "alternating" }

func (p *alternating) Decide(st core.State) (core.Decision, error) {
	c := p.a
	if st.Current != nil && st.Current.ID() == p.a.ID() {
		c = p.b
	}
	return core.Decision{Config: c, MaxRun: 1}, nil
}

func TestDecisionGuard(t *testing.T) {
	env := testEnv(t, perfmodel.JobSSSP)
	var od []cloud.Config
	for _, cs := range env.Stats {
		if !cs.Config.Transient {
			od = append(od, cs.Config)
		}
	}
	r := &Runner{Env: env}
	res, err := r.Run(&alternating{a: od[0], b: od[1]}, 0, 2*units.Day)
	if err == nil || !strings.Contains(err.Error(), "exceeded 10000 decisions") {
		t.Fatalf("err = %v, want the 10000-decision livelock guard", err)
	}
	if res.Decisions != 10_001 {
		t.Fatalf("decisions = %d, want 10001", res.Decisions)
	}
}
