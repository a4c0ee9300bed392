package scheduler_test

// RuntimeBackend tests, one table over both substrates: the controller
// drives real executions through the eviction-aware runtime — on the
// in-process engine or on loopback shard worker sets — and recurrences
// still finish, bill and record; cancellation aborts a live run; a
// failed run's checkpoints are resumed by the job's next attempt.

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"hourglass"
	"hourglass/internal/cloud"
	"hourglass/internal/dist"
	"hourglass/internal/faultinject"
	"hourglass/internal/obs"
	"hourglass/internal/scheduler"
	"hourglass/internal/units"
)

// substrates is the table every backend behaviour runs over.
var substrates = []struct {
	name string
	dist bool
}{{"engine", false}, {"dist", true}}

func backendTestSystem(t *testing.T, seed int64) *hourglass.System {
	t.Helper()
	sys, err := hourglass.New(hourglass.Options{Seed: seed, TraceDays: 6})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func backendTestSpec(id string, kind hourglass.JobKind) scheduler.JobSpec {
	return scheduler.JobSpec{
		ID: id, Kind: kind,
		Strategy: hourglass.StrategyHourglass, Slack: 0.5,
		Period: scheduler.Duration(30 * time.Minute), Runs: 1,
	}
}

// switchSink is a backend sink whose behaviour changes between runs:
// while armed it cancels a context at the nth superstep or first
// checkpoint; disarmed it just records.
type switchSink struct {
	mu        sync.Mutex
	cancel    context.CancelFunc // nil once disarmed
	onEvCkpt  bool               // cancel on checkpoint instead of superstep
	atStep    int                // cancel at the nth superstep event
	steps     int
	recorded  []obs.Event
	cancelled bool
}

func (s *switchSink) Emit(e obs.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recorded = append(s.recorded, e)
	if s.cancel == nil || s.cancelled {
		return
	}
	switch {
	case s.onEvCkpt && e.Type == obs.EvCheckpoint:
		s.cancelled = true
		s.cancel()
	case !s.onEvCkpt && e.Type == obs.EvSuperstep:
		s.steps++
		if s.steps >= s.atStep {
			s.cancelled = true
			s.cancel()
		}
	}
}

func (s *switchSink) disarm() {
	s.mu.Lock()
	s.cancel = nil
	s.recorded = s.recorded[:0]
	s.mu.Unlock()
}

func (s *switchSink) events() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Event(nil), s.recorded...)
}

func TestRuntimeBackendRunsAllKinds(t *testing.T) {
	sys := backendTestSystem(t, 5)
	for _, sub := range substrates {
		be := &scheduler.RuntimeBackend{Sys: sys, Dist: sub.dist, GraphScale: 8, Logf: t.Logf}
		for _, kind := range []hourglass.JobKind{hourglass.PageRank, hourglass.SSSP, hourglass.GC} {
			t.Run(sub.name+"/"+string(kind), func(t *testing.T) {
				spec := backendTestSpec("t-"+string(kind), kind)
				deadline, horizon, baseline, err := be.Admit(spec)
				if err != nil {
					t.Fatal(err)
				}
				if deadline <= 0 || horizon <= 0 || baseline <= 0 {
					t.Fatalf("admission constants: dl=%v hz=%v base=%v", deadline, horizon, baseline)
				}
				res, err := be.Run(context.Background(), spec, 0, deadline)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Finished {
					t.Fatalf("run did not finish: %+v", res)
				}
				if res.Cost <= 0 {
					t.Fatalf("no cost billed: %+v", res)
				}
				if res.Reconfigs < 1 || res.Decisions < 1 {
					t.Fatalf("no deployments recorded: %+v", res)
				}
			})
		}
	}
}

// TestControllerWithRuntimeBackend wires the backend into a live
// controller on a virtual clock: two recurrences of a real PageRank
// execution, with a fault-injected checkpoint store.
func TestControllerWithRuntimeBackend(t *testing.T) {
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			be := &scheduler.RuntimeBackend{
				Sys:        backendTestSystem(t, 6),
				Dist:       sub.dist,
				GraphScale: 8,
				Store: faultinject.Wrap(cloud.NewDatastore(), faultinject.Policy{
					Seed: 9, PError: 0.2, PWriteCorrupt: 0.05, PReadCorrupt: 0.05,
					MaxLatency: units.Seconds(2), MaxConsecutive: 2,
				}),
				Logf: t.Logf,
			}
			ctrl, vc := startController(t, be)
			st, err := ctrl.Submit(scheduler.JobSpec{
				Kind: hourglass.PageRank, Strategy: hourglass.StrategyHourglass,
				Slack: 0.5, Period: scheduler.Duration(30 * time.Minute), Runs: 2,
			})
			if err != nil {
				t.Fatal(err)
			}
			vc.Advance(30 * time.Minute)
			cur := waitCompleted(t, ctrl, st.Spec.ID, 2)
			if cur.Agg.Failed != 0 {
				t.Fatalf("failed recurrences: %+v", cur.Agg)
			}
			if cur.Agg.CostUSD <= 0 {
				t.Fatalf("no cost aggregated: %+v", cur.Agg)
			}
		})
	}
}

// startController runs a controller over be on a virtual clock and
// shuts it down when the test ends.
func startController(t *testing.T, be scheduler.Backend) (*scheduler.Controller, *scheduler.VirtualClock) {
	t.Helper()
	vc := scheduler.NewVirtualClock(time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC))
	ctrl, err := scheduler.New(scheduler.Options{
		Backend: be, Clock: vc, Workers: 2, Seed: 6, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = ctrl.Shutdown(ctx)
	})
	return ctrl, vc
}

// waitCompleted polls until the job has completed n recurrences.
func waitCompleted(t *testing.T, ctrl *scheduler.Controller, id string, n int) scheduler.JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur, ok := ctrl.Get(id)
		if ok && cur.Completed == n {
			return cur
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck: %+v", cur)
		}
		time.Sleep(3 * time.Millisecond)
	}
}

// TestControllerDistRecurrenceFollowsDecisions is the point of running
// dist recurrences through the runtime: the worker count follows every
// decision, and the trace accounts for the bill. One slack-aware
// recurrence through the controller must emit one EvDecision per
// decision, boot every deployment with exactly the decided
// configuration's worker count, and fold back to the recorded cost
// bit-exactly once the offline partitioning cost is added. The seeds
// put three market evictions into the recurrence, and the re-decisions
// move it from 8 workers to 4.
func TestControllerDistRecurrenceFollowsDecisions(t *testing.T) {
	sys := backendTestSystem(t, 6)
	sink := &switchSink{}
	be := &scheduler.RuntimeBackend{Sys: sys, Dist: true, GraphScale: 8, Sink: sink, Logf: t.Logf}
	ctrl, vc := startController(t, be)
	st, err := ctrl.Submit(backendTestSpec("", hourglass.GC))
	if err != nil {
		t.Fatal(err)
	}
	vc.Advance(30 * time.Minute)
	waitCompleted(t, ctrl, st.Spec.ID, 1)
	hist, _ := ctrl.History(st.Spec.ID)
	if len(hist) != 1 || hist[0].Error != "" || !hist[0].Finished {
		t.Fatalf("history %+v, want one finished recurrence", hist)
	}
	rec := hist[0]

	env, err := sys.Env(hourglass.GC)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for i := range env.Stats {
		count[env.Stats[i].Config.ID()] = env.Stats[i].Config.Count
	}
	events := sink.events()
	var decisions, deploys []obs.Event
	for _, e := range events {
		switch e.Type {
		case obs.EvDecision:
			decisions = append(decisions, e)
		case obs.EvDeploy:
			deploys = append(deploys, e)
		}
	}
	if len(decisions) != rec.Decisions {
		t.Fatalf("%d decision events for %d decisions", len(decisions), rec.Decisions)
	}
	if len(deploys) != len(decisions) || len(deploys) != rec.Reconfigs {
		t.Fatalf("%d deploys for %d decisions and %d reconfigs: every dist decision boots a fresh set",
			len(deploys), len(decisions), rec.Reconfigs)
	}
	var shardCounts []int
	for i, dep := range deploys {
		if dep.Config != decisions[i].Config {
			t.Fatalf("deploy %d runs %s, decision chose %s", i, dep.Config, decisions[i].Config)
		}
		workers := len(strings.Split(dep.Proc, ","))
		if workers != count[dep.Config] {
			t.Fatalf("deploy %d of %s booted %d workers (%s), want %d", i, dep.Config, workers, dep.Proc, count[dep.Config])
		}
		shardCounts = append(shardCounts, workers)
	}
	if rec.Evictions == 0 || shardCounts[0] == shardCounts[len(shardCounts)-1] {
		t.Fatalf("%d evictions, worker counts %v: the scenario no longer changes the worker count", rec.Evictions, shardCounts)
	}
	if got := obs.Summarize(events).CostUSD + float64(env.OfflineCost); got != rec.Cost {
		t.Fatalf("trace folds to $%v, recorded cost $%v", got, rec.Cost)
	}
}

// TestRuntimeBackendCancelAborts: cancelling the scheduler context
// mid-run aborts the live run within the barrier timeout, instead of
// being noticed only after the job finished on its own.
func TestRuntimeBackendCancelAborts(t *testing.T) {
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &switchSink{cancel: cancel, atStep: 2}
			be := &scheduler.RuntimeBackend{Sys: backendTestSystem(t, 5), Dist: sub.dist,
				GraphScale: 8, Sink: sink, Logf: t.Logf}
			spec := backendTestSpec("t-cancel", hourglass.PageRank)
			deadline, _, _, err := be.Admit(spec)
			if err != nil {
				t.Fatal(err)
			}
			begin := time.Now()
			_, err = be.Run(ctx, spec, 0, deadline)
			elapsed := time.Since(begin)
			if err == nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled run returned %v, want context.Canceled in the chain", err)
			}
			if elapsed > 30*time.Second {
				t.Fatalf("cancellation took %v, beyond the 30s barrier timeout", elapsed)
			}
		})
	}
}

// TestRuntimeBackendKeepsBlobsOnFailure: a failed run must not clear
// its checkpoints, and the job's next attempt must resume from them
// (then clear them on success).
func TestRuntimeBackendKeepsBlobsOnFailure(t *testing.T) {
	for _, sub := range substrates {
		t.Run(sub.name, func(t *testing.T) {
			store := cloud.NewDatastore()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &switchSink{cancel: cancel, onEvCkpt: true}
			be := &scheduler.RuntimeBackend{Sys: backendTestSystem(t, 5), Dist: sub.dist,
				GraphScale: 8, Store: store, Sink: sink, Logf: t.Logf}
			spec := backendTestSpec("t-keep", hourglass.PageRank)
			deadline, _, _, err := be.Admit(spec)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := be.Run(ctx, spec, 0, deadline); err == nil {
				t.Fatal("run survived a cancelled context")
			}
			if len(store.Keys()) == 0 {
				t.Fatal("failed run cleared its checkpoints — nothing left to resume")
			}

			// The next attempt for the same job must pick the checkpoints
			// up: its first superstep is past 1 because it resumed from
			// the failed run's checkpoint.
			sink.disarm()
			res, err := be.Run(context.Background(), spec, 0, deadline)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Finished {
				t.Fatalf("resumed run did not finish: %+v", res)
			}
			first := 0
			for _, e := range sink.events() {
				if e.Type == obs.EvSuperstep {
					first = e.Superstep
					break
				}
			}
			if first <= 1 {
				t.Fatalf("resumed run started at superstep %d, want a checkpoint resume past 1", first)
			}
			if keys := store.Keys(); len(keys) != 0 {
				t.Fatalf("%d keys survived the successful resume: %v", len(keys), keys)
			}
		})
	}
}

// TestRuntimeBackendCountsShardLosses: scripted shard losses show up
// in the run's trace and its eviction count. GraphColoring runs as
// itself, so its per-vertex aux state resumes from the shard blobs
// after each loss. Losses are counted from EvShardEvict events: the
// run's Evictions also count market evictions.
func TestRuntimeBackendCountsShardLosses(t *testing.T) {
	for _, kind := range []hourglass.JobKind{hourglass.PageRank, hourglass.GC} {
		t.Run(string(kind), func(t *testing.T) {
			sink := &switchSink{}
			be := &scheduler.RuntimeBackend{
				Sys: backendTestSystem(t, 5), Dist: true, GraphScale: 8, Sink: sink, Logf: t.Logf,
				ShardOpts: func(attempt, shard int) dist.ShardOptions {
					var opts dist.ShardOptions
					if attempt < 2 && shard == 0 {
						opts.DieAtSuperstep = 3
					}
					return opts
				},
			}
			spec := backendTestSpec("t-losses", kind)
			deadline, _, _, err := be.Admit(spec)
			if err != nil {
				t.Fatal(err)
			}
			res, err := be.Run(context.Background(), spec, 0, deadline)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Finished {
				t.Fatalf("run did not finish: %+v", res)
			}
			var losses, evictions int
			for _, e := range sink.events() {
				switch e.Type {
				case obs.EvShardEvict:
					losses++
				case obs.EvEvict:
					evictions++
				}
			}
			if losses != 2 {
				t.Fatalf("%d shard losses in the trace, want the 2 scripted ones", losses)
			}
			if res.Evictions != evictions || res.Evictions < losses {
				t.Fatalf("Evictions = %d, trace has %d evictions of which %d shard losses", res.Evictions, evictions, losses)
			}
			if res.Checkpoints == 0 {
				t.Fatal("no checkpoints recorded")
			}
		})
	}
}
