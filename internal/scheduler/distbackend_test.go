package scheduler_test

// DistBackend regression tests for the runtime→dist control-plane PR:
// cancellation aborts a live cluster, failed runs keep their
// checkpoint blobs (and the next attempt resumes them), and the
// reported eviction count is the actual restart count.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hourglass"
	"hourglass/internal/cloud"
	"hourglass/internal/dist"
	"hourglass/internal/obs"
	"hourglass/internal/scheduler"
)

func distTestSystem(t *testing.T) *hourglass.System {
	t.Helper()
	sys, err := hourglass.New(hourglass.Options{Seed: 5, TraceDays: 6})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func distTestSpec(id string) scheduler.JobSpec {
	return scheduler.JobSpec{
		ID: id, Kind: hourglass.PageRank,
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

// TestDistBackendCancelAborts is the ctx satellite's regression test:
// cancelling the scheduler context mid-run must abort the live cluster
// within the barrier timeout, not be noticed only after the job
// finished on its own.
func TestDistBackendCancelAborts(t *testing.T) {
	sys := distTestSystem(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &switchSink{cancel: cancel, atStep: 2}
	be := &scheduler.DistBackend{Sys: sys, GraphScale: 8, Sink: sink, Logf: t.Logf}
	spec := distTestSpec("t-cancel")
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
}

// TestDistBackendKeepsBlobsOnFailure is the cleanup satellite's
// regression test: a failed run must NOT clear its checkpoint blobs,
// and the job's next attempt must resume from them (then clear on
// success).
func TestDistBackendKeepsBlobsOnFailure(t *testing.T) {
	sys := distTestSystem(t)
	store := cloud.NewDatastore()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &switchSink{cancel: cancel, onEvCkpt: true}
	be := &scheduler.DistBackend{Sys: sys, GraphScale: 8, Store: store, Sink: sink, Logf: t.Logf}
	spec := distTestSpec("t-keep")
	deadline, _, _, err := be.Admit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := be.Run(ctx, spec, 0, deadline); err == nil {
		t.Fatal("run survived a cancelled context")
	}
	keys := store.Keys()
	if len(keys) == 0 {
		t.Fatal("failed run cleared its checkpoint blobs — nothing left to resume")
	}

	// The next attempt for the same job must pick the blobs up: its
	// first superstep is past 1 because the session resumed from the
	// failed run's checkpoint.
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
}

// TestDistBackendReportsRestartCount is the eviction-count satellite's
// regression test: the result must report the actual number of
// restarts, not a hardcoded 1. GraphColoring runs as itself, so its
// per-vertex aux state resumes from the shard blobs after each loss.
func TestDistBackendReportsRestartCount(t *testing.T) {
	for _, kind := range []hourglass.JobKind{hourglass.PageRank, hourglass.GC} {
		t.Run(string(kind), func(t *testing.T) {
			sys := distTestSystem(t)
			be := &scheduler.DistBackend{
				Sys: sys, GraphScale: 8, Logf: t.Logf,
				ShardOpts: func(attempt, shard int) dist.ShardOptions {
					var opts dist.ShardOptions
					if attempt < 2 && shard == 0 {
						opts.DieAtSuperstep = 3
					}
					return opts
				},
			}
			spec := distTestSpec("t-restarts")
			spec.Kind = kind
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
			if res.Evictions != 2 {
				t.Fatalf("Evictions = %d, want the 2 scripted restarts", res.Evictions)
			}
			if res.Checkpoints == 0 {
				t.Fatal("no checkpoints recorded")
			}
		})
	}
}
