package sim

// Warning-window semantics (§9): when the eviction warning fits the
// checkpoint upload (WarningWindow >= t_save), the loop's warning rule
// (loop.Loop.Warning, the one every executor runs) forces a save at the
// eviction's barrier, which turns the in-flight progress durable at the
// eviction instant instead of rolling back. That save bills t_save of
// I/O inside the machine time the eviction bills anyway, and advances
// the resume point. These tests pin that branch as a
// property over start offsets, on both sides of the window boundary.
// The warning only rescues compute-phase evictions; a deployment lost
// inside the save window is already mid-upload and rolls back, so the
// tests classify each eviction by the phase it interrupted before
// asserting anything about saves.

import (
	"sync"
	"testing"

	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/perfmodel"
	"hourglass/internal/units"
)

// eventSink records the structured stream for folding.
type eventSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *eventSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *eventSink) snapshot() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Event(nil), s.events...)
}

// fixedProv always picks one configuration with checkpointing on — the
// simplest trajectory that makes warned and unwarned runs comparable.
type fixedProv struct{ cfg core.ConfigStats }

func (p *fixedProv) Name() string { return "fixed" }
func (p *fixedProv) Decide(st core.State) (core.Decision, error) {
	keep := st.Current != nil && st.Current.ID() == p.cfg.Config.ID()
	return core.Decision{Config: p.cfg.Config, KeepCurrent: keep, UseCheckpoints: true}, nil
}

// transientStats picks the first evictable configuration.
func transientStats(t *testing.T, env *core.Env) core.ConfigStats {
	t.Helper()
	for i := range env.Stats {
		if env.Stats[i].Config.Transient {
			return env.Stats[i]
		}
	}
	t.Fatal("no transient configuration in the env")
	return core.ConfigStats{}
}

// computeEvictTimes returns the instants of evictions that interrupted
// a compute phase on cs — the ones the §9 warning can rescue. A
// segment's compute starts at its decision when that keeps the
// deployment, or once the deploy after it is ready, and lasts what the
// plan gives it: t_ckpt, or the work left when that is less. An
// eviction past it lost a save or the output write.
func computeEvictTimes(events []obs.Event, cs core.ConfigStats) []units.Seconds {
	var times []units.Seconds
	var start, span float64
	for _, e := range events {
		switch e.Type {
		case obs.EvDecision:
			start, span = e.T, min(float64(cs.Ckpt), e.WorkLeft*float64(cs.Exec))
		case obs.EvDeploy:
			start = e.T + e.DurSec
		case obs.EvEvict:
			// A millisecond's margin leaves out an eviction landing where
			// compute ends, which the plan's whole supersteps place
			// within a step of the t_ckpt mark.
			if e.T < start+span-1e-3 {
				times = append(times, units.Seconds(e.T))
			}
		}
	}
	return times
}

// checkpointAt reports whether the event stream holds a checkpoint
// sealed at exactly t.
func checkpointAt(events []obs.Event, t units.Seconds) bool {
	for _, e := range events {
		if e.Type == obs.EvCheckpoint && e.T == float64(t) {
			return true
		}
	}
	return false
}

// TestWarnedSavePersistsInFlightProgress sweeps start offsets on a
// fixed spot configuration and, for every offset whose run suffers
// evictions, demands the §9 contract with WarningWindow == t_save
// (the boundary where the save just fits):
//
//   - every compute-phase eviction carries a warned save — an
//     EvCheckpoint sealed at the eviction instant — and the saved
//     frontier only ever advances (checkpoint WorkLeft never rises);
//   - the stream keeps its lifecycle invariants (checkLifecycle): a
//     warned save never resurrects progress the eviction took;
//   - in aggregate, the warned runs finish no later and no pricier than
//     unwarned runs from the same offsets (durable in-flight progress
//     can only help a fixed-config trajectory).
func TestWarnedSavePersistsInFlightProgress(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	spot := transientStats(t, env)
	if spot.Save <= 0 {
		t.Fatalf("transient config %s has no save cost to gate the window on", spot.Config.ID())
	}
	deadline := deadlineFor(env, 0.5)

	computeEvicts, advanced := 0, 0
	var warnedCost, plainCost units.USD
	var warnedSpan, plainSpan units.Seconds
	for i := 0; i < 24; i++ {
		start := units.Seconds(i) * units.Hour
		sink := &eventSink{}
		warned := &Runner{Env: env, WarningWindow: spot.Save, Sink: sink}
		wres, err := warned.Run(&fixedProv{cfg: spot}, start, start+deadline)
		if err != nil {
			t.Fatalf("offset %d: warned run: %v", i, err)
		}
		plain := &Runner{Env: env}
		pres, err := plain.Run(&fixedProv{cfg: spot}, start, start+deadline)
		if err != nil {
			t.Fatalf("offset %d: plain run: %v", i, err)
		}
		if !wres.Finished || !pres.Finished {
			t.Fatalf("offset %d: finished warned=%v plain=%v", i, wres.Finished, pres.Finished)
		}
		warnedCost += wres.Cost
		plainCost += pres.Cost
		warnedSpan += wres.Completion - start
		plainSpan += pres.Completion - start

		events := sink.snapshot()
		if err := checkLifecycle(events); err != nil {
			t.Fatalf("offset %d: %v", i, err)
		}

		// Every compute-phase eviction must have sealed a warned save at
		// its instant.
		for _, ev := range computeEvictTimes(events, spot) {
			computeEvicts++
			if !checkpointAt(events, ev) {
				t.Errorf("offset %d: compute-phase eviction at t=%v has no warned save", i, ev)
			}
		}

		// The durable frontier never regresses across the whole stream.
		durable := 1.0
		for _, e := range events {
			if e.Type != obs.EvCheckpoint {
				continue
			}
			if e.WorkLeft > durable {
				t.Errorf("offset %d: checkpoint at t=%.0f regressed the durable frontier (%.4f -> %.4f)",
					i, e.T, durable, e.WorkLeft)
			}
			if e.WorkLeft < durable {
				advanced++
			}
			durable = e.WorkLeft
		}
	}
	if computeEvicts == 0 {
		t.Fatal("no offset produced a compute-phase eviction — the sweep proves nothing")
	}
	if advanced == 0 {
		t.Fatal("no checkpoint ever advanced the resume point")
	}
	// Aggregate dominance (per-offset timing divergence can reshuffle
	// which evictions each run meets, so compare the sweep totals).
	if warnedCost > plainCost*1.01 {
		t.Errorf("warned sweep cost %v above plain %v", warnedCost, plainCost)
	}
	if warnedSpan > plainSpan*1.01 {
		t.Errorf("warned sweep makespan %v above plain %v", warnedSpan, plainSpan)
	}
	t.Logf("warned-save property held over %d compute-phase evictions across 24 offsets (cost %v vs %v)",
		computeEvicts, warnedCost, plainCost)
}

// TestWarningWindowBelowSaveRollsBack pins the other side of the
// branch: a window just short of t_save must not persist in-flight
// progress — no compute-phase eviction may coincide with a checkpoint
// (cadence saves seal at segment boundaries, never at the crossing).
func TestWarningWindowBelowSaveRollsBack(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	spot := transientStats(t, env)
	if spot.Save <= 0 {
		t.Fatalf("transient config %s has no save cost to gate the window on", spot.Config.ID())
	}
	deadline := deadlineFor(env, 0.5)

	computeEvicts := 0
	for i := 0; i < 24; i++ {
		start := units.Seconds(i) * units.Hour
		sink := &eventSink{}
		short := &Runner{Env: env, WarningWindow: spot.Save * 0.99, Sink: sink}
		if _, err := short.Run(&fixedProv{cfg: spot}, start, start+deadline); err != nil {
			t.Fatalf("offset %d: %v", i, err)
		}
		events := sink.snapshot()
		for _, ev := range computeEvictTimes(events, spot) {
			computeEvicts++
			if checkpointAt(events, ev) {
				t.Errorf("offset %d: save sealed at the eviction instant t=%v despite a too-short window", i, ev)
			}
		}
	}
	if computeEvicts == 0 {
		t.Fatal("no offset produced a compute-phase eviction — the sweep proves nothing")
	}
}
