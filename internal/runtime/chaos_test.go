package runtime_test

// The runtime chaos suite: ≥100 seeded eviction schedules driven
// through real engine executions, with storage faults layered on the
// checkpoint store. Every schedule must either finish with final
// vertex values bit-identical to the uninterrupted canonical reference
// or cleanly report a deadline miss consistent with its own
// accounting — no hangs, no corrupted results. The watchdog and
// restart-budget paths have dedicated deterministic schedules in
// runtime_test.go (wedge programs); this file sweeps the
// market-driven eviction space.

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/engine"
	"hourglass/internal/faultinject"
	"hourglass/internal/obs"
	"hourglass/internal/runtime"
	"hourglass/internal/units"
)

const (
	// runtimeSchedules is sized so the sweep plus the two dedicated
	// wedge schedules stays comfortably above the 100-schedule floor.
	runtimeSchedules = 108
)

// chaosSeedBase shifts every schedule's seed so a nightly soak sweeps
// a fresh range:
//
//	go test ./internal/runtime/ -chaos-seed-base=$(( $(date +%s) / 86400 * 100 ))
var chaosSeedBase = flag.Int64("chaos-seed-base", 0, "offset added to every chaos schedule seed")

func TestRuntimeChaosCoversAHundredSchedules(t *testing.T) {
	if runtimeSchedules < 100 {
		t.Fatalf("runtime chaos suite covers %d schedules, want >= 100", runtimeSchedules)
	}
}

// chaosPolicy derives a storage-fault schedule from one seed,
// sweeping the policy space like the faultinject suite does.
// MaxConsecutive stays below the manager's retry budget so injected
// faults slow the run down (billed as I/O) without failing it.
func chaosPolicy(seed int64) faultinject.Policy {
	rng := rand.New(rand.NewSource(seed))
	return faultinject.Policy{
		Seed:           seed,
		PError:         0.1 + 0.4*rng.Float64(),
		PWriteCorrupt:  0.05 + 0.15*rng.Float64(),
		PReadCorrupt:   0.05 + 0.15*rng.Float64(),
		PTruncate:      0.05 + 0.10*rng.Float64(),
		MaxLatency:     units.Seconds(5 * rng.Float64()),
		MaxConsecutive: 2,
	}
}

// TestChaosEvictionSchedules is the acceptance sweep: real engine
// executions under market-drawn evictions and storage faults.
func TestChaosEvictionSchedules(t *testing.T) {
	apps := []string{"pagerank", "sssp", "wcc"}
	var totalEvictions, totalCheckpoints, lastResorts int
	var injected int64

	for i := 0; i < runtimeSchedules; i++ {
		seed := *chaosSeedBase + int64(5000+i)
		app := apps[i%len(apps)]
		t.Run(fmt.Sprintf("seed=%d/%s", seed, app), func(t *testing.T) {
			h := getHarness(t, app)
			store := faultinject.Wrap(cloud.NewDatastore(), chaosPolicy(seed))
			sink := &listSink{}

			// Draw a start offset across the trace horizon so schedules
			// land on different market weather (calm stretches, spike
			// storms, trace edges).
			rng := rand.New(rand.NewSource(seed * 17))
			span := float64(h.horizon - h.relDl)
			if span < 0 {
				span = 0
			}
			start := units.Seconds(rng.Float64() * span)
			deadline := start + h.relDl

			opts := h.options(t, store, fmt.Sprintf("chaos/%s/%d", app, seed), h.provisioner(t))
			opts.Sink = sink

			rep, err := runtime.Execute(context.Background(), opts, start, deadline)
			if err != nil {
				t.Fatalf("execute: %v", err)
			}
			if !rep.Finished {
				t.Fatal("run did not finish (last-resort fallback must always complete)")
			}
			assertBitIdentical(t, h.ref, rep.Values)
			if rep.MissedDeadline != (rep.Completion > deadline) {
				t.Fatalf("miss flag inconsistent with accounting: missed=%v completion=%v deadline=%v",
					rep.MissedDeadline, rep.Completion, deadline)
			}
			if rep.Restarts > 8 {
				t.Fatalf("restarts %d exceeded the budget", rep.Restarts)
			}

			// The event stream must fold back to the report bit-exactly.
			sum := obs.Summarize(sink.snapshot())
			if sum.CostUSD != float64(rep.Cost) {
				t.Fatalf("folded cost %v != report %v", sum.CostUSD, float64(rep.Cost))
			}
			if sum.Evictions != rep.Evictions || sum.Checkpoints != rep.Checkpoints ||
				sum.Deploys != rep.Reconfigs || sum.Missed != rep.MissedDeadline ||
				sum.RecoverySec != float64(rep.RecoveryTime) {
				t.Fatalf("trace fold mismatch: %+v vs report %+v", sum, rep)
			}

			totalEvictions += rep.Evictions
			totalCheckpoints += rep.Checkpoints
			if rep.LastResort {
				lastResorts++
			}
			st := store.Stats()
			injected += st.Errors + st.WriteCorruptions + st.ReadCorruptions + st.Truncations
		})
	}

	// The sweep must actually exercise the recovery machinery: a tame
	// market or a tame store means the suite proves nothing.
	if totalEvictions < 5 {
		t.Errorf("only %d evictions across %d schedules — sweep is too tame", totalEvictions, runtimeSchedules)
	}
	if totalCheckpoints == 0 {
		t.Error("no durable checkpoints across the sweep")
	}
	if injected < int64(runtimeSchedules) {
		t.Errorf("only %d storage faults injected across %d schedules", injected, runtimeSchedules)
	}
	t.Logf("chaos sweep: %d evictions, %d checkpoints, %d last-resort engagements, %d storage faults",
		totalEvictions, totalCheckpoints, lastResorts, injected)
}

// TestChaosEvictionMidSave pins the eviction-during-checkpoint race
// deterministically on the inputs of the exec_evict_mid_save golden
// trajectory: saves slowed by up to 600 virtual seconds, at an offset
// where a price crossing lands inside one. The trace must show the
// eviction after the segment's last superstep and before its save
// sealed, and the run must still finish bit-identical.
func TestChaosEvictionMidSave(t *testing.T) {
	h := getHarness(t, "wcc")
	rng := rand.New(rand.NewSource(904))
	start := units.Seconds(rng.Float64() * float64(h.horizon-h.relDl))
	store := faultinject.Wrap(cloud.NewDatastore(), faultinject.Policy{Seed: 77, MaxLatency: 600})
	sink := &listSink{}
	opts := h.options(t, store, "midsave", h.provisioner(t))
	opts.Sink = sink
	rep, err := runtime.Execute(context.Background(), opts, start, start+h.relDl)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished {
		t.Fatal("did not finish")
	}
	assertBitIdentical(t, h.ref, rep.Values)

	// Walk the trace to the first eviction, tracking the segment it
	// interrupted — its deployment, the supersteps it completed and
	// whether a save sealed — and on to the redeploy that followed.
	var deploy, evict obs.Event
	steps, lastStep, sealed := 0, 0, false
	for _, e := range sink.snapshot() {
		if evict.Type == "" {
			switch e.Type {
			case obs.EvDeploy:
				deploy, steps, sealed = e, 0, false
			case obs.EvCheckpoint:
				steps, sealed = 0, true
			case obs.EvSuperstep:
				steps++
				lastStep = e.Superstep
			case obs.EvEvict:
				evict = e
			}
			continue
		}
		if e.Type != obs.EvDeploy {
			continue
		}
		// The segment computed through lastStep and paused to save it.
		// The eviction lands after that superstep ends, while the driver
		// still counts the old frontier as durable — the save never
		// sealed — yet the redeploy reloads lastStep: the save was under
		// way when the machines went.
		cs := configStats(t, h, evict.Config)
		segEnd := deploy.T + deploy.DurSec + float64(steps)*float64(cs.Exec)/float64(h.total)
		switch {
		case steps == 0 || evict.T <= segEnd:
			t.Fatalf("eviction at %v lands before the segment's last superstep (%d done) ends at %v", evict.T, steps, segEnd)
		case sealed || evict.WorkLeft != deploy.WorkLeft:
			t.Fatalf("eviction at %v lands after the save sealed (work left %v, deployed at %v)", evict.T, evict.WorkLeft, deploy.WorkLeft)
		case !e.Reload || e.WorkLeft != float64(h.total-lastStep)/float64(h.total):
			t.Fatalf("redeploy %+v does not reload superstep %d: the eviction did not interrupt its save", e, lastStep)
		}
		return
	}
	t.Fatal("no eviction followed by a redeploy in the trace")
}

// configStats looks up the harness env's stats for a configuration id.
func configStats(t *testing.T, h *harness, id string) *core.ConfigStats {
	t.Helper()
	for i := range h.env.Stats {
		if h.env.Stats[i].Config.ID() == id {
			return &h.env.Stats[i]
		}
	}
	t.Fatalf("no configuration %q in the env", id)
	return nil
}

// TestChaosWatchdogTimeBound asserts the wall-clock guarantee the
// watchdog exists for: a wedged Compute may not stall the driver
// longer than roughly watchdog + grace per superstep.
func TestChaosWatchdogTimeBound(t *testing.T) {
	h := getHarness(t, "sssp")
	trips := &atomic.Int64{}
	opts := h.options(t, cloud.NewDatastore(), "bound/sssp", h.provisioner(t))
	opts.NewProgram = func() engine.Program {
		return &wedgeProgram{inner: h.fresh(), at: 2, sleep: 2 * time.Second, trips: trips, max: 1}
	}
	opts.Watchdog = 40 * time.Millisecond
	opts.WatchdogGrace = 40 * time.Millisecond
	opts.Sink = nil

	begin := time.Now()
	rep, err := runtime.Execute(context.Background(), opts, 0, h.relDl)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(begin); elapsed > 1500*time.Millisecond {
		t.Fatalf("wedged run held the driver for %v (watchdog 40ms)", elapsed)
	}
	if rep.WatchdogTrips < 1 {
		t.Fatal("watchdog never tripped")
	}
	if !rep.Finished {
		t.Fatal("run did not finish")
	}
	assertBitIdentical(t, h.ref, rep.Values)
}
