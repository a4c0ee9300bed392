package faultinject_test

// The chaos suite: ~100 seeded fault schedules driven through the
// three recovery surfaces — engine checkpoint/crash/reload cycles,
// full provisioning simulations, and controller snapshot/restore —
// asserting the paper's correctness properties hold under a
// misbehaving durable store: results stay bit-identical to fault-free
// runs, slack-aware provisioning still misses zero deadlines, recorded
// event streams keep their lifecycle invariants, and durable work never
// regresses outside a rollback. Every schedule is seeded, so a failure replays exactly.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hourglass"
	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/engine"
	"hourglass/internal/faultinject"
	"hourglass/internal/graph"
	"hourglass/internal/obs"
	"hourglass/internal/perfmodel"
	"hourglass/internal/scheduler"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

const (
	engineSchedules     = 40
	simSchedules        = 40
	schedulerSchedules  = 20
	totalFaultSchedules = engineSchedules + simSchedules + schedulerSchedules
)

// chaosSeedBase shifts every schedule's seed, so a soak run can sweep
// a fresh seed range each night instead of replaying the same 100
// schedules forever:
//
//	go test ./internal/faultinject/ -chaos-seed-base=$(( $(date +%s) / 86400 * 100 ))
//
// The default 0 keeps CI and local runs deterministic; a reported
// failure names the effective seed, which replays with the same base.
var chaosSeedBase = flag.Int64("chaos-seed-base", 0, "offset added to every chaos schedule seed")

func TestChaosSuiteCoversAHundredSchedules(t *testing.T) {
	if totalFaultSchedules < 100 {
		t.Fatalf("chaos suite covers %d seeded schedules, want >= 100", totalFaultSchedules)
	}
}

// chaosPolicy derives a fault schedule from one seed: every
// probability is itself drawn from the seed, so the suite sweeps the
// policy space instead of hammering one operating point.
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

func undirectedRMAT(scale int, seed int64) *graph.Graph {
	p := graph.DefaultRMAT(scale, seed)
	p.Undirected = true
	return graph.RMAT(p)
}

// TestChaosEngineCrashReloadCycles drives checkpointed executions
// through seeded fault schedules with random crash points: run a few
// supersteps, checkpoint into the faulty store, maybe "crash" (drop
// all in-memory state and reload from the store — possibly restoring
// an older checkpoint, or nothing at all when every blob was
// corrupted), and continue. Whatever the schedule does, the final
// values must be bit-identical to a fault-free reference.
func TestChaosEngineCrashReloadCycles(t *testing.T) {
	type app struct {
		name  string
		graph *graph.Graph
		fresh func() engine.Program
	}
	apps := []app{
		{"pagerank", undirectedRMAT(8, 3), func() engine.Program { return &engine.PageRank{Iterations: 10} }},
		{"sssp", undirectedRMAT(8, 4), func() engine.Program { return &engine.SSSP{Source: 0} }},
		{"coloring", undirectedRMAT(8, 5), func() engine.Program { return &engine.GraphColoring{} }},
	}
	workers := []int{1, 2, 4}
	// References are per (app, workers): reductions are deterministic
	// for a fixed worker count, so the chaos run must match its own
	// fault-free shape bit for bit.
	refs := map[[2]int][]float64{}
	refFor := func(ai, w int) []float64 {
		key := [2]int{ai, w}
		if v, ok := refs[key]; ok {
			return v
		}
		res, err := engine.Run(apps[ai].graph, apps[ai].fresh(), engine.Config{Workers: w})
		if err != nil {
			t.Fatalf("%s reference: %v", apps[ai].name, err)
		}
		refs[key] = res.Values
		return res.Values
	}

	var injected int64
	for i := 0; i < engineSchedules; i++ {
		seed := *chaosSeedBase + int64(1000+i)
		a := apps[i%len(apps)]
		w := workers[i%len(workers)]
		t.Run(fmt.Sprintf("seed=%d/%s/w=%d", seed, a.name, w), func(t *testing.T) {
			store := faultinject.Wrap(cloud.NewDatastore(), chaosPolicy(seed))
			crashes := rand.New(rand.NewSource(seed * 31))
			m := &engine.CheckpointManager{Store: store, Job: fmt.Sprintf("chaos/%s/%d", a.name, seed)}

			var snap *engine.Snapshot
			cfg := engine.Config{Workers: w, StopAfter: 2}
			for steps := 0; ; steps++ {
				if steps > 300 {
					t.Fatal("no convergence in 300 crash/reload cycles")
				}
				var res engine.Result
				var err error
				if snap == nil {
					res, err = engine.Run(a.graph, a.fresh(), cfg)
				} else {
					res, err = engine.Resume(a.graph, a.fresh(), snap, cfg)
				}
				switch {
				case errors.Is(err, engine.ErrPaused):
					if _, err := m.Save(res.Snapshot); err != nil {
						t.Fatalf("save: %v", err)
					}
					if crashes.Float64() < 0.5 {
						// Crash: all in-memory state gone; a fresh manager
						// restores whatever the damaged store still holds.
						m = &engine.CheckpointManager{Store: store, Job: m.Job}
						loaded, _, err := m.Load()
						switch {
						case errors.Is(err, ckpt.ErrNoCheckpoint):
							snap = nil // every checkpoint corrupted: start over
						case err != nil:
							t.Fatalf("load: %v", err)
						default:
							snap = loaded
						}
					} else {
						snap = res.Snapshot
					}
				case err != nil:
					t.Fatalf("run: %v", err)
				default:
					ref := refFor(i%len(apps), w)
					for v := range ref {
						if res.Values[v] != ref[v] {
							t.Fatalf("vertex %d diverged after faults: %v != %v", v, res.Values[v], ref[v])
						}
					}
					st := store.Stats()
					injected += st.Errors + st.WriteCorruptions + st.ReadCorruptions + st.Truncations
					return
				}
			}
		})
	}
	// Short-converging apps may dodge their schedule; across the whole
	// sweep the store must have misbehaved plenty.
	if injected < int64(engineSchedules) {
		t.Errorf("only %d faults injected across %d schedules — suite is too tame", injected, engineSchedules)
	}
}

// TestChaosSimProvisioningInvariants replays seeded market months and
// asserts the paper's guarantees end to end: slack-aware provisioning
// finishes within the deadline on every schedule, and every run's
// event stream keeps the lifecycle invariants (checkLifecycle).
func TestChaosSimProvisioningInvariants(t *testing.T) {
	historical := cloud.GenerateSet(cloud.Catalogue(), cloud.GenParams{Days: 8, Seed: 1010})
	em, err := cloud.BuildEvictionModel(historical, 256)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []perfmodel.Job{perfmodel.JobPageRank, perfmodel.JobSSSP}
	slacks := []float64{0.1, 0.5, 1.0}
	warnings := []units.Seconds{0, 120}

	for i := 0; i < simSchedules; i++ {
		seed := *chaosSeedBase + int64(9000+i)
		job := jobs[i%len(jobs)]
		slack := slacks[i%len(slacks)]
		warn := warnings[i%len(warnings)]
		t.Run(fmt.Sprintf("seed=%d/%s/slack=%.1f/warn=%v", seed, job.Name, slack, warn), func(t *testing.T) {
			live := cloud.GenerateSet(cloud.Catalogue(), cloud.GenParams{Days: 8, Seed: seed})
			env, err := core.NewEnv(job, perfmodel.Default(), cloud.DefaultConfigs(), cloud.NewMarket(live), em)
			if err != nil {
				t.Fatal(err)
			}
			events := &eventList{}
			r := &sim.Runner{Env: env, Sink: events, WarningWindow: warn}
			start := units.Seconds(i) * 5 * units.Hour
			deadline := env.LRC.Fixed + env.LRC.Exec + units.Seconds(slack*float64(env.LRC.Exec))

			prov := core.NewSlackAware(env)
			prov.WarningWindow = warn
			res, err := r.Run(prov, start, start+deadline)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Finished || res.MissedDeadline {
				t.Fatalf("slack-aware broke the guarantee: finished=%v missed=%v",
					res.Finished, res.MissedDeadline)
			}
			if err := checkLifecycle(*events); err != nil {
				t.Fatal(err)
			}

			// The baselines must at least keep their books straight on
			// the same market (deadlines are theirs to miss).
			for _, mk := range []func() core.Provisioner{
				func() core.Provisioner { return core.NewSpotOn(env) },
				func() core.Provisioner { return core.NewGreedy(env) },
			} {
				*events = (*events)[:0]
				if _, err := r.Run(mk(), start, start+deadline); err != nil {
					t.Fatal(err)
				}
				if err := checkLifecycle(*events); err != nil {
					t.Fatalf("%s: %v", mk().Name(), err)
				}
			}
		})
	}
}

// eventList records a simulation's event stream (the runner emits on
// the calling goroutine).
type eventList []obs.Event

func (l *eventList) Emit(e obs.Event) { *l = append(*l, e) }

// checkLifecycle asserts the invariants a run's event stream keeps:
// lifecycle events (deploy, evict, checkpoint, done) are time-ordered;
// work left never rises except at an EvDeploy, which re-anchors the run
// at the durable frontier; and that frontier — the work left at the
// last sealed checkpoint — never regresses.
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

// chaosBackend is an instant Backend for controller chaos runs.
type chaosBackend struct{}

func (chaosBackend) Admit(spec scheduler.JobSpec) (units.Seconds, units.Seconds, units.USD, error) {
	if err := spec.Validate(); err != nil {
		return 0, 0, 0, err
	}
	return 1000, units.Day, 10, nil
}

func (chaosBackend) Run(_ context.Context, _ scheduler.JobSpec, start, deadline units.Seconds) (sim.RunResult, error) {
	return sim.RunResult{Cost: 2, Finished: true, Completion: start + deadline/2}, nil
}

func chaosSpec(id string) scheduler.JobSpec {
	return scheduler.JobSpec{
		ID:       id,
		Kind:     hourglass.PageRank,
		Strategy: hourglass.StrategyHourglass,
		Slack:    0.5,
		Period:   scheduler.Duration(30 * time.Minute),
		Runs:     1,
	}
}

func waitCompleted(t *testing.T, c *scheduler.Controller, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if st, ok := c.Get(id); ok && st.Completed >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never completed %d runs", id, n)
}

// TestChaosControllerSnapshotRestore cycles the daemon through
// seeded fault schedules: run a job table to completion, snapshot
// into the faulty store on shutdown, and boot a successor over the
// same store. The successor must either restore the table exactly
// (checksum intact) or detect the damage and start cleanly empty —
// never fail to boot, never load corrupt state.
func TestChaosControllerSnapshotRestore(t *testing.T) {
	epoch := time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC)
	restored := 0
	for i := 0; i < schedulerSchedules; i++ {
		seed := *chaosSeedBase + int64(40_000+i)
		store := faultinject.Wrap(cloud.NewDatastore(), chaosPolicy(seed))
		vc := scheduler.NewVirtualClock(epoch)
		c1, err := scheduler.New(scheduler.Options{
			Backend: chaosBackend{}, Clock: vc, Workers: 2, Seed: seed, Store: store,
		})
		if err != nil {
			t.Fatalf("seed %d: boot: %v", seed, err)
		}
		for _, id := range []string{"chaos-a", "chaos-b"} {
			if _, err := c1.Submit(chaosSpec(id)); err != nil {
				t.Fatalf("seed %d: submit %s: %v", seed, id, err)
			}
		}
		waitCompleted(t, c1, "chaos-a", 1)
		waitCompleted(t, c1, "chaos-b", 1)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := c1.Shutdown(ctx); err != nil {
			cancel()
			t.Fatalf("seed %d: snapshot under faults: %v", seed, err)
		}
		cancel()

		c2, err := scheduler.New(scheduler.Options{
			Backend: chaosBackend{}, Clock: vc, Workers: 2, Seed: seed, Store: store,
		})
		if err != nil {
			t.Fatalf("seed %d: restore boot: %v", seed, err)
		}
		jobs := c2.List()
		switch len(jobs) {
		case 2:
			restored++
			for _, st := range jobs {
				if st.Completed != 1 || !st.Done {
					t.Errorf("seed %d: job %s restored wrong: %+v", seed, st.Spec.ID, st)
				}
			}
		case 0:
			// Snapshot was durably corrupted in the store: a clean
			// fresh start is the correct recovery.
		default:
			t.Errorf("seed %d: partial restore of %d jobs", seed, len(jobs))
		}
		ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
		_ = c2.Shutdown(ctx2)
		cancel2()
	}
	if restored == 0 {
		t.Error("no schedule restored intact — retry/checksum path never exercised")
	}

	// A schedule that corrupts every write must force the fresh-start
	// branch deterministically.
	store := faultinject.Wrap(cloud.NewDatastore(), faultinject.Policy{Seed: 99, PWriteCorrupt: 1})
	vc := scheduler.NewVirtualClock(epoch)
	c1, err := scheduler.New(scheduler.Options{Backend: chaosBackend{}, Clock: vc, Workers: 2, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Submit(chaosSpec("doomed")); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, c1, "doomed", 1)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	c2, err := scheduler.New(scheduler.Options{Backend: chaosBackend{}, Clock: vc, Workers: 2, Store: store})
	if err != nil {
		t.Fatalf("corrupted snapshot failed the boot: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c2.Shutdown(ctx)
	}()
	if jobs := c2.List(); len(jobs) != 0 {
		t.Errorf("corrupt snapshot restored %d jobs, want fresh start", len(jobs))
	}
}
