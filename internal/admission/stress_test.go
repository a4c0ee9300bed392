package admission_test

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hourglass"
	"hourglass/internal/admission"
	"hourglass/internal/admission/arrivals"
	"hourglass/internal/obs"
	"hourglass/internal/scheduler"
	"hourglass/internal/units"
)

// -arrivals-seed-base rotates the soak's stream seeds; nightly CI
// passes a date-derived base so every night replays different
// arrival patterns (a failure reproduces from the logged seed).
var arrivalsSeedBase = flag.Int64("arrivals-seed-base", 1000, "base seed for the rotating arrival soak")

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// arrivalWindow is how many accepted jobs may be unfinished when the
// next arrival is submitted (see driveArrivals). It is under both
// tests' admission queue depth, so a queue never overflows, and it is
// large enough that deployments fill and jobs queue.
const arrivalWindow = 10

// eventLog is a concurrency-safe obs sink.
type eventLog struct {
	mu     sync.Mutex
	events []obs.Event
}

func (l *eventLog) Emit(e obs.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

func (l *eventLog) byType(typ string) []obs.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []obs.Event
	for _, e := range l.events {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// stressOutcome tallies one open-loop arrival stream driven through a
// gated controller on the virtual clock.
type stressOutcome struct {
	admitted, queued   int
	rejectedInfeasible int
	rejectedOverflow   int
	tenantsSeen        map[string]bool
	submittedJobs      int
}

// driveArrivals replays a generated stream into the controller,
// advancing the virtual clock to each arrival instant. Infeasible
// arrivals carry an explicit deadline under the per-kind feasibility
// bound; every such submission must come back as InfeasibleError.
//
// Recurrences release their deployment shares when they finish on the
// wall clock, so an arrival waits until at most window accepted jobs
// are unfinished: the outcome mix then follows the window, not how
// fast pricing lets the submitter outrun the worker pool.
func driveArrivals(t *testing.T, ctrl *scheduler.Controller, vc *scheduler.VirtualClock,
	sys *hourglass.System, arr []arrivals.Arrival, label string, window int) stressOutcome {
	t.Helper()
	required := map[string]units.Seconds{}
	for _, k := range []hourglass.JobKind{hourglass.SSSP, hourglass.PageRank, hourglass.GC} {
		// Slack 0 resolves to exactly fixed + exec on the last-resort
		// configuration — the feasibility bound.
		r, err := sys.DeadlineFor(k, 0)
		if err != nil {
			t.Fatal(err)
		}
		required[string(k)] = r
	}

	out := stressOutcome{tenantsSeen: map[string]bool{}}
	var last time.Duration
	var unfinished []string
	for i, a := range arr {
		waitFor(t, "the arrival window", func() bool {
			keep := unfinished[:0]
			for _, id := range unfinished {
				if st, ok := ctrl.Get(id); ok && !st.Done {
					keep = append(keep, id)
				}
			}
			unfinished = keep
			return len(unfinished) <= window
		})
		vc.Advance(a.At - last)
		last = a.At
		spec := scheduler.JobSpec{
			ID:       fmt.Sprintf("%s-%s-%04d", label, a.Tenant, i),
			Kind:     hourglass.JobKind(a.Kind),
			Strategy: hourglass.StrategyHourglass,
			Slack:    a.Slack,
			Period:   scheduler.Duration(time.Hour),
			Runs:     1,
			Tenant:   a.Tenant,
		}
		if a.Infeasible {
			short := time.Duration(a.DeadlineScale * float64(required[a.Kind].Duration()))
			spec.Deadline = scheduler.Duration(short)
		}
		st, err := ctrl.Submit(spec)
		var inf *admission.InfeasibleError
		switch {
		case errors.As(err, &inf):
			out.rejectedInfeasible++
			if !a.Infeasible {
				t.Fatalf("feasible arrival %d rejected as infeasible: %v", i, err)
			}
			if _, ok := ctrl.Get(spec.ID); ok {
				t.Fatalf("rejected job %s entered the table", spec.ID)
			}
		case errors.Is(err, admission.ErrQueueFull):
			out.rejectedOverflow++
		case err != nil:
			t.Fatalf("arrival %d: %v", i, err)
		case st.Queued:
			if a.Infeasible {
				t.Fatalf("infeasible arrival %d queued instead of rejected", i)
			}
			out.queued++
			out.tenantsSeen[a.Tenant] = true
			out.submittedJobs++
			unfinished = append(unfinished, spec.ID)
		default:
			if a.Infeasible {
				t.Fatalf("infeasible arrival %d admitted (deadline %v, required %v)",
					i, time.Duration(spec.Deadline), required[a.Kind])
			}
			if st.Deployment == "" {
				t.Fatalf("admitted job %s has no deployment", spec.ID)
			}
			out.admitted++
			out.tenantsSeen[a.Tenant] = true
			out.submittedJobs++
			unfinished = append(unfinished, spec.ID)
		}
		if a.Infeasible && err == nil {
			t.Fatalf("infeasible arrival %d not rejected", i)
		}
	}
	return out
}

// TestOpenLoopStress is the acceptance stress: thousands of
// virtual-clock arrivals across three tenants through the real
// pricing machinery, asserting every infeasible submission bounces
// before deployment, no admitted job misses its deadline, and
// concurrent recurrences demonstrably share deployments.
func TestOpenLoopStress(t *testing.T) {
	perHour, horizon := 2500.0, time.Hour
	if testing.Short() {
		perHour = 400
	}
	sys, err := hourglass.New(hourglass.Options{Seed: 11, TraceDays: 10})
	if err != nil {
		t.Fatal(err)
	}
	sink := &eventLog{}
	vc := scheduler.NewVirtualClock(epoch)
	ctrl, err := scheduler.New(scheduler.Options{
		Backend:    scheduler.SystemBackend{Sys: sys},
		Clock:      vc,
		Workers:    8,
		QueueDepth: 512,
		Seed:       11,
		Sink:       sink,
		Admission:  &admission.Config{MaxDeployments: 6, QueueDepth: 64},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Shutdown(testContext(t))

	stream := arrivals.Spec{
		Seed:    42,
		PerHour: perHour,
		Horizon: horizon,
		Tenants: []arrivals.Tenant{
			{Name: "team-a", Weight: 3, SlackMin: 0.5, SlackMax: 1.5},
			{Name: "team-b", Weight: 2, SlackMin: 0.8, SlackMax: 2, InfeasibleFraction: 0.15},
			{Name: "team-c", Weight: 1, SlackMin: 1, SlackMax: 3},
		},
	}
	arr, err := stream.Generate()
	if err != nil {
		t.Fatal(err)
	}
	out := driveArrivals(t, ctrl, vc, sys, arr, "stress", arrivalWindow)

	total := out.admitted + out.queued + out.rejectedInfeasible + out.rejectedOverflow
	if !testing.Short() && total < 2000 {
		t.Fatalf("only %d arrivals decided (admitted %d, queued %d, infeasible %d, overflow %d), want >= 2000",
			total, out.admitted, out.queued, out.rejectedInfeasible, out.rejectedOverflow)
	}
	if len(out.tenantsSeen) < 3 {
		t.Fatalf("only %d tenants admitted/queued, want >= 3", len(out.tenantsSeen))
	}
	if out.rejectedInfeasible == 0 {
		t.Fatal("stream produced no infeasible rejections")
	}
	// Both acceptance paths carry real traffic: most arrivals are
	// packed at once, and a sizeable share waits in the queue for a
	// promotion (about 2100 admitted, 320 queued of 2420 accepted).
	accepted := out.admitted + out.queued
	if out.rejectedOverflow != 0 || 2*out.admitted < accepted || 20*out.queued < accepted {
		t.Errorf("outcome mix admitted %d, queued %d, overflow %d: want over half admitted, at least 5%% queued, no overflow",
			out.admitted, out.queued, out.rejectedOverflow)
	}

	// Drain: every job left in the table has Runs=1, so completions
	// release deployment shares and pull the queue dry.
	waitFor(t, "all admitted jobs to finish", func() bool {
		for _, st := range ctrl.List() {
			if !st.Done {
				return false
			}
		}
		return true
	})

	misses, failures := 0, 0
	for _, st := range ctrl.List() {
		misses += st.Agg.Missed
		failures += st.Agg.Failed
	}
	if misses != 0 {
		t.Errorf("%d deadline misses among admitted jobs, want 0", misses)
	}
	if failures != 0 {
		t.Errorf("%d failed runs among admitted jobs, want 0", failures)
	}

	// Packing proof from the event stream: at least one EvPack landed
	// on a deployment that already had a resident.
	sharedPacks := 0
	for _, e := range sink.byType(obs.EvPack) {
		if e.Active >= 2 {
			sharedPacks++
		}
	}
	if sharedPacks == 0 {
		t.Error("no EvPack event shows >= 2 concurrent residents on one deployment")
	}
	admits := sink.byType(obs.EvAdmit)
	if len(admits) != out.admitted+out.queued {
		t.Errorf("EvAdmit count %d != admitted %d + promoted %d", len(admits), out.admitted, out.queued)
	}
	if got := len(sink.byType(obs.EvReject)); got != out.rejectedInfeasible+out.rejectedOverflow {
		t.Errorf("EvReject count %d != %d", got, out.rejectedInfeasible+out.rejectedOverflow)
	}
	t.Logf("stress: %d arrivals → %d admitted, %d queued, %d infeasible, %d overflow; %d shared packs",
		total, out.admitted, out.queued, out.rejectedInfeasible, out.rejectedOverflow, sharedPacks)
}

// TestArrivalSoak replays several smaller rotating-seed streams — the
// nightly workflow varies -arrivals-seed-base so each night exercises
// fresh arrival patterns.
func TestArrivalSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short mode")
	}
	for i := int64(0); i < 3; i++ {
		seed := *arrivalsSeedBase + i
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sys, err := hourglass.New(hourglass.Options{Seed: seed, TraceDays: 10})
			if err != nil {
				t.Fatal(err)
			}
			vc := scheduler.NewVirtualClock(epoch)
			ctrl, err := scheduler.New(scheduler.Options{
				Backend:    scheduler.SystemBackend{Sys: sys},
				Clock:      vc,
				Workers:    4,
				QueueDepth: 256,
				Seed:       seed,
				Admission:  &admission.Config{MaxDeployments: 4, QueueDepth: 32},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer ctrl.Shutdown(testContext(t))
			arr, err := arrivals.Spec{
				Seed:    seed,
				PerHour: 700,
				Horizon: 30 * time.Minute,
				Tenants: []arrivals.Tenant{
					{Name: "t1", Weight: 2, SlackMin: 0.5, SlackMax: 1.5, InfeasibleFraction: 0.1},
					{Name: "t2", Weight: 1, SlackMin: 1, SlackMax: 2.5},
					{Name: "t3", Weight: 1, SlackMin: 0.8, SlackMax: 2},
				},
			}.Generate()
			if err != nil {
				t.Fatal(err)
			}
			out := driveArrivals(t, ctrl, vc, sys, arr, "soak", arrivalWindow)
			waitFor(t, "soak drain", func() bool {
				for _, st := range ctrl.List() {
					if !st.Done {
						return false
					}
				}
				return true
			})
			misses := 0
			for _, st := range ctrl.List() {
				misses += st.Agg.Missed
			}
			if misses != 0 {
				t.Errorf("seed %d: %d deadline misses", seed, misses)
			}
			if got := len(ctrl.List()); got != out.submittedJobs {
				t.Errorf("seed %d: table has %d jobs, %d were accepted", seed, got, out.submittedJobs)
			}
		})
	}
}

// A submission may carry any deadline. Pricing it fills the job kind's
// shared EC table, whose size must not follow the deadline: a one-year
// GraphColoring deadline is priced in bounded time and memory (without
// the table's row cap it needs ~440k rows, ~700 MB).
func TestHugeDeadlineSubmitIsBounded(t *testing.T) {
	sys, err := hourglass.New(hourglass.Options{Seed: 11, TraceDays: 10})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := scheduler.New(scheduler.Options{
		Backend:    instantBackend{scheduler.SystemBackend{Sys: sys}},
		Clock:      scheduler.NewVirtualClock(epoch),
		Workers:    1,
		QueueDepth: 8,
		Seed:       11,
		Admission:  &admission.Config{MaxDeployments: 2, QueueDepth: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Shutdown(testContext(t))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	st, err := ctrl.Submit(scheduler.JobSpec{
		ID:       "gc-year",
		Kind:     hourglass.GC,
		Strategy: hourglass.StrategyHourglass,
		Deadline: scheduler.Duration(365 * 24 * time.Hour),
		Period:   scheduler.Duration(time.Hour),
		Runs:     1,
	})
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queued || st.Deployment == "" {
		t.Errorf("one-year job not admitted onto a deployment: %+v", st)
	}
	// A slack-3 deadline's fill: about 1.5 s, 15 s under -race. The
	// uncapped fill takes many minutes.
	if took > time.Minute {
		t.Errorf("one-year Submit took %v, want well under a minute", took)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if alloc > 64<<20 {
		t.Errorf("one-year Submit allocated %d MB, want under 64 MB", alloc>>20)
	}
	t.Logf("one-year Submit: %v, %.1f MB allocated", took, float64(alloc)/(1<<20))
}
