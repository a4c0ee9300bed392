package admission_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"hourglass"
	"hourglass/internal/admission"
	"hourglass/internal/admission/arrivals"
	"hourglass/internal/scheduler"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// instantBackend prices submissions through the real market machinery
// (SystemBackend.Admit and Estimate, including the simulator's
// first-decision pass) but completes dispatched runs instantly, so
// BenchmarkControllerThroughput measures the controller's admission
// path — validate, price, pack or queue — not graph execution.
type instantBackend struct {
	scheduler.SystemBackend
}

func (b instantBackend) Run(ctx context.Context, spec scheduler.JobSpec, start, deadline units.Seconds) (sim.RunResult, error) {
	return sim.RunResult{Cost: 0.25, Finished: true, Completion: start}, nil
}

// BenchmarkControllerThroughput replays a seeded multi-tenant arrival
// stream into a gated controller on the virtual clock and reports the
// sustained decision rate. scripts/bench_controller.sh freezes these
// numbers into BENCH_CONTROLLER.json and CI gates regressions; run
// with a fixed iteration count (-benchtime 2000x) for comparable
// admit/queue fractions across machines. Each admitted job's instant
// recurrence completes before the next arrival, as it would on the
// virtual clock, so the fractions do not depend on how fast pricing
// lets the submitter outrun the worker pool. The wait stays timed:
// ns/op is a decision plus its recurrence's dispatch and completion.
func BenchmarkControllerThroughput(b *testing.B) {
	sys, err := hourglass.New(hourglass.Options{Seed: 11, TraceDays: 10})
	if err != nil {
		b.Fatal(err)
	}
	required := map[string]units.Seconds{}
	for _, k := range []hourglass.JobKind{hourglass.SSSP, hourglass.PageRank} {
		r, err := sys.DeadlineFor(k, 0)
		if err != nil {
			b.Fatal(err)
		}
		required[string(k)] = r
	}
	arr, err := arrivals.Spec{
		Seed:    42,
		PerHour: 2500,
		Horizon: 4 * time.Hour,
		Tenants: []arrivals.Tenant{
			{Name: "team-a", Weight: 3, SlackMin: 0.5, SlackMax: 1.5},
			{Name: "team-b", Weight: 2, SlackMin: 0.8, SlackMax: 2, InfeasibleFraction: 0.1},
			{Name: "team-c", Weight: 1, SlackMin: 1, SlackMax: 3},
		},
	}.Generate()
	if err != nil {
		b.Fatal(err)
	}

	for _, pool := range []int{8, 64} {
		b.Run(fmt.Sprintf("pool=%d", pool), func(b *testing.B) {
			vc := scheduler.NewVirtualClock(epoch)
			ctrl, err := scheduler.New(scheduler.Options{
				Backend:    instantBackend{scheduler.SystemBackend{Sys: sys}},
				Clock:      vc,
				Workers:    8,
				QueueDepth: 1024,
				Seed:       11,
				Admission:  &admission.Config{MaxDeployments: pool, QueueDepth: 256},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				_ = ctrl.Shutdown(ctx)
			}()

			var admitted, queued, rejected int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx := i % len(arr)
				a := arr[idx]
				if idx > 0 {
					vc.Advance(a.At - arr[idx-1].At)
				} else {
					vc.Advance(a.At)
				}
				spec := scheduler.JobSpec{
					ID:       fmt.Sprintf("bench-%07d", i),
					Kind:     hourglass.JobKind(a.Kind),
					Strategy: hourglass.StrategyHourglass,
					Slack:    a.Slack,
					Period:   scheduler.Duration(time.Hour),
					Runs:     1,
					Tenant:   a.Tenant,
				}
				if a.Infeasible {
					spec.Deadline = scheduler.Duration(
						time.Duration(a.DeadlineScale * float64(required[a.Kind].Duration())))
				}
				st, err := ctrl.Submit(spec)
				var inf *admission.InfeasibleError
				switch {
				case errors.As(err, &inf), errors.Is(err, admission.ErrQueueFull):
					rejected++
				case err != nil:
					b.Fatal(err)
				case st.Queued:
					queued++
				default:
					admitted++
					for {
						if got, _ := ctrl.Get(st.Spec.ID); got.Completed > 0 {
							break
						}
						runtime.Gosched()
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "decisions/sec")
			b.ReportMetric(float64(admitted)/float64(b.N), "admit_frac")
			b.ReportMetric(float64(queued)/float64(b.N), "queued_frac")
			b.ReportMetric(float64(rejected)/float64(b.N), "reject_frac")
		})
	}
}
