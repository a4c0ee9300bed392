package exhibit

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"hourglass"
	"hourglass/internal/units"
)

// guarantee is the zero-miss sweep over the strategies that promise
// never to miss: Hourglass and the +DP wrappers.
func guarantee(p Params) ([]Table, error) {
	return Sweep(p, hourglass.StrategyHourglass, hourglass.StrategyProteusDP, hourglass.StrategySpotOnDP)
}

// Sweep runs every job × slack 10–100% × p.Runs trace offsets (drawn
// per slack from p.Seed) × strategy, each against its own deadline,
// and counts the runs that miss it. It lists every miss in the table's
// notes and returns the table with an error when there is one.
func Sweep(p Params, strategies ...hourglass.Strategy) ([]Table, error) {
	sys, err := system(p, days, nil)
	if err != nil {
		return nil, err
	}
	type task struct {
		job, st    int
		frac       float64
		start, rel units.Seconds
	}
	var tasks []task
	horizon := units.Seconds(days) * units.Day
	for j, job := range jobs {
		for slack := 1; slack <= 10; slack++ {
			frac := float64(slack) / 10
			rel, err := sys.DeadlineFor(job, frac)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(p.Seed + int64(frac*1000)))
			for i := 0; i < p.Runs; i++ {
				start := units.Seconds(rng.Float64() * float64(horizon))
				for s := range strategies {
					tasks = append(tasks, task{j, s, frac, start, rel})
				}
			}
		}
	}

	missed := make([]string, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(tasks); i = int(next.Add(1)) - 1 {
				tk := tasks[i]
				st, job := strategies[tk.st], jobs[tk.job]
				res, err := sys.SimulateOne(job, st, tk.start, tk.start+tk.rel)
				switch {
				case err != nil:
					missed[i] = fmt.Sprintf("ERROR %s %s slack=%.0f%%: %v", st, job, tk.frac*100, err)
				case res.MissedDeadline || !res.Finished:
					missed[i] = fmt.Sprintf("MISS %s %s slack=%.0f%% start=%v late=%v",
						st, job, tk.frac*100, tk.start, res.Completion-(tk.start+tk.rel))
				}
			}
		}()
	}
	wg.Wait()

	t := Table{Title: fmt.Sprintf("Guarantee sweep: missed deadlines, %d offsets per job × slack", p.Runs), Stub: "strategy"}
	for _, job := range jobs {
		t.Cols = append(t.Cols, Col{Name: string(job), Fmt: "%.0f"})
	}
	for _, st := range strategies {
		t.Rows = append(t.Rows, Row{string(st), make([]float64, len(jobs))})
	}
	misses := 0
	for i, tk := range tasks {
		if missed[i] != "" {
			t.Rows[tk.st].Vals[tk.job]++
			t.Notes = append(t.Notes, missed[i])
			misses++
		}
	}
	t.Notes = append(t.Notes, fmt.Sprintf("verified %d runs: %d deadline misses", len(tasks), misses))
	if misses > 0 {
		return []Table{t}, fmt.Errorf("%d of %d runs missed their deadline", misses, len(tasks))
	}
	return []Table{t}, nil
}
