package core

import (
	"fmt"
	"math"
	"testing"

	"hourglass/internal/perfmodel"
	"hourglass/internal/units"
)

// Whole-grid checks of the EC table. Every decision below the root reads
// a node of the table, so checking every node covers every value any
// decision can price with — deterministically, unlike the sampled
// quick.Check properties in property_test.go. Each check is an economic
// invariant of §5.2–5.3 with its tolerance stated.

// gridTables caches each job's filled table across the checks: a
// GraphColoring fill takes over a second.
var gridTables = map[string]*ecTable{}

// filledTable fills every node of job's EC table (no eviction warning)
// and returns it: rows 0…maxRows, work columns 1…workCols.
func filledTable(t *testing.T, job perfmodel.Job) *ecTable {
	t.Helper()
	if tab, ok := gridTables[job.Name]; ok {
		return tab
	}
	env := testEnv(t, job)
	tab := env.ecTable(0, 0)
	tab.mu.Lock()
	defer tab.mu.Unlock()
	// Row by row, so each fill reads rows already filled below it.
	for i := 0; i <= maxRows; i++ {
		for j := 1; j <= workCols; j++ {
			tab.lookup(units.Seconds(i)*tab.bucket, float64(j)/workCols, i)
		}
	}
	gridTables[job.Name] = tab
	return tab
}

// node is EC at row i (horizon i·bucket) and work column j (w = j/workCols).
func (t *ecTable) node(i, j int) float64 {
	if j == 0 {
		return 0
	}
	return float64(t.nodes[i*(workCols+1)+j])
}

// gridJobs are the three job kinds the daemon and the exhibits price.
var gridJobs = []perfmodel.Job{perfmodel.JobSSSP, perfmodel.JobPageRank, perfmodel.JobGC}

// More work left never costs less at the same horizon: EC is the
// expectation over strictly more work (§5.2). Tolerance 5 %, the one the
// sampled property holds to: SSSP keeps 8 of 159,399 pairs that fall, by
// at most 1.04×. Each is the §5.3 approximation, which prices one
// failure at the MTTF and reads its continuation from the nearest node.
// A pricing cliff shows as a fall of 1.2× or more.
func TestECGridMonotoneInWork(t *testing.T) {
	for _, job := range gridJobs {
		t.Run(job.Name, func(t *testing.T) {
			tab := filledTable(t, job)
			var bad []string
			for i := 0; i <= maxRows; i++ {
				for j := 1; j < workCols; j++ {
					lo, hi := tab.node(i, j), tab.node(i, j+1)
					if hi < lo*(1-0.05) {
						bad = append(bad, fmt.Sprintf("h=%v w=%.3f→%.3f: %.4f→%.4f (%.3fx)",
							units.Seconds(i)*tab.bucket, float64(j)/workCols, float64(j+1)/workCols, lo, hi, lo/hi))
					}
				}
			}
			reportGrid(t, "EC falls as work grows", bad)
		})
	}
}

// A longer horizon never costs more for the same work: every plan that
// meets the shorter deadline meets the longer one (§5.2). Tolerance 3 %:
// 1.3–3.1 % of pairs rise, by at most 1.023×. That is the §5.3
// approximation, not a defect: a chain always runs the longest useful
// interval the horizon allows, so a longer horizon can only lengthen
// its first interval and that interval's risk of eviction, where an
// exact optimum would be free to keep the shorter plan.
func TestECGridMonotoneInHorizon(t *testing.T) {
	for _, job := range gridJobs {
		t.Run(job.Name, func(t *testing.T) {
			tab := filledTable(t, job)
			var bad []string
			for i := 0; i < maxRows; i++ {
				for j := 1; j <= workCols; j++ {
					short, long := tab.node(i, j), tab.node(i+1, j)
					if long > short*(1+0.03) {
						bad = append(bad, fmt.Sprintf("w=%.3f h=%v→%v: %.4f→%.4f (%.3fx)",
							float64(j)/workCols, units.Seconds(i)*tab.bucket, units.Seconds(i+1)*tab.bucket, short, long, long/short))
					}
				}
			}
			reportGrid(t, "EC grows with the horizon", bad)
		})
	}
}

// Falling back to the last resort at once is always a plan, so no node
// may price above it. The table prices at historical averages, as the
// bound does, so the tolerance covers only float rounding.
func TestECGridBoundedByLastResort(t *testing.T) {
	for _, job := range gridJobs {
		t.Run(job.Name, func(t *testing.T) {
			tab := filledTable(t, job)
			var bad []string
			for i := 0; i <= maxRows; i++ {
				for j := 1; j <= workCols; j++ {
					w := float64(j) / workCols
					bound := float64(tab.env.LRCFinishCost(w))
					if v := tab.node(i, j); math.IsNaN(v) || v > bound*(1+1e-9) {
						bad = append(bad, fmt.Sprintf("h=%v w=%.3f: %.4f > %.4f",
							units.Seconds(i)*tab.bucket, w, v, bound))
					}
				}
			}
			reportGrid(t, "EC above the last resort", bad)
		})
	}
}

func reportGrid(t *testing.T, what string, bad []string) {
	t.Helper()
	if len(bad) == 0 {
		return
	}
	shown := bad[:min(len(bad), 8)]
	t.Errorf("%s on %d neighbour pairs, e.g.:\n  %s", what, len(bad), fmt.Sprint(shown))
}
