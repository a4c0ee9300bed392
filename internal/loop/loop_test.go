package loop

import (
	"testing"

	"hourglass/internal/core"
	"hourglass/internal/units"
)

// A MaxRun of exactly the work left covers it: the provisioner derives
// MaxRun from w(t), and the rounding of that product must not leave a
// last superstep to one more decision and deployment.
func TestPlanMaxRunOfTheWorkLeftCoversIt(t *testing.T) {
	for _, total := range []int{30, 1 << 30} {
		l := &Loop{Total: total}
		for _, exec := range []units.Seconds{157.5, 1234.567, 4 * units.Hour} {
			cs := &core.ConfigStats{Exec: exec}
			for done := 0; done < total; done += max(total/1009, 1) {
				dec := core.Decision{MaxRun: units.Seconds(l.WorkLeft(done) * float64(exec))}
				if steps, _ := l.plan(dec, cs, done); steps != total-done {
					t.Fatalf("total %d, exec %v, done %d: MaxRun %v plans %d supersteps, want the %d left",
						total, exec, done, dec.MaxRun, steps, total-done)
				}
			}
		}
	}
}
