//go:build !race

// The race detector instruments allocations, so these counts hold only
// in an ordinary build.

package sim

import (
	"testing"

	"hourglass/internal/core"
	"hourglass/internal/perfmodel"
	"hourglass/internal/units"
)

// TestUntracedRunAllocs pins what an untraced run allocates: every
// exhibit and batch runs thousands of them, and teeing each spend and
// decision into the result's fold must not format a configuration id
// nobody reads. The bound is the count measured with the fold as the
// result.
func TestUntracedRunAllocs(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	r := &Runner{Env: env}
	start := 5 * units.Hour
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(core.NewSlackAware(env), start, start+deadlineFor(env, 0.5)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 287 {
		t.Fatalf("an untraced slack-aware PageRank run allocates %.0f times, want <= 287", allocs)
	}
}
