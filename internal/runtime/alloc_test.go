//go:build !race

// The race detector instruments allocations, so these counts hold only
// in an ordinary build.

package runtime_test

import (
	"context"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/runtime"
)

// TestUntracedExecuteAllocs pins what an untraced Execute allocates
// outside the engine's own work: folding every event into the Report
// must format nothing for a sink that is not there. The bound is the
// count of a driver that kept its counters by hand (921), plus 2 for
// the goroutine descriptors the Go runtime allocates whenever its free
// list runs dry, which moves the average by one between runs.
func TestUntracedExecuteAllocs(t *testing.T) {
	h := getHarness(t, "pagerank")
	allocs := testing.AllocsPerRun(10, func() {
		opts := h.options(t, cloud.NewDatastore(), "allocs/pagerank", h.provisioner(t))
		opts.Watchdog = 0
		if _, err := runtime.Execute(context.Background(), opts, 0, h.relDl); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 921+2 {
		t.Fatalf("an untraced Execute allocates %.0f times, want <= %d", allocs, 921+2)
	}
}
