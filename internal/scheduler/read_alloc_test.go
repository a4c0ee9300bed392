//go:build !race

package scheduler

import (
	"net/http"
	"testing"
	"time"
)

// discardWriter is a ResponseWriter that keeps nothing, so only the
// handler's own allocations are counted.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// TestListAllocsFlatInDoneJobs checks that GET /jobs copies the
// encodings of done jobs instead of re-encoding them: a table of 2,000
// done jobs costs the same number of allocations as one of 500.
func TestListAllocsFlatInDoneJobs(t *testing.T) {
	allocs := func(n int) float64 {
		c := newTestController(t, &stubBackend{}, NewVirtualClock(epoch), nil)
		for i := 0; i < n; i++ {
			if _, err := c.Submit(pagerankSpec(time.Hour, 1)); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, "every one-shot to complete", func() bool {
			return c.Metrics().Value(MetricRunsFinished) == float64(n)
		})
		req, err := http.NewRequest(http.MethodGet, "/jobs", nil)
		if err != nil {
			t.Fatal(err)
		}
		w := &discardWriter{h: http.Header{}}
		return testing.AllocsPerRun(20, func() { c.handleList(w, req) })
	}
	small, large := allocs(500), allocs(2000)
	if large > small+4 {
		t.Errorf("GET /jobs allocates %.0f times over 2,000 done jobs, %.0f over 500", large, small)
	}
}
