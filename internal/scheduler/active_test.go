package scheduler

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hourglass/internal/admission"
	"hourglass/internal/cloud"
)

// checkBooks compares the controller's active counter, the active-jobs
// gauge, the scheduling loop's pending set and the cached encodings of
// done jobs against a scan of the job table.
func checkBooks(t *testing.T, c *Controller, when string) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	active, pending := 0, 0
	for id, e := range c.jobs {
		if !e.done() {
			active++
		}
		canDispatch := !e.queued && !e.cancelled && !e.exhausted()
		if canDispatch {
			pending++
		}
		if _, in := c.pending[id]; in != canDispatch {
			t.Fatalf("%s: job %s in pending set = %t, can dispatch = %t", when, id, in, canDispatch)
		}
		checkSealLocked(t, c, e, when)
	}
	if len(c.pending) != pending {
		t.Fatalf("%s: pending set holds %d jobs, the table %d that can dispatch", when, len(c.pending), pending)
	}
	if c.active != active {
		t.Fatalf("%s: active counter %d, scan %d", when, c.active, active)
	}
	if g := c.metrics.Value(MetricJobsActive); g != float64(active) {
		t.Fatalf("%s: active gauge %v, scan %d", when, g, active)
	}
}

// checkSealLocked checks that a done entry carries the encoding of its
// current status and a live one carries none; callers hold c.mu.
func checkSealLocked(t *testing.T, c *Controller, e *jobEntry, when string) {
	t.Helper()
	if !e.done() {
		if e.enc != nil {
			t.Fatalf("%s: live job %s has a cached encoding", when, e.spec.ID)
		}
		return
	}
	fresh, err := json.Marshal(c.statusLocked(e))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(e.enc, fresh) {
		t.Fatalf("%s: job %s cached\n%s\nfresh\n%s", when, e.spec.ID, e.enc, fresh)
	}
}

// TestActiveBooksMatchScan drives a controller through random submits,
// deletes, clock advances (which dispatch and complete recurrences) and
// snapshot restores, with and without the admission gate, checking
// after every step that the bookkeeping Submit, Delete and the
// scheduling loop use instead of scanning agrees with a full scan.
func TestActiveBooksMatchScan(t *testing.T) {
	for _, gated := range []bool{false, true} {
		t.Run(fmt.Sprintf("gated=%t", gated), func(t *testing.T) {
			rng := rand.New(rand.NewSource(39))
			b := &estBackend{required: 500, demand: 0.6}
			vc := NewVirtualClock(epoch)
			store := cloud.NewDatastore()
			build := func() *Controller {
				if gated {
					return newGatedController(t, b, vc, store, admission.Config{MaxDeployments: 2, QueueDepth: 2})
				}
				return newTestController(t, b, vc, store)
			}
			c := build()
			var ids []string
			for step := 0; step < 200; step++ {
				var what string
				switch op := rng.Intn(10); {
				case op < 4:
					spec := pagerankSpec(time.Duration(1+rng.Intn(3))*time.Minute, rng.Intn(4))
					st, err := c.Submit(spec)
					if err == nil {
						ids = append(ids, st.Spec.ID)
					}
					what = fmt.Sprintf("submit runs=%d (err=%v)", spec.Runs, err)
				case op < 6 && len(ids) > 0:
					id := ids[rng.Intn(len(ids))]
					what = fmt.Sprintf("delete %s (found=%t)", id, c.Delete(id))
				case op < 9:
					d := time.Duration(rng.Intn(4)) * time.Minute
					vc.Advance(d)
					what = fmt.Sprintf("advance %v", d)
				default:
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
					err := c.Shutdown(ctx)
					cancel()
					if err != nil {
						t.Fatal(err)
					}
					c = build()
					what = "restore"
				}
				checkBooks(t, c, fmt.Sprintf("step %d, %s", step, what))
			}
		})
	}
}

// TestDoneOneShotsLeaveNothingToVisit checks that once every one-shot
// job has completed, the scheduling loop has no job left to visit and
// the active gauge reads zero, although the table keeps the jobs.
func TestDoneOneShotsLeaveNothingToVisit(t *testing.T) {
	c := newTestController(t, &stubBackend{}, NewVirtualClock(epoch), nil)
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := c.Submit(pagerankSpec(time.Minute, 1)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every one-shot to complete", func() bool {
		for _, st := range c.List() {
			if !st.Done {
				return false
			}
		}
		return true
	})
	checkBooks(t, c, "after completion")
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.jobs) != n || len(c.pending) != 0 || c.active != 0 {
		t.Errorf("table %d jobs, pending %d, active %d; want %d, 0, 0", len(c.jobs), len(c.pending), c.active, n)
	}
}
