package scheduler

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hourglass"
	"hourglass/internal/cloud"
	"hourglass/internal/faultinject"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// stubBackend is an instant, deterministic Backend for controller
// unit tests.
type stubBackend struct {
	mu    sync.Mutex
	runs  int
	fail  bool
	block bool // Run parks until ctx is cancelled
}

func (b *stubBackend) Admit(spec JobSpec) (units.Seconds, units.Seconds, units.USD, error) {
	if err := spec.Validate(); err != nil {
		return 0, 0, 0, err
	}
	return 1000, units.Day, 10, nil
}

func (b *stubBackend) Run(ctx context.Context, spec JobSpec, start, deadline units.Seconds) (sim.RunResult, error) {
	b.mu.Lock()
	b.runs++
	b.mu.Unlock()
	if b.block {
		<-ctx.Done()
		return sim.RunResult{}, ctx.Err()
	}
	if b.fail {
		return sim.RunResult{}, errors.New("synthetic failure")
	}
	return sim.RunResult{
		Cost: 2, Finished: true, Completion: start + deadline/2,
		Evictions: 1, Reconfigs: 2, Decisions: 5,
	}, nil
}

func (b *stubBackend) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs
}

func newTestController(t *testing.T, b Backend, vc *VirtualClock, store cloud.BlobStore) *Controller {
	t.Helper()
	c, err := New(Options{Backend: b, Clock: vc, Workers: 2, Seed: 7, Store: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx)
	})
	return c
}

// waitFor polls cond with a real-time deadline; the simulated work
// completes in microseconds, so this only bridges goroutine handoff.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func pagerankSpec(period time.Duration, runs int) JobSpec {
	return JobSpec{
		Kind:     hourglass.PageRank,
		Strategy: hourglass.StrategyHourglass,
		Slack:    0.5,
		Period:   Duration(period),
		Runs:     runs,
	}
}

func TestSubmitValidation(t *testing.T) {
	c := newTestController(t, &stubBackend{}, NewVirtualClock(epoch), nil)
	cases := []JobSpec{
		{Kind: "nope", Strategy: hourglass.StrategyHourglass, Slack: 0.5, Period: Duration(time.Minute)},
		{Kind: hourglass.PageRank, Strategy: "nope", Slack: 0.5, Period: Duration(time.Minute)},
		{Kind: hourglass.PageRank, Strategy: hourglass.StrategyHourglass, Slack: -1, Period: Duration(time.Minute)},
		{Kind: hourglass.PageRank, Strategy: hourglass.StrategyHourglass, Slack: 0.5, Period: 0},
		{Kind: hourglass.PageRank, Strategy: hourglass.StrategyHourglass, Slack: 0.5, Period: Duration(time.Minute), Runs: -1},
	}
	for i, spec := range cases {
		if _, err := c.Submit(spec); err == nil {
			t.Errorf("case %d: invalid spec accepted: %+v", i, spec)
		}
	}
	spec := pagerankSpec(time.Minute, 1)
	spec.ID = "dup"
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(spec); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate ID accepted (err=%v)", err)
	}
}

func TestSubmitDuplicateIsTypedConflict(t *testing.T) {
	// Regression: the HTTP layer used to sniff err.Error() for "already
	// exists", so any rewording of the message silently downgraded the
	// 409 to a 400. The conflict is now a typed sentinel.
	c := newTestController(t, &stubBackend{}, NewVirtualClock(epoch), nil)
	spec := pagerankSpec(time.Minute, 1)
	spec.ID = "typed-dup"
	if _, err := c.Submit(spec); err != nil {
		t.Fatal(err)
	}
	_, err := c.Submit(spec)
	if !errors.Is(err, ErrJobExists) {
		t.Fatalf("duplicate submit: err = %v, want errors.Is(ErrJobExists)", err)
	}

	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	body := `{"id":"typed-dup","kind":"pagerank","strategy":"hourglass","slack":0.5,"period":"1m","runs":1}`
	resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate submit over HTTP: status %d, want 409", resp.StatusCode)
	}
}

// TestSubmitRejectsPathLikeID: a job ID becomes a checkpoint namespace,
// so one with "/" could nest inside another job's and one with ".."
// would be refused by a file store on every write. Both are 400s.
func TestSubmitRejectsPathLikeID(t *testing.T) {
	c := newTestController(t, &stubBackend{}, NewVirtualClock(epoch), nil)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	for _, id := range []string{"x/y", "x..y", ".."} {
		body := `{"id":"` + id + `","kind":"pagerank","strategy":"hourglass","slack":0.5,"period":"1m","runs":1}`
		resp, err := http.Post(srv.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit with id %q: status %d, want 400", id, resp.StatusCode)
		}
	}
	if jobs := c.List(); len(jobs) != 0 {
		t.Fatalf("%d jobs admitted, want none", len(jobs))
	}
}

func TestRestoreSkipsCorruptSnapshot(t *testing.T) {
	// Regression: a scribbled state object used to fail New outright.
	// A daemon must detect the damage and boot with an empty table.
	for name, blob := range map[string][]byte{
		"not JSON":     []byte("{{{ definitely not json"),
		"bad checksum": []byte(`{"crc32":"deadbeef","state":{"seq":3,"jobs":[]}}`),
	} {
		store := cloud.NewDatastore()
		store.Put("scheduler/state.json", blob)
		c := newTestController(t, &stubBackend{}, NewVirtualClock(epoch), store)
		if jobs := c.List(); len(jobs) != 0 {
			t.Errorf("%s: corrupt snapshot restored %d jobs", name, len(jobs))
		}
		// The table is usable: a fresh submit goes through.
		if _, err := c.Submit(pagerankSpec(time.Minute, 1)); err != nil {
			t.Errorf("%s: submit after corrupt-skip: %v", name, err)
		}
	}
}

func TestRestoreAcceptsLegacySnapshot(t *testing.T) {
	// Pre-envelope snapshots are plain snapshotState documents; they
	// must still restore (without checksum verification).
	legacy, err := json.Marshal(snapshotState{
		SavedAt: epoch,
		Seq:     5,
		Jobs: []snapshotJob{{
			Spec:      func() JobSpec { s := pagerankSpec(time.Minute, 2); s.ID = "job-5"; return s }(),
			Created:   epoch,
			NextRun:   epoch.Add(time.Hour),
			Completed: 1,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	store := cloud.NewDatastore()
	store.Put("scheduler/state.json", legacy)
	c := newTestController(t, &stubBackend{}, NewVirtualClock(epoch), store)
	st, ok := c.Get("job-5")
	if !ok || st.Completed != 1 {
		t.Fatalf("legacy snapshot not restored: %+v (ok=%v)", st, ok)
	}
}

func TestSnapshotRoundTripSurvivesFaultyStore(t *testing.T) {
	// Snapshot writes and reads go through retry + checksum, so a store
	// injecting transient errors must not lose the job table.
	faulty := faultinject.Wrap(cloud.NewDatastore(), faultinject.Policy{
		Seed: 17, PError: 0.6, MaxConsecutive: 2,
	})
	vc := NewVirtualClock(epoch)
	c := newTestController(t, &stubBackend{}, vc, faulty)
	st, err := c.Submit(pagerankSpec(30*time.Minute, 2))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "first run", func() bool { s, _ := c.Get(st.Spec.ID); return s.Completed == 1 })
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("snapshot under faults: %v", err)
	}

	c2 := newTestController(t, &stubBackend{}, vc, faulty)
	got, ok := c2.Get(st.Spec.ID)
	if !ok || got.Completed != 1 {
		t.Fatalf("restore under faults: %+v (ok=%v)", got, ok)
	}
	if faulty.Stats().Errors == 0 {
		t.Error("fault schedule injected nothing — test is vacuous")
	}
}

func TestBoundedJobRunsToCompletion(t *testing.T) {
	b := &stubBackend{}
	vc := NewVirtualClock(epoch)
	c := newTestController(t, b, vc, nil)

	st, err := c.Submit(pagerankSpec(30*time.Minute, 3))
	if err != nil {
		t.Fatal(err)
	}
	id := st.Spec.ID
	if id == "" {
		t.Fatal("no ID assigned")
	}

	// First recurrence fires immediately at submit time.
	waitFor(t, "first run", func() bool { s, _ := c.Get(id); return s.Completed == 1 })
	vc.Advance(30 * time.Minute)
	waitFor(t, "second run", func() bool { s, _ := c.Get(id); return s.Completed == 2 })
	vc.Advance(30 * time.Minute)
	waitFor(t, "third run", func() bool { s, _ := c.Get(id); return s.Completed == 3 })

	s, _ := c.Get(id)
	if !s.Done || s.NextRun != nil {
		t.Errorf("job not done after bounded runs: %+v", s)
	}
	hist, _ := c.History(id)
	if len(hist) != 3 {
		t.Fatalf("history length %d, want 3", len(hist))
	}
	for i, rec := range hist {
		if rec.Error != "" || !rec.Finished {
			t.Errorf("run %d: %+v", i, rec)
		}
		if rec.NormCost != 0.2 { // cost 2 over baseline 10
			t.Errorf("run %d: norm cost %v", i, rec.NormCost)
		}
	}
	// A done job schedules nothing more.
	vc.Advance(time.Hour)
	time.Sleep(20 * time.Millisecond)
	if got := b.count(); got != 3 {
		t.Errorf("backend ran %d times, want 3", got)
	}
	if s.Agg.Evictions != 3 || s.Agg.Reconfigs != 6 || s.Agg.CostUSD != 6 {
		t.Errorf("aggregates: %+v", s.Agg)
	}
}

func TestCatchUpDispatch(t *testing.T) {
	b := &stubBackend{}
	vc := NewVirtualClock(epoch)
	c := newTestController(t, b, vc, nil)

	st, err := c.Submit(pagerankSpec(10*time.Minute, 0)) // unbounded
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial run", func() bool { s, _ := c.Get(st.Spec.ID); return s.Completed == 1 })

	// One large advance crosses three periods: the daemon catches up
	// on every missed recurrence.
	vc.Advance(30 * time.Minute)
	waitFor(t, "catch-up", func() bool { s, _ := c.Get(st.Spec.ID); return s.Completed == 4 })

	hist, _ := c.History(st.Spec.ID)
	seen := map[int]bool{}
	for _, rec := range hist {
		seen[rec.Index] = true
	}
	for i := 0; i < 4; i++ {
		if !seen[i] {
			t.Errorf("missing recurrence index %d", i)
		}
	}
}

func TestDeleteJob(t *testing.T) {
	b := &stubBackend{}
	vc := NewVirtualClock(epoch)
	c := newTestController(t, b, vc, nil)

	st, err := c.Submit(pagerankSpec(10*time.Minute, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "initial run", func() bool { s, _ := c.Get(st.Spec.ID); return s.Completed == 1 })

	if !c.Delete(st.Spec.ID) {
		t.Fatal("delete failed")
	}
	if c.Delete(st.Spec.ID) {
		t.Error("double delete succeeded")
	}
	if _, ok := c.Get(st.Spec.ID); ok {
		t.Error("deleted job still visible")
	}
	before := b.count()
	vc.Advance(time.Hour)
	time.Sleep(20 * time.Millisecond)
	if got := b.count(); got != before {
		t.Errorf("deleted job still ran (%d -> %d)", before, got)
	}
	if v := c.Metrics().Value(MetricJobsDeleted); v != 1 {
		t.Errorf("deleted counter %v", v)
	}
	if v := c.Metrics().Value(MetricJobsActive); v != 0 {
		t.Errorf("active gauge %v", v)
	}
}

func TestFailedRunsAreRecorded(t *testing.T) {
	b := &stubBackend{fail: true}
	vc := NewVirtualClock(epoch)
	c := newTestController(t, b, vc, nil)

	st, err := c.Submit(pagerankSpec(10*time.Minute, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "failed run", func() bool { s, _ := c.Get(st.Spec.ID); return s.Completed == 1 })
	hist, _ := c.History(st.Spec.ID)
	if len(hist) != 1 || hist[0].Error == "" {
		t.Fatalf("history: %+v", hist)
	}
	if v := c.Metrics().Value(MetricRunsFailed); v != 1 {
		t.Errorf("failed counter %v", v)
	}
	s, _ := c.Get(st.Spec.ID)
	if s.Agg.Failed != 1 {
		t.Errorf("aggregates: %+v", s.Agg)
	}
}

func TestShutdownDrainDeadlineCancelsStuckRuns(t *testing.T) {
	b := &stubBackend{block: true}
	vc := NewVirtualClock(epoch)
	c, err := New(Options{Backend: b, Clock: vc, Workers: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(pagerankSpec(time.Minute, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "run to start", func() bool { return b.count() == 1 })

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	done := make(chan struct{})
	go func() { _ = c.Shutdown(ctx); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("shutdown never returned: drain deadline did not cancel the stuck run")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	b := &stubBackend{}
	vc := NewVirtualClock(epoch)
	store := cloud.NewDatastore()
	c := newTestController(t, b, vc, store)

	st1, err := c.Submit(pagerankSpec(30*time.Minute, 2))
	if err != nil {
		t.Fatal(err)
	}
	st2, err := c.Submit(pagerankSpec(45*time.Minute, 0))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "both first runs", func() bool {
		a, _ := c.Get(st1.Spec.ID)
		bb, _ := c.Get(st2.Spec.ID)
		return a.Completed == 1 && bb.Completed == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if !store.Exists("scheduler/state.json") {
		t.Fatal("no snapshot written")
	}

	// A fresh controller over the same store resumes the job table.
	c2 := newTestController(t, b, vc, store)
	a, ok := c2.Get(st1.Spec.ID)
	if !ok || a.Completed != 1 || a.Agg.Runs != 1 {
		t.Fatalf("job 1 not restored: %+v (ok=%v)", a, ok)
	}
	hist, _ := c2.History(st1.Spec.ID)
	if len(hist) != 1 {
		t.Fatalf("restored history length %d", len(hist))
	}
	// New IDs continue after the restored sequence instead of
	// colliding with it.
	st3, err := c2.Submit(pagerankSpec(time.Hour, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st3.Spec.ID == st1.Spec.ID || st3.Spec.ID == st2.Spec.ID {
		t.Errorf("restored controller reissued ID %s", st3.Spec.ID)
	}
	// The bounded job still owes one recurrence; the unbounded one
	// keeps going.
	vc.Advance(45 * time.Minute)
	waitFor(t, "resumed schedules", func() bool {
		a, _ := c2.Get(st1.Spec.ID)
		bb, _ := c2.Get(st2.Spec.ID)
		return a.Completed == 2 && a.Done && bb.Completed == 2
	})
}

func TestOffsetForDeterministicAndBounded(t *testing.T) {
	horizon := units.Day
	seen := map[units.Seconds]bool{}
	for i := 0; i < 100; i++ {
		a := offsetFor(7, "job-1", i, horizon)
		b := offsetFor(7, "job-1", i, horizon)
		if a != b {
			t.Fatalf("offset not deterministic at index %d: %v vs %v", i, a, b)
		}
		if a < 0 || a >= horizon {
			t.Fatalf("offset %v outside [0, %v)", a, horizon)
		}
		seen[a] = true
	}
	if len(seen) < 90 {
		t.Errorf("offsets poorly distributed: %d unique of 100", len(seen))
	}
	if offsetFor(7, "job-1", 0, horizon) == offsetFor(7, "job-2", 0, horizon) {
		t.Error("different jobs drew the same offset")
	}
	if offsetFor(7, "job-1", 0, horizon) == offsetFor(8, "job-1", 0, horizon) {
		t.Error("different seeds drew the same offset")
	}
}

func TestDurationJSON(t *testing.T) {
	var spec JobSpec
	if err := json.Unmarshal([]byte(`{"kind":"pagerank","strategy":"hourglass","slack":0.5,"period":"30m"}`), &spec); err != nil {
		t.Fatal(err)
	}
	if time.Duration(spec.Period) != 30*time.Minute {
		t.Errorf("string period: %v", time.Duration(spec.Period))
	}
	if err := json.Unmarshal([]byte(`{"period":1800}`), &spec); err != nil {
		t.Fatal(err)
	}
	if time.Duration(spec.Period) != 30*time.Minute {
		t.Errorf("numeric period: %v", time.Duration(spec.Period))
	}
	if err := json.Unmarshal([]byte(`{"period":true}`), &spec); err == nil {
		t.Error("bool period accepted")
	}
	if err := json.Unmarshal([]byte(`{"period":"wat"}`), &spec); err == nil {
		t.Error("malformed period accepted")
	}
	out, err := json.Marshal(Duration(90 * time.Second))
	if err != nil || string(out) != `"1m30s"` {
		t.Errorf("marshal: %s, %v", out, err)
	}
}

func TestMetricsExposition(t *testing.T) {
	m := NewMetrics()
	m.Inc(MetricRunsStarted)
	m.Add(MetricCostUSD, 1.5)
	m.SetGauge(MetricJobsActive, 3)
	m.ObserveRunSeconds(0.002)
	m.ObserveRunSeconds(0.2)
	m.ObserveRunSeconds(42) // lands in +Inf

	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE hourglass_runs_started_total counter",
		"hourglass_runs_started_total 1",
		"hourglass_cost_usd_total 1.5",
		"# TYPE hourglass_jobs_active gauge",
		"hourglass_jobs_active 3",
		"# TYPE hourglass_run_duration_seconds histogram",
		`hourglass_run_duration_seconds_bucket{le="0.005"} 1`,
		`hourglass_run_duration_seconds_bucket{le="0.5"} 2`,
		`hourglass_run_duration_seconds_bucket{le="+Inf"} 3`,
		"hourglass_run_duration_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q\n%s", want, text)
		}
	}
	if m.Value(MetricRunsStarted) != 1 {
		t.Error("Value(counter) broken")
	}
}
