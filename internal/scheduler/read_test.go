package scheduler

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hourglass/internal/admission"
	"hourglass/internal/cloud"
)

// getBody fetches path and returns the reply's body, failing on any
// status but 200.
func getBody(t *testing.T, srv *httptest.Server, path string) string {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, resp.StatusCode, body)
	}
	return string(body)
}

// checkListBody compares the GET /jobs body with json.Marshal(List())
// and a newline.
func checkListBody(t *testing.T, c *Controller, srv *httptest.Server, when string) {
	t.Helper()
	want, err := json.Marshal(c.List())
	if err != nil {
		t.Fatal(err)
	}
	if got := getBody(t, srv, "/jobs"); got != string(want)+"\n" {
		t.Fatalf("%s: GET /jobs\n%s\nwant\n%s", when, got, want)
	}
}

// TestListBodyMatchesList builds a table holding every kind of entry,
// live and done, and checks that GET /jobs answers exactly the
// encoding of List, before and after a snapshot restore.
func TestListBodyMatchesList(t *testing.T) {
	b := &estBackend{required: 500, demand: 0.6}
	vc := NewVirtualClock(epoch)
	store := cloud.NewDatastore()
	cfg := admission.Config{MaxDeployments: 2, QueueDepth: 4}
	c := newGatedController(t, b, vc, store, cfg)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	checkListBody(t, c, srv, "empty table")

	submit := func(spec JobSpec) JobStatus {
		t.Helper()
		st, err := c.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	completed := func(id string, n int) {
		t.Helper()
		waitFor(t, fmt.Sprintf("%s to complete %d runs", id, n), func() bool {
			st, _ := c.Get(id)
			return st.Completed == n
		})
	}
	// A one-shot runs and frees its deployment; the next one fails
	// its run. Both are done.
	done := submit(pagerankSpec(time.Hour, 1))
	completed(done.Spec.ID, 1)
	b.fail = true // no run is in flight
	failed := submit(pagerankSpec(time.Hour, 1))
	completed(failed.Spec.ID, 1)
	b.fail = false
	// Two recurrent jobs hold both deployments between runs, so a
	// third waits in the queue.
	packed := submit(pagerankSpec(time.Hour, 3))
	unbounded := submit(pagerankSpec(time.Hour, 0))
	completed(packed.Spec.ID, 1)
	completed(unbounded.Spec.ID, 1)
	if st := submit(pagerankSpec(time.Hour, 1)); !st.Queued {
		t.Fatalf("third recurrent job was not queued: %+v", st)
	}
	for _, st := range c.List() {
		if st.Spec.ID == packed.Spec.ID && st.Deployment == "" {
			t.Fatalf("recurrent job is not packed: %+v", st)
		}
	}
	checkListBody(t, c, srv, "mixed table")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	c = newGatedController(t, b, vc, store, cfg)
	srv2 := httptest.NewServer(c.Handler())
	defer srv2.Close()
	checkListBody(t, c, srv2, "restored table")
	checkBooks(t, c, "restored table")
}

// TestGetServesDoneEncoding: GET /jobs/{id} answers a done job with
// the bytes it was given when it became done — its element of GET
// /jobs — and encodes a live job afresh on every read.
func TestGetServesDoneEncoding(t *testing.T) {
	vc := NewVirtualClock(epoch)
	c := newGatedController(t, &estBackend{required: 500, demand: 0.6}, vc, cloud.NewDatastore(),
		admission.Config{MaxDeployments: 2, QueueDepth: 4})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	submit := func(runs int) string {
		t.Helper()
		st, err := c.Submit(pagerankSpec(time.Hour, runs))
		if err != nil {
			t.Fatal(err)
		}
		return st.Spec.ID
	}
	completed := func(id string, n int) {
		t.Helper()
		waitFor(t, fmt.Sprintf("%s to complete %d runs", id, n), func() bool {
			st, _ := c.Get(id)
			return st.Completed == n
		})
	}
	done, live := submit(1), submit(0)
	completed(done, 1)
	completed(live, 1)

	var list []json.RawMessage
	if err := json.Unmarshal([]byte(getBody(t, srv, "/jobs")), &list); err != nil {
		t.Fatal(err)
	}
	var listed string
	for _, el := range list {
		var st JobStatus
		if err := json.Unmarshal(el, &st); err != nil {
			t.Fatal(err)
		}
		if st.Spec.ID == done {
			listed = string(el)
		}
	}
	if got := getBody(t, srv, "/jobs/"+done); got != listed+"\n" {
		t.Fatalf("GET /jobs/%s\n%s\nwant its GET /jobs element\n%s", done, got, listed)
	}
	// The reply is the stored encoding itself, not one equal to it.
	c.mu.Lock()
	e := c.jobs[done]
	stored := e.enc
	e.enc = []byte(`{"stored":true}`)
	c.mu.Unlock()
	if got := getBody(t, srv, "/jobs/"+done); got != `{"stored":true}`+"\n" {
		t.Fatalf("GET /jobs/%s = %s, want the stored encoding", done, got)
	}
	c.mu.Lock()
	e.enc = stored
	c.mu.Unlock()

	// A live job has none: each read encodes its status as it is now.
	checkLive := func(n int) {
		t.Helper()
		st, _ := c.Get(live)
		want, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if got := getBody(t, srv, "/jobs/"+live); st.Completed != n || got != string(want)+"\n" {
			t.Fatalf("GET /jobs/%s\n%s\nwant (%d runs)\n%s", live, got, n, want)
		}
	}
	checkLive(1)
	vc.Advance(time.Hour)
	completed(live, 2)
	checkLive(2)
}

// scrapeTotals returns the scrape's unlabelled *_total series and
// whether any series carries the label job="id".
func scrapeTotals(t *testing.T, srv *httptest.Server, id string) (map[string]string, bool) {
	t.Helper()
	totals := map[string]string{}
	labelled := false
	sc := bufio.NewScanner(strings.NewReader(getBody(t, srv, "/metrics")))
	for sc.Scan() {
		line := sc.Text()
		labelled = labelled || strings.Contains(line, fmt.Sprintf("{%s=%q}", jobLabel, id))
		if name, v, ok := strings.Cut(line, " "); ok && strings.HasSuffix(name, "_total") {
			totals[name] = v
		}
	}
	return totals, labelled
}

// TestDeleteDropsJobSeries checks that DELETE /jobs/{id} takes the
// job's per-job series out of /metrics and leaves every fleet-wide
// counter as it was, but for the count of deletions.
func TestDeleteDropsJobSeries(t *testing.T) {
	c := newTestController(t, &stubBackend{}, NewVirtualClock(epoch), nil)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	var ids []string
	for i := 0; i < 2; i++ {
		st, err := c.Submit(pagerankSpec(time.Hour, 1))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.Spec.ID)
	}
	waitFor(t, "both runs", func() bool { return c.Metrics().Value(MetricRunsFinished) == 2 })
	before, labelled := scrapeTotals(t, srv, ids[0])
	if !labelled {
		t.Fatalf("no series labelled with %s before the delete", ids[0])
	}

	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/jobs/"+ids[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}

	after, labelled := scrapeTotals(t, srv, ids[0])
	if labelled {
		t.Errorf("a series labelled with deleted %s is still scraped", ids[0])
	}
	if _, kept := scrapeTotals(t, srv, ids[1]); !kept {
		t.Errorf("the series of %s went with the delete of %s", ids[1], ids[0])
	}
	before[MetricJobsDeleted] = "1"
	if len(after) != len(before) {
		t.Errorf("%d unlabelled counters after the delete, %d before", len(after), len(before))
	}
	for name, v := range before {
		if after[name] != v {
			t.Errorf("%s = %s after the delete, want %s", name, after[name], v)
		}
	}
}

// TestReadsRaceCompletions lists, scrapes and deletes while
// recurrences complete; run it under -race. Every listing must be a
// well-formed array, and the quiet table must list as List encodes.
func TestReadsRaceCompletions(t *testing.T) {
	vc := NewVirtualClock(epoch)
	c := newTestController(t, &stubBackend{}, vc, nil)
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	var ids []string
	for i := 0; i < 40; i++ {
		st, err := c.Submit(pagerankSpec(time.Minute, 1+i%4))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.Spec.ID)
	}

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			vc.Advance(time.Minute)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 30; i++ {
			body, err := c.listJSON()
			if err != nil {
				t.Error(err)
				return
			}
			var list []JobStatus
			if err := json.Unmarshal(body, &list); err != nil {
				t.Errorf("listing %d: %v", i, err)
				return
			}
			if _, err := c.Metrics().WriteTo(io.Discard); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for _, id := range ids[:10] {
			if !c.Delete(id) {
				t.Errorf("delete %s: not found", id)
			}
		}
	}()
	wg.Wait()

	waitFor(t, "every job to finish", func() bool {
		for _, st := range c.List() {
			if !st.Done {
				return false
			}
		}
		return true
	})
	checkListBody(t, c, srv, "after the race")
	checkBooks(t, c, "after the race")
	for _, id := range ids[:10] {
		if _, labelled := scrapeTotals(t, srv, id); labelled {
			t.Errorf("deleted %s still has series", id)
		}
	}
}
