package engine

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/faultinject"
	"hourglass/internal/units"
)

// TestClearRemovesNumberedBlobs is the regression test for the stale
// checkpoint resurrection bug: Clear used to delete only the latest
// pointer, so a later recurrent execution of the same job that lost
// its own pointer would fall back to the *previous* execution's
// high-superstep blob.
func TestClearRemovesNumberedBlobs(t *testing.T) {
	store := cloud.NewDatastore()
	m := &CheckpointManager{Store: store, Job: "recur/pr"}
	g := undirectedRMAT(8, 21)

	// Execution 1 checkpoints at superstep 6, then completes and clears.
	res1, err := Run(g, &PageRank{Iterations: 10}, Config{Workers: 2, StopAfter: 6})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	if _, err := m.Save(res1.Snapshot); err != nil {
		t.Fatal(err)
	}
	if err := m.Clear(); err != nil {
		t.Fatalf("clear: %v", err)
	}
	for _, k := range store.Keys() {
		if strings.HasPrefix(k, "ckpt/recur/pr/") {
			t.Fatalf("blob %q survived Clear", k)
		}
	}

	// Execution 2 of the same recurrent job checkpoints at superstep 2,
	// then its latest pointer dangles. The fallback scan must restore
	// execution 2's superstep-2 checkpoint — with the old Clear, the
	// leftover superstep-6 blob from execution 1 would win instead.
	res2, err := Run(g, &PageRank{Iterations: 10}, Config{Workers: 2, StopAfter: 2})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	if _, err := m.Save(res2.Snapshot); err != nil {
		t.Fatal(err)
	}
	store.Put(fmt.Sprintf("ckpt/%s/latest", m.Job), []byte("ckpt/recur/pr/99999999"))
	snap, _, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Superstep != res2.Snapshot.Superstep {
		t.Fatalf("resurrected superstep %d from a previous execution, want %d",
			snap.Superstep, res2.Snapshot.Superstep)
	}
}

// failDeleteStore fails every Delete, simulating a store whose
// garbage-collection permission was revoked.
type failDeleteStore struct {
	cloud.BlobStore
}

var errNoDelete = errors.New("delete forbidden")

func (s *failDeleteStore) Delete(string) error { return errNoDelete }

// TestClearReportsDeleteErrors asserts Delete failures are returned,
// not swallowed, and that RunDurable logs them on its success path.
func TestClearReportsDeleteErrors(t *testing.T) {
	store := &failDeleteStore{BlobStore: cloud.NewDatastore()}
	var logged []string
	m := &CheckpointManager{
		Store: store,
		Job:   "nogc/pr",
		Logf:  func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) },
	}
	g := undirectedRMAT(8, 22)
	if _, _, err := m.RunDurable(g, &PageRank{Iterations: 6}, Config{Workers: 2}, 3); err != nil {
		t.Fatal(err)
	}
	if err := m.Clear(); !errors.Is(err, errNoDelete) {
		t.Fatalf("Clear swallowed the delete failure: %v", err)
	}
	if len(logged) == 0 {
		t.Fatal("RunDurable did not log the Clear failure")
	}
	if !strings.Contains(logged[0], "nogc/pr") {
		t.Fatalf("log line does not identify the job: %q", logged[0])
	}
}

// failAfterStore lets the first `allow` Puts through, then fails every
// later Put — the second checkpoint save exhausts the retry budget.
type failAfterStore struct {
	cloud.BlobStore
	allow int
	puts  int
}

var errQuotaExceeded = errors.New("write quota exceeded")

func (s *failAfterStore) Put(key string, data []byte) (units.Seconds, error) {
	s.puts++
	if s.puts > s.allow {
		return 0, errQuotaExceeded
	}
	return s.BlobStore.Put(key, data)
}

// TestRunDurableReturnsIOTimeOnSaveFailure is the regression test for
// the discarded-ioTime bug: when a checkpoint save fails, RunDurable
// used to return 0 I/O time, so callers could not bill the uploads and
// backoff already spent. The store is layered over fault injection so
// the surviving saves also carry injected latency.
func TestRunDurableReturnsIOTimeOnSaveFailure(t *testing.T) {
	inner := faultinject.Wrap(cloud.NewDatastore(), faultinject.Policy{
		Seed: 7, MaxLatency: 0.2,
	})
	// A save is three Puts (blob, manifest, latest pointer): the first
	// checkpoint succeeds, the second fails.
	store := &failAfterStore{BlobStore: inner, allow: 3}
	m := &CheckpointManager{Store: store, Job: "quota/pr"}
	g := undirectedRMAT(8, 23)

	_, ioTime, err := m.RunDurable(g, &PageRank{Iterations: 10}, Config{Workers: 2}, 2)
	if !errors.Is(err, errQuotaExceeded) {
		t.Fatalf("err = %v, want the injected save failure", err)
	}
	if ioTime <= 0 {
		t.Fatalf("ioTime = %v: the successful first save and the failed save's backoff were discarded", ioTime)
	}
}

// TestSaveReturnsPartialTimeOnFailure pins the Save contract the
// runtime's billing relies on: an exhausted retry budget still reports
// the virtual time burned before giving up.
func TestSaveReturnsPartialTimeOnFailure(t *testing.T) {
	store := &failAfterStore{BlobStore: cloud.NewDatastore(), allow: 0}
	m := &CheckpointManager{Store: store, Job: "deny/pr"}
	g := undirectedRMAT(8, 24)
	res, err := Run(g, &PageRank{Iterations: 6}, Config{Workers: 1, StopAfter: 2})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	spent, err := m.Save(res.Snapshot)
	if err == nil {
		t.Fatal("save succeeded against a write-denied store")
	}
	if spent <= 0 {
		t.Fatalf("spent = %v: retry backoff not billed on failure", spent)
	}
}
