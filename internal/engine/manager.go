package engine

import (
	"fmt"
	"sync"

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/units"
)

// CheckpointManager persists engine snapshots in the durable datastore
// — the reproduction of the paper's §7 modification ("we have modified
// the checkpointing mechanism of Giraph such that it reads/stores
// checkpoints from/to Amazon S3 ... this allows a recovery from a full
// system failure"). Keys are namespaced per job so recurrent executions
// coexist.
//
// The objects are those of the checkpoint plane (internal/ckpt) that
// the distributed shards write too: a snapshot is one full shard blob
// sealed by a manifest and the job's latest pointer. The store is
// allowed to misbehave (see internal/faultinject): transient store
// errors are retried with exponential backoff + jitter, and a
// corrupted or partial checkpoint is detected and *skipped* — Load
// falls back to the newest older checkpoint that validates instead of
// silently restoring garbage.
type CheckpointManager struct {
	Store cloud.BlobStore
	// Job is the key namespace, typically "<program>/<dataset>".
	Job string
	// Logf is accepted for callers that still set it; nothing is logged
	// through it. Save, Load and Clear return every failure to their
	// caller, which logs what it does not act on.
	Logf func(format string, args ...any)

	retryOnce sync.Once
	retry     *cloud.Retrier
}

// retrier is the backoff policy for store operations: the
// cloud.RetryPolicy defaults, with the jitter seeded from Job.
func (m *CheckpointManager) retrier() *cloud.Retrier {
	m.retryOnce.Do(func() {
		var seed int64 = 1469598103934665603
		for _, c := range m.Job {
			seed ^= int64(c)
			seed *= 1099511628211
		}
		m.retry = cloud.NewRetrier(cloud.RetryPolicy{Seed: seed})
	})
	return m.retry
}

// retryStore is the manager's view of the store for one Save or Load:
// every Put and Get is retried under the manager's policy — a Get whose
// object fails its seal too, since a damaged read is often transient —
// and the transfer plus backoff time of each, failed and corrupt
// objects included, is added to spent, the virtual I/O time the caller
// bills.
type retryStore struct {
	cloud.BlobStore
	retry *cloud.Retrier

	mu    sync.Mutex
	spent units.Seconds
}

func (m *CheckpointManager) store() *retryStore {
	return &retryStore{BlobStore: m.Store, retry: m.retrier()}
}

func (s *retryStore) bill(t units.Seconds) units.Seconds {
	s.mu.Lock()
	s.spent += t
	s.mu.Unlock()
	return t
}

func (s *retryStore) Put(key string, data []byte) (units.Seconds, error) {
	var xfer units.Seconds
	delay, err := s.retry.Do(func() error {
		t, err := s.BlobStore.Put(key, data)
		xfer = t
		return err
	})
	if err != nil {
		err = fmt.Errorf("engine: checkpoint upload %q: %w", key, err)
	}
	return s.bill(xfer + delay), err
}

func (s *retryStore) Get(key string) ([]byte, units.Seconds, error) {
	var blob []byte
	var xfer units.Seconds
	delay, err := s.retry.Do(func() error {
		b, t, err := s.BlobStore.Get(key)
		blob, xfer = b, t
		if err == nil {
			err = ckpt.Verify(b)
		}
		return err
	})
	return blob, s.bill(xfer + delay), err
}

// Save uploads a snapshot as one full blob, seals it with a manifest
// and advances the latest pointer, returning the virtual upload time
// (retry backoff included). Transient store errors are retried; only
// an exhausted retry budget fails the save. The returned time is
// meaningful even on failure: it covers whatever uploads and backoff
// delays were spent before giving up, so callers can bill the partial
// progress.
//
// Only a snapshot that is one full blob, as Execution.Snapshot exports
// it, is saved; any other is an error and writes nothing.
func (m *CheckpointManager) Save(s *Snapshot) (units.Seconds, error) {
	b, err := s.blob()
	if err != nil {
		return 0, err
	}
	st := m.store()
	key := ckpt.BlobKey(m.Job, s.Superstep, 0)
	if _, err = st.Put(key, b.Encode()); err == nil {
		err = ckpt.Commit(st, &ckpt.Manifest{Job: m.Job, Superstep: s.Superstep, Shards: 1,
			Program: s.Program, BlobKeys: []string{key}, Parent: -1, Aggs: s.aggs})
	}
	return st.spent, err
}

// Load fetches the most recent checkpoint that validates, with its
// download time. A corrupted or dangling latest checkpoint is skipped
// in favour of the newest older one that validates (ckpt.Latest); only
// a namespace with no restorable checkpoint at all returns
// ckpt.ErrNoCheckpoint.
func (m *CheckpointManager) Load() (*Snapshot, units.Seconds, error) {
	st := m.store()
	c, err := ckpt.Latest(st, m.Job)
	if err != nil {
		return nil, 0, err
	}
	return &Snapshot{Program: c.Program, Superstep: c.Superstep, blobs: c.Blobs, aggs: c.Aggs}, st.spent, nil
}

// Clear removes every checkpoint object in the job's namespace (see
// ckpt.Clear). Delete failures are returned, never swallowed, so
// callers can log them: the namespace may then still hold blobs.
func (m *CheckpointManager) Clear() error { return ckpt.Clear(m.Store, m.Job) }
