package engine

import (
	"errors"
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
// object fails its seal too, since a damaged read is often transient.
// took sums the transfer of every attempt that succeeded (a missing
// object is an answer, not a fault) and, as faults, the backoff between
// attempts and the transfer of every attempt that failed, damaged reads
// included.
type retryStore struct {
	cloud.BlobStore
	retry *cloud.Retrier

	mu   sync.Mutex
	took cloud.StoreTime
}

func (m *CheckpointManager) store() *retryStore {
	return &retryStore{BlobStore: m.Store, retry: m.retrier()}
}

// attempt runs op under the retry policy, adds what it took to took,
// and returns its whole time, as a BlobStore reports one.
func (s *retryStore) attempt(op func() (units.Seconds, error)) (units.Seconds, error) {
	var took cloud.StoreTime
	delay, err := s.retry.Do(func() error {
		t, err := op()
		if err != nil && !errors.Is(err, cloud.ErrNotFound) {
			took.Faults += t
		} else {
			took.Transfer += t
		}
		return err
	})
	took.Faults += delay
	s.mu.Lock()
	s.took.Transfer += took.Transfer
	s.took.Faults += took.Faults
	s.mu.Unlock()
	return took.Transfer + took.Faults, err
}

func (s *retryStore) Put(key string, data []byte) (units.Seconds, error) {
	t, err := s.attempt(func() (units.Seconds, error) { return s.BlobStore.Put(key, data) })
	if err != nil {
		err = fmt.Errorf("engine: checkpoint upload %q: %w", key, err)
	}
	return t, err
}

func (s *retryStore) Get(key string) ([]byte, units.Seconds, error) {
	var blob []byte
	t, err := s.attempt(func() (units.Seconds, error) {
		b, t, err := s.BlobStore.Get(key)
		blob = b
		if err == nil {
			err = ckpt.Verify(b)
		}
		return t, err
	})
	return blob, t, err
}

// Save uploads a snapshot as one full blob, seals it with a manifest
// and advances the latest pointer. Transient store errors are retried;
// only an exhausted retry budget fails the save. It returns what the
// save took on the store, which the caller bills against t_save
// (StoreTime.Billed): the transfer of the attempts that succeeded, and
// the retry backoff and failed attempts on top. The time is meaningful
// even on failure: it covers every attempt and backoff spent before
// giving up.
//
// Only a snapshot that is one full blob, as Execution.Snapshot exports
// it, is saved; any other is an error and writes nothing.
func (m *CheckpointManager) Save(s *Snapshot) (cloud.StoreTime, error) {
	b, err := s.blob()
	if err != nil {
		return cloud.StoreTime{}, err
	}
	st := m.store()
	key := ckpt.BlobKey(m.Job, s.Superstep, 0)
	if _, err = st.Put(key, b.Encode()); err == nil {
		err = ckpt.Commit(st, &ckpt.Manifest{Job: m.Job, Superstep: s.Superstep, Shards: 1,
			Program: s.Program, BlobKeys: []string{key}, Parent: -1, Aggs: s.aggs})
	}
	return st.took, err
}

// Load fetches the most recent checkpoint that validates, with what the
// fetch took on the store, counted as Save counts it. A corrupted or
// dangling latest checkpoint is skipped in favour of the newest older
// one that validates (ckpt.Latest); only a namespace with no restorable
// checkpoint at all returns ckpt.ErrNoCheckpoint, with the time spent
// finding that out.
func (m *CheckpointManager) Load() (*Snapshot, cloud.StoreTime, error) {
	st := m.store()
	c, err := ckpt.Latest(st, m.Job)
	if err != nil {
		return nil, st.took, err
	}
	return &Snapshot{Program: c.Program, Superstep: c.Superstep, blobs: c.Blobs, aggs: c.Aggs}, st.took, nil
}

// Clear removes every checkpoint object in the job's namespace (see
// ckpt.Clear). Delete failures are returned, never swallowed, so
// callers can log them: the namespace may then still hold blobs.
func (m *CheckpointManager) Clear() error { return ckpt.Clear(m.Store, m.Job) }
