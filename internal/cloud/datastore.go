package cloud

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"hourglass/internal/units"
)

// ErrNotFound marks a Get against a key the store does not hold. It is
// a *permanent* failure: retry loops must give up on it immediately
// instead of backing off (errors.Is distinguishes it from the transient
// errors a fault-injecting store synthesises).
var ErrNotFound = errors.New("cloud: object not found")

// BlobStore is the minimal durable-store surface the recovery stack
// (engine checkpoints, controller snapshots) depends on. *Datastore is
// the well-behaved implementation; faultinject.Store wraps any
// BlobStore with a seeded schedule of transient errors, latency and
// corruption so the same recovery code can be driven against a
// misbehaving S3.
//
// Put and Get may fail transiently; callers on the durability path
// retry with backoff (cloud.Retrier). Exists and Keys are metadata
// operations and are expected to stay reliable.
type BlobStore interface {
	// Put stores a blob, returning the virtual upload time.
	Put(key string, data []byte) (units.Seconds, error)
	// Get fetches a copy of a blob and the virtual download time.
	// Missing keys fail with an error wrapping ErrNotFound.
	Get(key string) ([]byte, units.Seconds, error)
	// Delete removes a blob (idempotent). Failures must be reported,
	// not swallowed: a checkpoint namespace whose garbage collection
	// silently fails can resurrect stale state in a later recurrent
	// execution (CheckpointManager.Clear returns them for its caller
	// to log).
	Delete(key string) error
	// Exists reports whether the key is stored.
	Exists(key string) bool
	// Keys returns the stored object keys in sorted order.
	Keys() []string
}

var _ BlobStore = (*Datastore)(nil)

// StoreTime is what a checkpoint write or read took on a BlobStore: the
// transfer of the attempts that succeeded, and what the store's faults
// cost on top of it — retry backoff and every attempt that failed. The
// zero value took no measurable time.
type StoreTime struct{ Transfer, Faults units.Seconds }

// Billed is the I/O of an operation priced at price: the price, or the
// transfer when the store was slower than priced, plus the faults. A
// clean store bills the price exactly.
func (t StoreTime) Billed(price units.Seconds) units.Seconds {
	return units.Max(price, t.Transfer) + t.Faults
}

// Datastore is the S3 stand-in: a durable blob store surviving full
// cluster failures (the paper modifies Giraph to checkpoint to S3
// rather than HDFS exactly for this reason, §7). Reads and writes
// report the virtual transfer time under simple bandwidth caps.
type Datastore struct {
	mu      sync.RWMutex
	objects map[string][]byte

	// PerConnBandwidth caps one transfer (bytes/second).
	PerConnBandwidth float64
}

// NewDatastore builds a store with an S3-like default bandwidth
// (250 MB/s per connection).
func NewDatastore() *Datastore {
	return &Datastore{
		objects:          map[string][]byte{},
		PerConnBandwidth: 250e6,
	}
}

// Put stores a blob and returns the virtual upload time. The error is
// always nil for the in-memory store; it exists so BlobStore
// implementations with failure modes share the signature.
func (d *Datastore) Put(key string, data []byte) (units.Seconds, error) {
	d.mu.Lock()
	d.objects[key] = append([]byte(nil), data...)
	d.mu.Unlock()
	return units.Seconds(float64(len(data)) / d.PerConnBandwidth), nil
}

// Get fetches a blob and the virtual download time. The returned slice
// is a defensive copy: callers may mutate it freely without corrupting
// the durable object (a checkpoint reload must never observe a
// caller's scribbles).
func (d *Datastore) Get(key string) ([]byte, units.Seconds, error) {
	d.mu.RLock()
	data, ok := d.objects[key]
	if ok {
		data = append([]byte(nil), data...)
	}
	d.mu.RUnlock()
	if !ok {
		return nil, 0, fmt.Errorf("cloud: datastore has no object %q: %w", key, ErrNotFound)
	}
	return data, units.Seconds(float64(len(data)) / d.PerConnBandwidth), nil
}

// Delete removes a blob (idempotent; the in-memory store never fails).
func (d *Datastore) Delete(key string) error {
	d.mu.Lock()
	delete(d.objects, key)
	d.mu.Unlock()
	return nil
}

// Exists reports whether the key is stored.
func (d *Datastore) Exists(key string) bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	_, ok := d.objects[key]
	return ok
}

// Keys returns the stored object keys in sorted order (for snapshot
// inventories and tests).
func (d *Datastore) Keys() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	keys := make([]string, 0, len(d.objects))
	for k := range d.objects {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TotalBytes reports the stored volume (for tests and reporting).
func (d *Datastore) TotalBytes() int64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var total int64
	for _, b := range d.objects {
		total += int64(len(b))
	}
	return total
}
