package dist

import (
	"sync"

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/units"
)

// prefetchStore is a read-through blob cache a standby shard wraps its
// store in: while the primary session is still finishing its in-flight
// superstep, the standby warms the cache with the newest checkpoint
// chain so the welcome-time restore pays zero (virtual) download time
// for everything but the final in-window checkpoint. Writes pass
// through and invalidate, so a blob rewritten after prefetch is never
// served stale.
type prefetchStore struct {
	cloud.BlobStore

	mu    sync.Mutex
	cache map[string][]byte
}

func newPrefetchStore(inner cloud.BlobStore) *prefetchStore {
	return &prefetchStore{BlobStore: inner, cache: map[string][]byte{}}
}

// warm resolves the job's newest restorable manifest chain and pulls
// every chain blob plus the manifest objects into the cache. Best
// effort: a job with no checkpoint yet, or any read failure, leaves
// the cache partially filled and the session falls back to cold reads.
func (p *prefetchStore) warm(job string) {
	c, err := ckpt.Latest(p.BlobStore, job)
	if err != nil {
		return
	}
	keys := append([]string(nil), c.Keys...)
	keys = append(keys, ckpt.ManifestKey(job, c.Superstep))
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(k string) {
			defer wg.Done()
			data, _, err := p.BlobStore.Get(k)
			if err != nil {
				return
			}
			p.mu.Lock()
			p.cache[k] = data
			p.mu.Unlock()
		}(k)
	}
	wg.Wait()
}

// Get serves cached blobs at zero virtual cost and falls through to
// the inner store otherwise.
func (p *prefetchStore) Get(key string) ([]byte, units.Seconds, error) {
	p.mu.Lock()
	data, ok := p.cache[key]
	p.mu.Unlock()
	if ok {
		return append([]byte(nil), data...), 0, nil
	}
	return p.BlobStore.Get(key)
}

// Put invalidates the cached copy before writing through.
func (p *prefetchStore) Put(key string, data []byte) (units.Seconds, error) {
	p.mu.Lock()
	delete(p.cache, key)
	p.mu.Unlock()
	return p.BlobStore.Put(key, data)
}

// Delete invalidates the cached copy before deleting through.
func (p *prefetchStore) Delete(key string) error {
	p.mu.Lock()
	delete(p.cache, key)
	p.mu.Unlock()
	return p.BlobStore.Delete(key)
}
