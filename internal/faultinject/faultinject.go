// Package faultinject is a seeded, deterministic fault-injection layer
// for the recovery stack. It wraps any cloud.BlobStore with a
// misbehaving façade — transient request errors, added (virtual)
// latency, corrupted and truncated payloads — so the checkpoint,
// snapshot and restore paths can be driven through their rarest
// branches systematically instead of waiting for production to find
// them. The same seed always produces the same fault schedule, so a
// chaos run that trips an invariant is replayable bit-for-bit.
//
// The design splits faults along the axis that matters for recovery
// code:
//
//   - transient faults (request errors, read-side corruption and
//     truncation, latency) go away when the operation is retried —
//     they exercise the retry/backoff and checksum-reread paths;
//   - durable faults (write-side corruption) persist in the store —
//     they exercise detection (CRC mismatch) and fallback (skip the
//     bad checkpoint, restore an older one, or start fresh).
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"hourglass/internal/cloud"
	"hourglass/internal/units"
)

// ErrInjected marks every transient error synthesised by a Store, so
// tests can tell injected failures from real bugs with errors.Is.
var ErrInjected = errors.New("faultinject: injected transient error")

// Policy is a seeded schedule of faults. Probabilities are per
// operation; the zero value injects nothing.
type Policy struct {
	// Seed drives the deterministic fault schedule.
	Seed int64
	// PError is the probability that a Put or Get fails with a
	// transient error (wrapping ErrInjected) without touching data.
	PError float64
	// PWriteCorrupt is the probability that a Put silently stores a
	// corrupted payload — a *durable* fault that retries cannot undo;
	// only checksum validation on the read side catches it.
	PWriteCorrupt float64
	// PReadCorrupt is the probability that a Get returns a corrupted
	// copy of an intact object — a transient fault a checksum-driven
	// retry recovers from.
	PReadCorrupt float64
	// PTruncate is the probability that a Get returns only a prefix of
	// the object (a partial download).
	PTruncate float64
	// MaxLatency, when positive, adds a uniform [0, MaxLatency) virtual
	// delay to each operation's reported transfer time. A checkpoint
	// manager reports a failed attempt's time as a fault and a
	// successful one's as the transfer, which the runtime bills where
	// it is slower than the priced t_save or t_load.
	MaxLatency units.Seconds
	// MaxConsecutive bounds consecutive transient faults per key
	// (0 = 3), so a retry loop with a larger attempt budget always
	// converges. Durable write corruption is not bounded — it is the
	// job of the read path to survive it.
	MaxConsecutive int
}

// Stats counts what a Store injected (one atomic snapshot via Stats()).
type Stats struct {
	Puts, Gets       int64
	Errors           int64
	WriteCorruptions int64
	ReadCorruptions  int64
	Truncations      int64
	AddedLatency     units.Seconds
}

// Store wraps a BlobStore with a Policy. It is safe for concurrent
// use; the fault stream is drawn from one mutex-guarded generator, so
// a fixed seed gives a reproducible schedule for a fixed operation
// order.
type Store struct {
	base   cloud.BlobStore
	policy Policy

	mu          sync.Mutex
	rng         *rand.Rand
	consecutive map[string]int
	stats       Stats
}

var _ cloud.BlobStore = (*Store)(nil)

// Wrap builds a fault-injecting façade over base.
func Wrap(base cloud.BlobStore, p Policy) *Store {
	if p.MaxConsecutive <= 0 {
		p.MaxConsecutive = 3
	}
	return &Store{
		base:        base,
		policy:      p,
		rng:         rand.New(rand.NewSource(p.Seed)),
		consecutive: map[string]int{},
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// roll draws the fault verdict for one operation on key. It owns all
// rng access so the schedule is a single deterministic stream.
func (s *Store) roll(key string, isPut bool) (fail, corrupt, truncate bool, latency units.Seconds, rng func() float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if isPut {
		s.stats.Puts++
	} else {
		s.stats.Gets++
	}
	if s.policy.MaxLatency > 0 {
		latency = units.Seconds(s.rng.Float64() * float64(s.policy.MaxLatency))
		s.stats.AddedLatency += latency
	}
	if s.rng.Float64() < s.policy.PError && s.consecutive[key] < s.policy.MaxConsecutive {
		s.consecutive[key]++
		s.stats.Errors++
		fail = true
		return
	}
	s.consecutive[key] = 0
	if isPut {
		if s.rng.Float64() < s.policy.PWriteCorrupt {
			s.stats.WriteCorruptions++
			corrupt = true
		}
	} else {
		if s.rng.Float64() < s.policy.PReadCorrupt {
			s.stats.ReadCorruptions++
			corrupt = true
		}
		if s.rng.Float64() < s.policy.PTruncate {
			s.stats.Truncations++
			truncate = true
		}
	}
	// Hand back a locked accessor for follow-up draws (corruption
	// offsets), keeping every random decision on the one stream.
	rng = func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.rng.Float64()
	}
	return
}

// mangle flips a few bytes of data in place, deterministically under
// the store's rng stream.
func mangle(data []byte, draw func() float64) {
	if len(data) == 0 {
		return
	}
	flips := 1 + int(draw()*3)
	for i := 0; i < flips; i++ {
		pos := int(draw() * float64(len(data)))
		if pos >= len(data) {
			pos = len(data) - 1
		}
		data[pos] ^= 0xA5
	}
}

// Put implements cloud.BlobStore. A transient fault fails the write
// before anything is stored; a durable fault stores a corrupted copy
// while reporting success.
func (s *Store) Put(key string, data []byte) (units.Seconds, error) {
	fail, corrupt, _, latency, draw := s.roll(key, true)
	if fail {
		return latency, fmt.Errorf("faultinject: put %q: %w", key, ErrInjected)
	}
	if corrupt {
		mutated := append([]byte(nil), data...)
		mangle(mutated, draw)
		data = mutated
	}
	t, err := s.base.Put(key, data)
	return t + latency, err
}

// Get implements cloud.BlobStore. Read-side corruption and truncation
// only touch the returned copy — the durable object stays intact, so a
// retry observes clean bytes.
func (s *Store) Get(key string) ([]byte, units.Seconds, error) {
	fail, corrupt, truncate, latency, draw := s.roll(key, false)
	if fail {
		return nil, latency, fmt.Errorf("faultinject: get %q: %w", key, ErrInjected)
	}
	data, t, err := s.base.Get(key)
	if err != nil {
		return nil, t + latency, err
	}
	if truncate && len(data) > 0 {
		data = data[:int(draw()*float64(len(data)))]
	}
	if corrupt {
		mangle(data, draw)
	}
	return data, t + latency, nil
}

// Delete implements cloud.BlobStore (metadata ops stay reliable).
func (s *Store) Delete(key string) error { return s.base.Delete(key) }

// Exists implements cloud.BlobStore.
func (s *Store) Exists(key string) bool { return s.base.Exists(key) }

// Keys implements cloud.BlobStore.
func (s *Store) Keys() []string { return s.base.Keys() }
