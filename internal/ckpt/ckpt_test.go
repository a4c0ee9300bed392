package ckpt_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sort"
	"strings"
	"testing"

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/engine"
	"hourglass/internal/graph"
	"hourglass/internal/units"
)

// pausedSnapshot runs PageRank on a small graph for steps supersteps.
func pausedSnapshot(t *testing.T, steps int) *engine.Snapshot {
	t.Helper()
	g := graph.RMAT(graph.DefaultRMAT(6, 5))
	res, err := engine.Run(g, &engine.PageRank{Iterations: 12}, engine.Config{Workers: 2, StopAfter: steps})
	if !errors.Is(err, engine.ErrPaused) {
		t.Fatalf("run did not pause: %v", err)
	}
	return res.Snapshot
}

func keysOf(store cloud.BlobStore, prefix string) []string {
	var out []string
	for _, k := range store.Keys() {
		if strings.HasPrefix(k, prefix) {
			out = append(out, k)
		}
	}
	return out
}

// TestNamespacesDoNotNest: job "a-1" and job "a-1/b-2" share a store
// and the prefix "ckpt/a-1/". Load, the fallback scan and the clear of
// each must stay inside its own namespace, whichever writer's clear
// (the manager's or the dist runtime's direct ckpt.Clear) runs.
func TestNamespacesDoNotNest(t *testing.T) {
	clears := map[string]func(cloud.BlobStore, string) error{
		"manager": func(store cloud.BlobStore, job string) error {
			return (&engine.CheckpointManager{Store: store, Job: job}).Clear()
		},
		"ckpt.Clear": ckpt.Clear,
	}
	for name, clear := range clears {
		t.Run(name, func(t *testing.T) {
			store := cloud.NewDatastore()
			outer := &engine.CheckpointManager{Store: store, Job: "a-1"}
			inner := &engine.CheckpointManager{Store: store, Job: "a-1/b-2"}
			if _, err := outer.Save(pausedSnapshot(t, 2)); err != nil {
				t.Fatal(err)
			}
			if _, err := inner.Save(pausedSnapshot(t, 5)); err != nil {
				t.Fatal(err)
			}
			for m, want := range map[*engine.CheckpointManager]int{outer: 2, inner: 5} {
				snap, _, err := m.Load()
				if err != nil || snap.Superstep != want {
					t.Fatalf("%s: Load = %v, %v; want superstep %d", m.Job, snap, err, want)
				}
			}

			// Fallback: with its only blob corrupt, "a-1" has nothing to
			// restore — it must not fall back onto "a-1/b-2"'s checkpoint.
			key := ckpt.BlobKey("a-1", 2, 0)
			blob, _, _ := store.Get(key)
			blob[len(blob)/2] ^= 0xFF
			store.Put(key, blob)
			if snap, _, err := outer.Load(); !errors.Is(err, ckpt.ErrNoCheckpoint) {
				t.Fatalf("a-1 with a corrupt blob restored %+v (err %v), want ErrNoCheckpoint", snap, err)
			}

			// Clear: "a-1" loses its own keys and nothing of "a-1/b-2".
			innerKeys := keysOf(store, "ckpt/a-1/b-2/")
			if err := clear(store, "a-1"); err != nil {
				t.Fatal(err)
			}
			if got := keysOf(store, ""); len(got) != len(innerKeys) {
				t.Fatalf("after clearing a-1 the store holds %v, want exactly %v", got, innerKeys)
			}
			if snap, _, err := inner.Load(); err != nil || snap.Superstep != 5 {
				t.Fatalf("a-1/b-2 after clearing a-1: %v, %v", snap, err)
			}

			// And the other way round.
			if _, err := outer.Save(pausedSnapshot(t, 3)); err != nil {
				t.Fatal(err)
			}
			if err := clear(store, "a-1/b-2"); err != nil {
				t.Fatal(err)
			}
			if got := keysOf(store, "ckpt/a-1/b-2/"); len(got) != 0 {
				t.Fatalf("keys survived clearing a-1/b-2: %v", got)
			}
			if snap, _, err := outer.Load(); err != nil || snap.Superstep != 3 {
				t.Fatalf("a-1 after clearing a-1/b-2: %v, %v", snap, err)
			}
		})
	}
}

// TestClearRemovesLegacyKeys: keys of the layouts written before the
// one-plane format are never restored, and Clear deletes exactly the
// job's own, so they do not leak in a persistent store.
func TestClearRemovesLegacyKeys(t *testing.T) {
	store := cloud.NewDatastore()
	own := []string{
		"ckpt/old/latest", "ckpt/old/00000003",
		"dist/old/latest", "dist/old/ckpt/00000003/manifest", "dist/old/ckpt/00000003/shard-000",
	}
	others := []string{
		"ckpt/old/x/latest", "ckpt/old/x/00000003", "dist/old/x/latest",
		"dist/old/x/ckpt/00000003/manifest", "dist/old-2/latest", "ckpt/old-2/00000003",
	}
	for _, k := range append(append([]string(nil), own...), others...) {
		store.Put(k, []byte("written by an older binary"))
	}
	m := &engine.CheckpointManager{Store: store, Job: "old"}
	if _, _, err := m.Load(); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("Load over old-layout keys: %v, want ErrNoCheckpoint", err)
	}
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if got := keysOf(store, ""); strings.Join(got, ",") != strings.Join(sortedCopy(others), ",") {
		t.Fatalf("after Clear the store holds %v, want exactly %v", got, sortedCopy(others))
	}
}

func sortedCopy(s []string) []string {
	out := append([]string(nil), s...)
	sort.Strings(out)
	return out
}

// reversion rewrites the manifest stored under key as format version v,
// resealed so that only the version is wrong.
func reversion(t *testing.T, store cloud.BlobStore, key string, v uint32) {
	t.Helper()
	data, _, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), data[:len(data)-8]...)
	binary.LittleEndian.PutUint32(payload, v)
	sealed := append(payload, data[len(data)-8:len(data)-4]...)
	sealed = binary.LittleEndian.AppendUint32(sealed, crc32.ChecksumIEEE(payload))
	store.Put(key, sealed)
}

// TestManifestFormatVersion: a manifest of another format version is
// corrupt. The fallback scan skips it for an older manifest, and a
// namespace holding only such manifests is a fresh start.
func TestManifestFormatVersion(t *testing.T) {
	store := cloud.NewDatastore()
	m := &engine.CheckpointManager{Store: store, Job: "versioned"}
	for _, steps := range []int{2, 4} {
		if _, err := m.Save(pausedSnapshot(t, steps)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ckpt.DecodeManifest(mustGet(t, store, ckpt.ManifestKey("versioned", 4))); err != nil {
		t.Fatalf("untouched manifest: %v", err)
	}

	// The latest pointer is a copy of the newest manifest, so a binary
	// of another format version would have written both.
	reversion(t, store, ckpt.ManifestKey("versioned", 4), ckpt.FormatVersion+1)
	reversion(t, store, ckpt.PointerKey("versioned"), ckpt.FormatVersion+1)
	if _, err := ckpt.DecodeManifest(mustGet(t, store, ckpt.ManifestKey("versioned", 4))); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("foreign-version manifest decoded: %v", err)
	}
	snap, _, err := m.Load()
	if err != nil || snap.Superstep != 2 {
		t.Fatalf("Load = %v, %v; want the fallback to superstep 2", snap != nil, err)
	}

	reversion(t, store, ckpt.ManifestKey("versioned", 2), ckpt.FormatVersion-1)
	if _, _, err := m.Load(); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("Load over foreign-version manifests only: %v, want ErrNoCheckpoint", err)
	}
	if c, err := ckpt.Latest(store, "versioned"); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("ckpt.Latest over foreign-version manifests only: %v, %v; want ErrNoCheckpoint", c != nil, err)
	}

	// A fresh start checkpoints among them: its checkpoint restores
	// although a foreign one is newer, and its Clear removes them all.
	if _, err := m.Save(pausedSnapshot(t, 3)); err != nil {
		t.Fatal(err)
	}
	if snap, _, err := m.Load(); err != nil || snap.Superstep != 3 {
		t.Fatalf("Load = %v, %v; want the fresh start's checkpoint at superstep 3", snap != nil, err)
	}
	if err := m.Clear(); err != nil {
		t.Fatal(err)
	}
	if keys := store.Keys(); len(keys) != 0 {
		t.Fatalf("Clear left %v", keys)
	}
}

// damage flips one byte of the object stored under key.
func damage(t *testing.T, store cloud.BlobStore, key string) {
	t.Helper()
	data := append([]byte(nil), mustGet(t, store, key)...)
	data[len(data)/2] ^= 0xFF
	store.Put(key, data)
}

// TestPointerIsAManifestCopy: the latest pointer holds a second copy of
// the newest manifest, so damage to the manifest object or to the
// pointer alone still restores the newest checkpoint, through either
// reader; only damage to both falls back to the older one.
func TestPointerIsAManifestCopy(t *testing.T) {
	const job = "copies"
	for _, tc := range []struct {
		name    string
		damaged []string
		want    int
	}{
		{"manifest", []string{ckpt.ManifestKey(job, 4)}, 4},
		{"pointer", []string{ckpt.PointerKey(job)}, 4},
		{"both", []string{ckpt.ManifestKey(job, 4), ckpt.PointerKey(job)}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := cloud.NewDatastore()
			m := &engine.CheckpointManager{Store: store, Job: job}
			for _, steps := range []int{2, 4} {
				if _, err := m.Save(pausedSnapshot(t, steps)); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(mustGet(t, store, ckpt.PointerKey(job)), mustGet(t, store, ckpt.ManifestKey(job, 4))) {
				t.Fatal("the latest pointer is not a copy of the newest manifest")
			}
			for _, k := range tc.damaged {
				damage(t, store, k)
			}
			if snap, _, err := m.Load(); err != nil || snap.Superstep != tc.want {
				t.Fatalf("manager Load: superstep %v, %v; want %d", snap != nil && snap.Superstep == tc.want, err, tc.want)
			}
			if c, err := ckpt.Latest(store, job); err != nil || c.Superstep != tc.want {
				t.Fatalf("ckpt.Latest: superstep %v, %v; want %d", c != nil && c.Superstep == tc.want, err, tc.want)
			}
		})
	}
}

// firstReadDamaged returns a damaged copy on the first Get of every
// key, as a transfer that goes wrong once would.
type firstReadDamaged struct {
	cloud.BlobStore
	read map[string]bool
}

func (s *firstReadDamaged) Get(key string) ([]byte, units.Seconds, error) {
	data, t, err := s.BlobStore.Get(key)
	if err == nil && !s.read[key] {
		s.read[key] = true
		data = append([]byte(nil), data...)
		data[0] ^= 0xFF
	}
	return data, t, err
}

// TestManagerRereadsDamagedReads: the manager re-reads an object whose
// seal fails under its retry policy, so a damaged transfer of every
// object still restores the newest checkpoint, and the re-reads are
// billed.
func TestManagerRereadsDamagedReads(t *testing.T) {
	base := cloud.NewDatastore()
	m := &engine.CheckpointManager{Store: base, Job: "reread"}
	for _, steps := range []int{2, 4} {
		if _, err := m.Save(pausedSnapshot(t, steps)); err != nil {
			t.Fatal(err)
		}
	}
	_, clean, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	m = &engine.CheckpointManager{Store: &firstReadDamaged{BlobStore: base, read: map[string]bool{}}, Job: "reread"}
	snap, spent, err := m.Load()
	if err != nil || snap.Superstep != 4 {
		t.Fatalf("Load over damaged reads: %v, %v; want superstep 4", snap != nil, err)
	}
	if spent.Faults <= clean.Faults {
		t.Fatalf("re-reads billed %v of faults, not more than a clean load's %v", spent.Faults, clean.Faults)
	}
}

func mustGet(t *testing.T, store cloud.BlobStore, key string) []byte {
	t.Helper()
	data, _, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
