package cloud

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"hourglass/internal/units"
)

// FSStore is a filesystem-backed BlobStore: every blob is one file
// under Root, with the key's '/' separators mapped to directories.
// Unlike the in-memory Datastore it is shared *across processes*, so
// a distributed run's shard workers (internal/dist) and its
// coordinator can exchange per-shard checkpoint blobs through it —
// the stand-in for the S3 bucket the paper's modified Giraph
// checkpoints into (§7), now with real files and real fsync-ordered
// visibility.
//
// Writes are atomic (temp file + rename in the same directory), so a
// reader never observes a half-written blob; a crash mid-Put leaves
// at worst an orphaned .tmp file that Keys ignores. Virtual transfer
// times are zero: a real filesystem already charges real time.
type FSStore struct {
	root string
}

// NewFSStore opens (creating if needed) a store rooted at dir.
func NewFSStore(dir string) (*FSStore, error) {
	if dir == "" {
		return nil, errors.New("cloud: empty FSStore root")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cloud: fsstore root: %w", err)
	}
	return &FSStore{root: dir}, nil
}

// path maps a key to its file path, rejecting escapes from the root.
func (s *FSStore) path(key string) (string, error) {
	if key == "" || strings.Contains(key, "..") || strings.HasPrefix(key, "/") {
		return "", fmt.Errorf("cloud: invalid blob key %q", key)
	}
	return filepath.Join(s.root, filepath.FromSlash(key)), nil
}

// Put stores a blob atomically.
func (s *FSStore) Put(key string, data []byte) (units.Seconds, error) {
	p, err := s.path(key)
	if err != nil {
		return 0, err
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return 0, fmt.Errorf("cloud: fsstore put %q: %w", key, err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), ".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("cloud: fsstore put %q: %w", key, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("cloud: fsstore put %q: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("cloud: fsstore put %q: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("cloud: fsstore put %q: %w", key, err)
	}
	return 0, nil
}

// Get fetches a blob. Missing keys wrap ErrNotFound.
func (s *FSStore) Get(key string) ([]byte, units.Seconds, error) {
	p, err := s.path(key)
	if err != nil {
		return nil, 0, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, fmt.Errorf("cloud: fsstore has no object %q: %w", key, ErrNotFound)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("cloud: fsstore get %q: %w", key, err)
	}
	return data, 0, nil
}

// Delete removes a blob (idempotent).
func (s *FSStore) Delete(key string) error {
	p, err := s.path(key)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("cloud: fsstore delete %q: %w", key, err)
	}
	return nil
}

// Exists reports whether the key is stored.
func (s *FSStore) Exists(key string) bool {
	p, err := s.path(key)
	if err != nil {
		return false
	}
	info, err := os.Stat(p)
	return err == nil && !info.IsDir()
}

// Keys walks the root and returns all stored keys in sorted order,
// skipping in-flight temp files.
func (s *FSStore) Keys() []string {
	var keys []string
	_ = filepath.WalkDir(s.root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.HasPrefix(d.Name(), ".tmp-") {
			return nil
		}
		rel, rerr := filepath.Rel(s.root, p)
		if rerr != nil {
			return nil
		}
		keys = append(keys, filepath.ToSlash(rel))
		return nil
	})
	sort.Strings(keys)
	return keys
}

var _ BlobStore = (*FSStore)(nil)
