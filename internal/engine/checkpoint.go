package engine

import (
	"errors"

	"hourglass/internal/ckpt"
)

// Snapshot is a consistent checkpoint of an execution, taken at a
// superstep barrier. It contains only location-independent vertex
// state, so it can be restored on a deployment with a different number
// of workers and a different partitioning — the property that lets
// Hourglass recover from evictions onto arbitrary configurations (§6).
// It is held as checkpoint-plane blobs (internal/ckpt), the format the
// distributed shards write too, and resumes through the same restore
// path as a shard.
type Snapshot struct {
	Program   string
	Superstep int
	// blobs is the state the snapshot was exported as (one full blob
	// naming every vertex) or loaded from (a checkpoint chain, oldest
	// first); aggs are the reduced aggregator values, name-sorted.
	blobs []*ckpt.Blob
	aggs  ckpt.Aggs
}

// Snapshot captures the run's barrier state: the kernel's full blob
// (every vertex, pending messages vertex-ascending in arrival order)
// plus the reduced aggregator values.
func (r *Execution) Snapshot() *Snapshot {
	return &Snapshot{Program: r.prog.Name(), Superstep: r.superstep,
		blobs: []*ckpt.Blob{r.export(r.superstep)}, aggs: r.aggs.Values()}
}

// blob is the snapshot's one full blob, the only form Save writes.
func (s *Snapshot) blob() (*ckpt.Blob, error) {
	if len(s.blobs) != 1 || !s.blobs[0].Full {
		return nil, errors.New("engine: snapshot is not one full blob")
	}
	return s.blobs[0], nil
}

// extent is one past the highest vertex the snapshot names, and
// whether it carries aux state.
func (s *Snapshot) extent() (n int, aux bool) {
	for _, b := range s.blobs {
		for _, v := range b.Vertex {
			n = max(n, int(v)+1)
		}
		aux = aux || len(b.AuxVtx) > 0
	}
	return n, aux
}

// SizeBytes is the sealed size of the snapshot's blobs: for a snapshot
// an execution exported, the blob Save uploads (used by the perf model
// to price a checkpoint upload).
func (s *Snapshot) SizeBytes() int64 {
	var n int64
	for _, b := range s.blobs {
		n += int64(b.Size())
	}
	return n
}
