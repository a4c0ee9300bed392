package engine

import (
	"fmt"
	"sort"

	"hourglass/internal/ckpt"
	"hourglass/internal/graph"
)

// Snapshot is a consistent checkpoint of an execution, taken at a
// superstep barrier. It contains only location-independent vertex
// state, so it can be restored on a deployment with a different number
// of workers and a different partitioning — the property that lets
// Hourglass recover from evictions onto arbitrary configurations (§6).
// Durably it is one full shard blob of the checkpoint plane
// (internal/ckpt), the format the distributed shards write too.
type Snapshot struct {
	Program     string
	Superstep   int
	NumVertices int
	Values      []float64
	Active      []bool
	// Pending are the messages delivered but not yet consumed (the
	// inbox of the superstep the snapshot resumes into).
	Pending   []Message
	AggValues map[string]float64
	// Aux is each vertex's auxiliary state, indexed by vertex
	// (VertexAux programs; nil otherwise).
	Aux [][]byte
}

// Snapshot captures the run's barrier state: the kernel's full blob
// (every vertex, pending messages vertex-ascending in arrival order)
// plus the reduced aggregator values.
func (r *Execution) Snapshot() *Snapshot {
	b := r.export(r.superstep)
	s := &Snapshot{
		Program:     r.prog.Name(),
		Superstep:   r.superstep,
		NumVertices: len(b.Vertex),
		Values:      b.Value,
		Active:      b.Active,
		AggValues:   map[string]float64{},
		Aux:         b.Aux,
	}
	for i, d := range b.PendDst {
		s.Pending = append(s.Pending, Message{graph.VertexID(d), b.PendVal[i]})
	}
	agg := r.aggs.Values()
	for i, name := range agg.Names {
		s.AggValues[name] = agg.Vals[i]
	}
	return s
}

// blob is the snapshot as one full checkpoint blob.
func (s *Snapshot) blob() *ckpt.Blob {
	b := &ckpt.Blob{
		Superstep: s.Superstep,
		Full:      true,
		Vertex:    make([]int32, s.NumVertices),
		Value:     s.Values,
		Active:    s.Active,
		PendDst:   make([]int32, len(s.Pending)),
		PendVal:   make([]float64, len(s.Pending)),
	}
	for v := range b.Vertex {
		b.Vertex[v] = int32(v)
	}
	for i, m := range s.Pending {
		b.PendDst[i], b.PendVal[i] = int32(m.Dst), m.Val
	}
	if s.Aux != nil {
		b.AuxVtx, b.Aux = b.Vertex, s.Aux
	}
	return b
}

// manifest seals the snapshot's blob stored under key.
func (s *Snapshot) manifest(job, key string) *ckpt.Manifest {
	return &ckpt.Manifest{Job: job, Superstep: s.Superstep, Shards: 1, Program: s.Program,
		BlobKeys: []string{key}, Parent: -1, Aggs: s.aggs()}
}

// aggs is AggValues name-sorted.
func (s *Snapshot) aggs() ckpt.Aggs {
	var a ckpt.Aggs
	for name := range s.AggValues {
		a.Names = append(a.Names, name)
	}
	sort.Strings(a.Names)
	for _, name := range a.Names {
		a.Vals = append(a.Vals, s.AggValues[name])
	}
	return a
}

// snapshotOf rebuilds a snapshot from a restored checkpoint: the
// chain's blobs overlay oldest-first (the full root names every
// vertex), and only blobs written at the resume superstep contribute
// pending messages.
func snapshotOf(c *ckpt.Checkpoint) (*Snapshot, error) {
	s := &Snapshot{Program: c.Program, Superstep: c.Superstep, AggValues: map[string]float64{}}
	for i, name := range c.Aggs.Names {
		s.AggValues[name] = c.Aggs.Vals[i]
	}
	for _, b := range c.Blobs {
		for _, v := range b.Vertex {
			s.NumVertices = max(s.NumVertices, int(v)+1)
		}
	}
	s.Values = make([]float64, s.NumVertices)
	s.Active = make([]bool, s.NumVertices)
	for bi, b := range c.Blobs {
		if !inRange(s.NumVertices, b.Vertex) || !inRange(s.NumVertices, b.PendDst) || !inRange(s.NumVertices, b.AuxVtx) {
			return nil, fmt.Errorf("engine: checkpoint blob %q names a vertex outside 0..%d", c.Keys[bi], s.NumVertices-1)
		}
		for i, v := range b.Vertex {
			s.Values[v], s.Active[v] = b.Value[i], b.Active[i]
		}
		for i, v := range b.AuxVtx {
			if s.Aux == nil {
				s.Aux = make([][]byte, s.NumVertices)
			}
			s.Aux[v] = b.Aux[i]
		}
		if b.Superstep == c.Superstep {
			for i, d := range b.PendDst {
				s.Pending = append(s.Pending, Message{graph.VertexID(d), b.PendVal[i]})
			}
		}
	}
	return s, nil
}

// SizeBytes is the size of the sealed blob Save uploads (used by the
// perf model to price a checkpoint upload).
func (s *Snapshot) SizeBytes() int64 { return int64(s.blob().Size()) }
