// Package micro implements the Hourglass fast-reload mechanism (§6 of
// the paper): an offline micro-partitioning step that over-shards the
// graph into lcm(worker counts) micro-partitions, and an online
// clustering step that merges micro-partitions into macro-partitions
// tailored to whatever deployment configuration was just provisioned.
// Clustering runs on the *quotient graph* (one vertex per
// micro-partition, edge weights = crossing edges), which is orders of
// magnitude smaller than the original graph, so a reconfiguration
// never re-partitions the full dataset.
package micro

import (
	"fmt"
	"sync"

	"hourglass/internal/graph"
	"hourglass/internal/partition"
)

// GCD returns the greatest common divisor of two positive ints.
func GCD(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// LCM returns the least common multiple of the worker counts, the
// micro-partition count the paper prescribes ("the least common
// multiple of the number of worker machines used by configurations in
// C"), which guarantees equally-sized clusters for every configuration.
func LCM(ns []int) int {
	if len(ns) == 0 {
		return 1
	}
	l := ns[0]
	for _, n := range ns[1:] {
		if n <= 0 {
			panic(fmt.Sprintf("micro: non-positive worker count %d", n))
		}
		l = l / GCD(l, n) * n
	}
	return l
}

// Partitioning is the product of the offline phase: the vertex→micro
// assignment plus the reduced (quotient) graph used by the online
// clustering step. It is immutable after Build and safe for concurrent
// ClusterTo calls.
type Partitioning struct {
	// Micro assigns each vertex to one of Count micro-partitions.
	Micro partition.Partitioning
	// Count is the number of micro-partitions.
	Count int
	// BaseName records the offline partitioner used (for reporting).
	BaseName string

	quotient  *graph.Graph
	vweights  []int64
	clusterer partition.WeightedPartitioner

	mu    sync.Mutex
	cache map[int][]int32 // k -> micro→macro clustering
}

// Build runs the offline phase: partition g into count micro-partitions
// with base, then reduce to the quotient graph (Figure 4, steps 1–2).
// clusterer is used online to solve the recursive partitioning problem
// on the quotient (the paper uses METIS; we default to the multilevel
// partitioner when nil).
func Build(g *graph.Graph, base partition.Partitioner, count int, clusterer partition.WeightedPartitioner) (*Partitioning, error) {
	if count <= 0 {
		return nil, fmt.Errorf("micro: count = %d", count)
	}
	if count > g.NumVertices() && g.NumVertices() > 0 {
		count = g.NumVertices()
	}
	mp := base.Partition(g, count)
	if err := mp.Validate(); err != nil {
		return nil, fmt.Errorf("micro: base partitioner: %w", err)
	}
	q, vw := g.InducedQuotient(mp.Assign, count)
	if clusterer == nil {
		clusterer = partition.Multilevel{Seed: 1}
	}
	return &Partitioning{
		Micro:     mp,
		Count:     count,
		BaseName:  base.Name(),
		quotient:  q,
		vweights:  vw,
		clusterer: clusterer,
		cache:     make(map[int][]int32),
	}, nil
}

// BuildForConfigs is the common entry point: count = LCM of the worker
// counts appearing in the configuration set.
func BuildForConfigs(g *graph.Graph, base partition.Partitioner, workerCounts []int, clusterer partition.WeightedPartitioner) (*Partitioning, error) {
	return Build(g, base, LCM(workerCounts), clusterer)
}

// Quotient exposes the reduced graph (for inspection and tests).
func (p *Partitioning) Quotient() *graph.Graph { return p.quotient }

// ClusterTo solves the online step for a k-worker configuration
// (Figure 4, steps 3–4): partition the quotient graph into k blocks
// weighted by micro-partition sizes, memoising the result per k.
// It returns the micro→macro mapping.
func (p *Partitioning) ClusterTo(k int) ([]int32, error) {
	if k <= 0 || k > p.Count {
		return nil, fmt.Errorf("micro: cannot cluster %d micro-partitions into %d blocks", p.Count, k)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.cache[k]; ok {
		return c, nil
	}
	part := p.clusterer.PartitionWeighted(p.quotient, p.vweights, k)
	if err := part.Validate(); err != nil {
		return nil, fmt.Errorf("micro: clusterer: %w", err)
	}
	p.cache[k] = part.Assign
	return part.Assign, nil
}

// VertexAssignment composes the offline and online maps into a full
// vertex→macro assignment for a k-worker configuration.
func (p *Partitioning) VertexAssignment(k int) (partition.Partitioning, error) {
	cluster, err := p.ClusterTo(k)
	if err != nil {
		return partition.Partitioning{}, err
	}
	assign := make([]int32, len(p.Micro.Assign))
	for v, m := range p.Micro.Assign {
		assign[v] = cluster[m]
	}
	return partition.Partitioning{Assign: assign, K: k}, nil
}
