// Package perfmodel estimates the execution, boot, load and checkpoint
// times of Table 1 (t_exec, t_boot, t_load, t_save) for every
// deployment configuration. The paper treats the construction of the
// performance model as orthogonal (§5.1, citing Ernest/CherryPick); we
// use a calibrated analytic model: machine speed proportional to
// vCPUs, a parallel-efficiency discount per extra worker (synchronous
// BSP barriers get more expensive with scale), and byte-level transfer
// models shared with the loader package. Work is assumed to progress
// uniformly (the paper's explicit approximation).
package perfmodel

import (
	"fmt"
	"math"

	"hourglass/internal/cloud"
	"hourglass/internal/units"
)

// Job describes one recurring graph-processing job, calibrated against
// the last-resort configuration exactly as the paper reports (§8.2:
// SSSP 3 min, PageRank-30 20 min, GC 4 h on Twitter).
type Job struct {
	Name string
	// LRCExecTime is the pure compute time on the last-resort config.
	LRCExecTime units.Seconds
	// GraphBytes is the on-disk dataset size (drives t_load).
	GraphBytes int64
	// StateBytes is the checkpoint size (drives t_save).
	StateBytes int64
	// MemoryGiB is the aggregate memory the loaded graph needs; gates
	// configuration feasibility.
	MemoryGiB float64
}

// The paper's three benchmark jobs on the Twitter dataset.
var (
	JobSSSP = Job{Name: "sssp", LRCExecTime: 3 * units.Minute,
		GraphBytes: 26e9, StateBytes: 1.5e9, MemoryGiB: 350}
	JobPageRank = Job{Name: "pagerank", LRCExecTime: 20 * units.Minute,
		GraphBytes: 26e9, StateBytes: 2e9, MemoryGiB: 350}
	JobGC = Job{Name: "graphcoloring", LRCExecTime: 4 * units.Hour,
		GraphBytes: 26e9, StateBytes: 3e9, MemoryGiB: 350}
)

// Jobs returns the benchmark jobs in paper order.
func Jobs() []Job { return []Job{JobSSSP, JobPageRank, JobGC} }

// LoadStrategy selects the loading path used on (re)deployments.
type LoadStrategy int

// Loading strategies (§6): hash shuffle, single-node stream, offline
// METIS per configuration, or Hourglass micro-partitions.
const (
	// LoadHash: no offline phase; parallel chunk fetch then an
	// all-to-all entity shuffle on every load.
	LoadHash LoadStrategy = iota
	// LoadStream: no offline phase; the whole dataset streams through
	// one node on every load.
	LoadStream
	// LoadMETIS: an offline METIS run *per distinct worker count*; a
	// reconfiguration scatters each partition across stored chunks, so
	// reloads still pay the shuffle (§6.1 "Loading Phase").
	LoadMETIS
	// LoadMicro: one offline METIS run total (micro-partitioning);
	// reloads fetch exactly the owned micro-partitions in parallel
	// with no shuffle (fast reload, §6.2).
	LoadMicro
)

// String implements fmt.Stringer.
func (l LoadStrategy) String() string {
	switch l {
	case LoadHash:
		return "hash"
	case LoadStream:
		return "stream"
	case LoadMETIS:
		return "metis"
	case LoadMicro:
		return "micro"
	default:
		return fmt.Sprintf("LoadStrategy(%d)", int(l))
	}
}

// Model carries the calibration constants.
type Model struct {
	// BootTime covers instance provisioning plus Hadoop+Giraph
	// bootstrap; spot requests add TransientBootPenalty (§1 cites [28]
	// on spot start delays).
	BootTime             units.Seconds
	TransientBootPenalty units.Seconds
	// ParallelOverhead is the per-extra-worker efficiency loss of the
	// synchronous execution model.
	ParallelOverhead float64
	// Loading selects the strategy priced by LoadTime.
	Loading LoadStrategy
	// Transfer bandwidths (bytes/s), mirroring loader.DefaultModel.
	StorePerConn   float64
	StoreAggregate float64
	NICBandwidth   float64
	ParseRate      float64
	RPCRate        float64
	// EntityExpansion inflates shuffled bytes (hash loading).
	EntityExpansion float64
	// PartitionRate is the offline partitioner's throughput in dataset
	// bytes/second (METIS-class partitioners are slow, §3.2).
	PartitionRate float64
	// MetisBase marks the micro-partitioner's offline base as
	// METIS-class (one offline run); false means hash micro-partitions
	// (file-chunk ownership, no offline phase — §7). Only affects
	// LoadMicro.
	MetisBase bool
	// DistinctWorkerCounts is how many offline partitionings LoadMETIS
	// must precompute (one per deployment size; the paper uses 3).
	DistinctWorkerCounts int
}

// Default returns the calibrated model with micro-partition loading.
func Default() *Model {
	return &Model{
		BootTime:             90,
		TransientBootPenalty: 60,
		ParallelOverhead:     0.035,
		Loading:              LoadMicro,
		StorePerConn:         250e6,
		StoreAggregate:       4e9,
		NICBandwidth:         1.25e9,
		ParseRate:            200e6,
		RPCRate:              8e6,
		EntityExpansion:      4,
		PartitionRate:        8e6,
		DistinctWorkerCounts: len(cloud.DefaultWorkerCounts),
	}
}

// WithLoading returns a copy using a different loading strategy
// (ablations toggle micro-partitioning off this way). LoadMETIS
// implies a METIS-class base.
func (m *Model) WithLoading(l LoadStrategy) *Model {
	c := *m
	c.Loading = l
	if l == LoadMETIS {
		c.MetisBase = true
	}
	return &c
}

// WithMetisBase returns a copy whose micro-partitioner uses a
// METIS-class offline base (the µMETIS of Figures 7 and 8).
func (m *Model) WithMetisBase() *Model {
	c := *m
	c.MetisBase = true
	return &c
}

// speed is the relative compute rate of one machine.
func speed(it cloud.InstanceType) float64 { return float64(it.VCPUs) }

// Capacity returns the absolute processing capacity of a
// configuration: n·speed discounted by the synchronous-barrier
// efficiency 1/(1+overhead·(n−1)).
func (m *Model) Capacity(c cloud.Config) float64 {
	n := float64(c.Count)
	return n * speed(c.Instance) / (1 + m.ParallelOverhead*(n-1))
}

// Feasible reports whether the configuration can hold the job.
func (m *Model) Feasible(job Job, c cloud.Config) bool {
	return c.TotalMemoryGiB() >= job.MemoryGiB && c.Count > 0
}

// LRC returns the last-resort configuration: the fastest *feasible*
// on-demand configuration (Table 1).
func (m *Model) LRC(job Job, configs []cloud.Config) (cloud.Config, error) {
	best := cloud.Config{}
	bestCap := -1.0
	for _, c := range configs {
		if c.Transient || !m.Feasible(job, c) {
			continue
		}
		if cap := m.Capacity(c); cap > bestCap {
			best, bestCap = c, cap
		}
	}
	if bestCap < 0 {
		return cloud.Config{}, fmt.Errorf("perfmodel: no feasible on-demand configuration for %s", job.Name)
	}
	return best, nil
}

// ExecTime estimates the full-job compute time on c, scaling the
// calibrated LRC time by relative capacity. Infeasible configurations
// return +Inf.
func (m *Model) ExecTime(job Job, c cloud.Config, lrc cloud.Config) units.Seconds {
	if !m.Feasible(job, c) {
		return units.Seconds(math.Inf(1))
	}
	return job.LRCExecTime * units.Seconds(m.Capacity(lrc)/m.Capacity(c))
}

// NormalizedCapacity is Table 1's ω_c = t_lrc_exec / t_c_exec.
func (m *Model) NormalizedCapacity(job Job, c cloud.Config, lrc cloud.Config) float64 {
	te := m.ExecTime(job, c, lrc)
	if math.IsInf(float64(te), 1) {
		return 0
	}
	return float64(job.LRCExecTime) / float64(te)
}

// storeRatePerNode is the sustainable per-node datastore throughput
// for an n-node parallel transfer (multiple connections per node).
func (m *Model) storeRatePerNode(n int) float64 {
	per := m.NICBandwidth
	if agg := m.StoreAggregate / float64(n); agg < per {
		per = agg
	}
	return per
}

// LoadTime estimates t_load for the configured strategy.
func (m *Model) LoadTime(job Job, c cloud.Config) units.Seconds {
	n := c.Count
	bytes := float64(job.GraphBytes)
	switch m.Loading {
	case LoadStream:
		fetch := bytes / m.StorePerConn
		parse := bytes / m.ParseRate
		return units.Seconds(fetch + parse)
	case LoadHash, LoadMETIS:
		perNode := bytes / float64(n)
		fetch := perNode / m.storeRatePerNode(n)
		parse := perNode / m.ParseRate
		crossing := bytes * m.EntityExpansion * float64(n-1) / float64(n) / float64(n)
		shuffle := crossing / m.RPCRate
		return units.Seconds(fetch + parse + shuffle)
	case LoadMicro:
		perNode := bytes / float64(n)
		fetch := perNode / m.storeRatePerNode(n)
		parse := perNode / m.ParseRate
		return units.Seconds(fetch + parse)
	default:
		panic(fmt.Sprintf("perfmodel: unknown load strategy %d", m.Loading))
	}
}

// SaveTime estimates t_save: a parallel upload of the checkpoint.
func (m *Model) SaveTime(job Job, c cloud.Config) units.Seconds {
	perNode := float64(job.StateBytes) / float64(c.Count)
	rate := m.storeRatePerNode(c.Count)
	if m.StorePerConn < rate {
		// Checkpoint shards are single objects: per-connection capped.
		rate = m.StorePerConn
	}
	return units.Seconds(perNode / rate)
}

// Boot returns t_boot for the configuration class.
func (m *Model) Boot(c cloud.Config) units.Seconds {
	if c.Transient {
		return m.BootTime + m.TransientBootPenalty
	}
	return m.BootTime
}

// DeadlineUtilization is the share of a deployment's compute a job
// needs to meet a relative deadline on it: exec/(deadline−fixed),
// where exec is the full-job compute time on that deployment and
// fixed its boot+load+save overhead. The admission layer bin-packs
// these shares against unit capacity per deployment — the classic EDF
// utilization bound: any set of jobs whose shares sum to ≤ 1 can be
// time-multiplexed on one worker set with every deadline met. A share
// above 1 (or a deadline inside the fixed overhead, reported as +Inf)
// means the deployment cannot meet the deadline even running the job
// alone.
func DeadlineUtilization(exec, fixed, deadline units.Seconds) float64 {
	den := float64(deadline - fixed)
	if den <= 0 {
		return math.Inf(1)
	}
	return float64(exec) / den
}

// OfflinePartitionRuns is the number of offline partitioning passes
// the loading strategy needs before the first execution: one per
// distinct worker count for plain METIS, exactly one for
// micro-partitioning, none for hash/stream.
func (m *Model) OfflinePartitionRuns() int {
	switch m.Loading {
	case LoadMETIS:
		n := m.DistinctWorkerCounts
		if n == 0 {
			n = 3
		}
		return n
	case LoadMicro:
		if m.MetisBase {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// OfflineTime is the total offline partitioning time for the job.
func (m *Model) OfflineTime(job Job) units.Seconds {
	if m.PartitionRate <= 0 {
		return 0
	}
	perRun := float64(job.GraphBytes) / m.PartitionRate
	return units.Seconds(perRun * float64(m.OfflinePartitionRuns()))
}
