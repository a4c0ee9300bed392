package scheduler

import (
	"hourglass/internal/obs"
)

// Metrics is the daemon's instrumentation, a thin wrapper over the
// shared obs.Registry: monotonically increasing counters, one gauge,
// a latency histogram, and per-job labeled series, all exposed in
// Prometheus text format on /metrics. It is dependency-free by
// design — the container must not grow a client_golang dependency —
// and safe for concurrent observation. Add/Inc/SetGauge/AddLabeled/
// Value/WriteTo are promoted from the embedded registry.
type Metrics struct {
	*obs.Registry
}

// Counter and gauge names. Keeping them as constants documents the
// exposition surface in one place.
const (
	MetricJobsSubmitted = "hourglass_jobs_submitted_total"
	MetricJobsDeleted   = "hourglass_jobs_deleted_total"
	MetricJobsActive    = "hourglass_jobs_active"
	MetricRunsStarted   = "hourglass_runs_started_total"
	MetricRunsFinished  = "hourglass_runs_finished_total"
	MetricRunsFailed    = "hourglass_runs_failed_total"
	MetricRunsMissed    = "hourglass_deadline_missed_total"
	MetricEvictions     = "hourglass_evictions_total"
	MetricReconfigs     = "hourglass_reconfigs_total"
	MetricDecisions     = "hourglass_decisions_total"
	MetricCostUSD       = "hourglass_cost_usd_total"
	MetricBaselineUSD   = "hourglass_baseline_usd_total"
	MetricSnapshots     = "hourglass_snapshots_total"
	MetricStoreAttempts = "hourglass_store_attempts_total"
	MetricStoreRetries  = "hourglass_store_retried_ops_total"
	metricRunSeconds    = "hourglass_run_duration_seconds"
)

// Per-job counter families (label key "job"): the §7 evaluation is a
// per-run cost/evictions/misses story, so the daemon breaks the same
// aggregates down by job id.
const (
	MetricJobRuns      = "hourglass_job_runs_total"
	MetricJobCostUSD   = "hourglass_job_cost_usd_total"
	MetricJobEvictions = "hourglass_job_evictions_total"
	MetricJobMissed    = "hourglass_job_deadline_missed_total"
)

var metricHelp = map[string]string{
	MetricJobsSubmitted: "Recurrent job specs accepted by the control plane.",
	MetricJobsDeleted:   "Jobs removed via DELETE /jobs/{id}.",
	MetricJobsActive:    "Jobs currently in the table and not done.",
	MetricRunsStarted:   "Recurrences handed to the worker pool.",
	MetricRunsFinished:  "Recurrences that completed simulation.",
	MetricRunsFailed:    "Recurrences that returned an error.",
	MetricRunsMissed:    "Recurrences that missed their deadline.",
	MetricEvictions:     "Spot evictions suffered across all recurrences.",
	MetricReconfigs:     "Deployment reconfigurations across all recurrences.",
	MetricDecisions:     "Provisioner decisions across all recurrences.",
	MetricCostUSD:       "Cumulative simulated spend (USD).",
	MetricBaselineUSD:   "Cumulative on-demand baseline spend (USD).",
	MetricSnapshots:     "State snapshots written to the datastore.",
	MetricStoreAttempts: "Datastore operation attempts (first tries + retries).",
	MetricStoreRetries:  "Datastore operations that needed more than one attempt.",
	metricRunSeconds:    "Wall-clock latency of one recurrence (simulation + decisions).",
	MetricJobRuns:       "Recurrences completed, by job.",
	MetricJobCostUSD:    "Simulated spend (USD), by job.",
	MetricJobEvictions:  "Spot evictions suffered, by job.",
	MetricJobMissed:     "Deadline misses, by job.",
}

// NewMetrics builds a registry with every named counter pre-registered
// at zero (so scrapes see the full surface before any event) and
// latency buckets spanning sub-millisecond simulations to multi-second
// decision storms.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	for name, help := range metricHelp {
		r.SetHelp(name, help)
	}
	for _, name := range []string{
		MetricJobsSubmitted, MetricJobsDeleted, MetricRunsStarted,
		MetricRunsFinished, MetricRunsFailed, MetricRunsMissed,
		MetricEvictions, MetricReconfigs, MetricDecisions,
		MetricCostUSD, MetricBaselineUSD, MetricSnapshots,
		MetricStoreAttempts, MetricStoreRetries,
	} {
		r.Add(name, 0)
	}
	r.SetGauge(MetricJobsActive, 0)
	r.RegisterHistogram(metricRunSeconds,
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10})
	return &Metrics{Registry: r}
}

// ObserveRunSeconds records one recurrence latency into the histogram.
func (m *Metrics) ObserveRunSeconds(s float64) {
	m.Observe(metricRunSeconds, s)
}

// jobLabel keys the per-job series; Delete drops a job's series by it.
const jobLabel = "job"

// AddJob increments one per-job series.
func (m *Metrics) AddJob(name, jobID string, delta float64) {
	m.AddLabeled(name, jobLabel, jobID, delta)
}
