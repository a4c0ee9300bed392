package scheduler

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"hourglass"
	"hourglass/internal/units"
)

// Duration is a time.Duration that marshals as a Go duration string
// ("30m") and unmarshals from either that form or a plain number of
// seconds, so both `"period": "30m"` and `"period": 1800` work on the
// wire.
type Duration time.Duration

// MarshalJSON renders the Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a duration string or seconds-as-number. A
// string decodes straight into a string, anything else through any.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if len(b) > 0 && b[0] == '"' {
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
	} else {
		var v any
		if err := json.Unmarshal(b, &v); err != nil {
			return err
		}
		switch x := v.(type) {
		case string:
			s = x
		case float64:
			*d = Duration(time.Duration(x * float64(time.Second)))
			return nil
		default:
			return fmt.Errorf("scheduler: duration must be a string or seconds, got %T", v)
		}
	}
	dd, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("scheduler: bad duration %q: %w", s, err)
	}
	*d = Duration(dd)
	return nil
}

// JobSpec describes one recurrent job: what to run, how to provision
// it, how much slack its deadline carries, and how often it recurs.
type JobSpec struct {
	// ID is assigned by the controller when empty.
	ID string `json:"id,omitempty"`
	// Kind is the benchmark job (pagerank, sssp, graphcoloring).
	Kind hourglass.JobKind `json:"kind"`
	// Strategy is the provisioning strategy for every recurrence.
	Strategy hourglass.Strategy `json:"strategy"`
	// Slack is the §8.2 slack fraction: deadline = fixed + exec +
	// slack·exec.
	Slack float64 `json:"slack"`
	// Deadline, when positive, overrides the slack-derived relative
	// deadline. Slack-derived deadlines are feasible by construction;
	// an explicit one may undercut the last-resort bound, which the
	// admission gate rejects with 422.
	Deadline Duration `json:"deadline,omitempty"`
	// Period separates consecutive recurrence starts.
	Period Duration `json:"period"`
	// Runs bounds the total recurrences (0 = unbounded).
	Runs int `json:"runs,omitempty"`
	// Tenant attributes the job for multi-tenant admission accounting
	// ("" = "default").
	Tenant string `json:"tenant,omitempty"`
}

// TenantOrDefault returns the tenant label, defaulting untagged jobs
// into one shared bucket.
func (s JobSpec) TenantOrDefault() string {
	if s.Tenant == "" {
		return "default"
	}
	return s.Tenant
}

// Validate admission-checks a spec so nothing invalid ever reaches
// the scheduling loop.
func (s JobSpec) Validate() error {
	// The ID names the job's checkpoint namespace and store keys.
	if strings.Contains(s.ID, "/") || strings.Contains(s.ID, "..") {
		return fmt.Errorf("scheduler: job id %q must not contain \"/\" or \"..\"", s.ID)
	}
	if _, err := hourglass.ParseJobKind(string(s.Kind)); err != nil {
		return err
	}
	if err := hourglass.ValidateStrategy(s.Strategy); err != nil {
		return err
	}
	if s.Slack < 0 {
		return fmt.Errorf("scheduler: negative slack %v", s.Slack)
	}
	if s.Deadline < 0 {
		return fmt.Errorf("scheduler: negative deadline %v", time.Duration(s.Deadline))
	}
	if s.Period <= 0 {
		return fmt.Errorf("scheduler: period must be positive, got %v", time.Duration(s.Period))
	}
	if s.Runs < 0 {
		return fmt.Errorf("scheduler: negative run count %d", s.Runs)
	}
	return nil
}

// RunRecord is one completed (or failed) recurrence.
type RunRecord struct {
	Index       int       `json:"index"`
	ScheduledAt time.Time `json:"scheduledAt"`
	StartedAt   time.Time `json:"startedAt"`
	FinishedAt  time.Time `json:"finishedAt"`
	// Offset is the market-trace start offset (virtual seconds) the
	// recurrence simulated from.
	Offset float64 `json:"offsetSeconds"`
	// WallSeconds is the real decision latency of the recurrence
	// (how long the simulation + provisioning decisions took).
	WallSeconds    float64 `json:"wallSeconds"`
	Cost           float64 `json:"costUSD"`
	NormCost       float64 `json:"normCost"`
	Finished       bool    `json:"finished"`
	MissedDeadline bool    `json:"missedDeadline"`
	Evictions      int     `json:"evictions"`
	Reconfigs      int     `json:"reconfigs"`
	Checkpoints    int     `json:"checkpoints"`
	Decisions      int     `json:"decisions"`
	Error          string  `json:"error,omitempty"`
}

// Aggregates accumulate over a job's lifetime, maintained
// incrementally so capped histories never lose the totals.
type Aggregates struct {
	Runs         int     `json:"runs"`
	Failed       int     `json:"failed"`
	Missed       int     `json:"missed"`
	Evictions    int     `json:"evictions"`
	Reconfigs    int     `json:"reconfigs"`
	CostUSD      float64 `json:"costUSD"`
	BaselineUSD  float64 `json:"baselineUSD"`
	MeanNormCost float64 `json:"meanNormCost"`
}

func (a *Aggregates) observe(rec RunRecord, baseline units.USD) {
	a.Runs++
	if rec.Error != "" {
		a.Failed++
	}
	if rec.MissedDeadline || (!rec.Finished && rec.Error == "") {
		a.Missed++
	}
	a.Evictions += rec.Evictions
	a.Reconfigs += rec.Reconfigs
	a.CostUSD += rec.Cost
	a.BaselineUSD += float64(baseline)
	if a.BaselineUSD > 0 {
		a.MeanNormCost = a.CostUSD / a.BaselineUSD
	}
}

// JobStatus is the control-plane view of one job.
type JobStatus struct {
	Spec       JobSpec    `json:"spec"`
	Created    time.Time  `json:"created"`
	NextRun    *time.Time `json:"nextRun,omitempty"` // nil once exhausted
	Dispatched int        `json:"dispatched"`
	Completed  int        `json:"completed"`
	Done       bool       `json:"done"`
	Agg        Aggregates `json:"aggregates"`
	// DeadlineSeconds is the relative per-recurrence deadline the
	// slack fraction resolves to.
	DeadlineSeconds float64 `json:"deadlineSeconds"`
	HistoryLen      int     `json:"historyLen"`
	// Queued reports the job is parked in the admission wait queue
	// (not yet scheduled); QueuePos is its 1-based EDF position.
	Queued   bool `json:"queued,omitempty"`
	QueuePos int  `json:"queuePos,omitempty"`
	// Deployment names the shared deployment the job is packed onto.
	Deployment string `json:"deployment,omitempty"`
}

// jobEntry is the controller's internal state for one job.
type jobEntry struct {
	spec     JobSpec
	created  time.Time
	nextRun  time.Time
	deadline units.Seconds // relative, resolved at admission
	horizon  units.Seconds // trace horizon bounding start offsets
	baseline units.USD

	dispatched int // recurrences handed to the worker pool
	completed  int // recurrences finished (ok or failed)
	cancelled  bool
	history    []RunRecord
	agg        Aggregates

	// Admission state (zero when the gate is disabled): a queued job
	// is withheld from collectDue until promoted; a placed one records
	// its deployment and the packing class/share for snapshot restore.
	queued     bool
	queuedAt   time.Time
	deployment string
	packConfig string
	demand     float64

	// enc is a done entry's status, encoded for GET /jobs once it is
	// done and never changed after; nil while live or unencodable.
	enc []byte
}

// exhausted reports whether every bounded recurrence has been
// dispatched.
func (e *jobEntry) exhausted() bool {
	return e.spec.Runs > 0 && e.dispatched >= e.spec.Runs
}

// done reports whether the job will never run again.
func (e *jobEntry) done() bool {
	return e.cancelled || (e.exhausted() && e.completed >= e.dispatched)
}

func (e *jobEntry) status() JobStatus {
	st := JobStatus{
		Spec:            e.spec,
		Created:         e.created,
		Dispatched:      e.dispatched,
		Completed:       e.completed,
		Done:            e.done(),
		Agg:             e.agg,
		DeadlineSeconds: float64(e.deadline),
		HistoryLen:      len(e.history),
		Queued:          e.queued,
		Deployment:      e.deployment,
	}
	if !e.cancelled && !e.exhausted() && !e.queued {
		next := e.nextRun
		st.NextRun = &next
	}
	return st
}

// offsetFor draws the deterministic trace start offset for recurrence
// `index`: a hash of (controller seed, job ID, index) seeds the draw,
// so offsets are stable across daemon restarts and independent of
// execution order.
func offsetFor(seed int64, jobID string, index int, horizon units.Seconds) units.Seconds {
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	for _, c := range []byte(jobID) {
		h ^= uint64(c)
		h *= 0x100000001B3
	}
	h ^= uint64(index) * 0x9E3779B97F4A7C15
	// splitmix64 finish for avalanche.
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	frac := float64(h>>11) / float64(1<<53)
	return units.Seconds(frac * float64(horizon))
}

// formatJobID renders sequential job IDs (job-1, job-2, ...).
func formatJobID(n int) string { return "job-" + strconv.Itoa(n) }
