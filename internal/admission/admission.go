// Package admission is the multi-tenant gate between the scheduler
// controller and the execution backends. Every submission is priced
// against the current market (the backend's Estimate consults the
// same perfmodel/sim.Decide machinery the provisioner runs on): a
// deadline that cannot be met even on the last-resort configuration
// is rejected outright with a typed error; a feasible job is placed
// first-fit, on arrival, onto a shared live deployment with room for
// its EDF utilization share, or parked in a bounded deadline-ordered
// wait queue when the deployment pool is saturated. Completions and
// deletions release shares and backfill waiters in deadline order.
//
// The gate is clock-free — callers pass `now` explicitly — so the
// whole layer runs deterministically on the scheduler's virtual
// clock, and it publishes per-tenant counters, queue-wait and
// decision-latency histograms, and a max/min tenant-cost fairness
// gauge through an obs.Registry (nil disables metrics, a nil sink
// disables events, matching the repo-wide convention).
package admission

import (
	"container/heap"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"hourglass/internal/obs"
)

// Admission metric names (the hourglass_admission_* section of
// /metrics).
const (
	MetricAdmitted           = "hourglass_admission_admitted_total"
	MetricQueued             = "hourglass_admission_queued_total"
	MetricRejected           = "hourglass_admission_rejected_total"
	MetricRejectedInfeasible = "hourglass_admission_rejected_infeasible_total"
	MetricRejectedOverflow   = "hourglass_admission_rejected_overflow_total"
	MetricQueueDepth         = "hourglass_admission_queue_depth"
	MetricDeploymentsLive    = "hourglass_admission_deployments_live"
	MetricPackedResidents    = "hourglass_admission_packed_residents"
	MetricSharedPlacements   = "hourglass_admission_shared_placements_total"
	MetricTenantCost         = "hourglass_admission_tenant_cost_usd_total"
	MetricQueueWait          = "hourglass_admission_queue_wait_seconds"
	MetricFairness           = "hourglass_admission_fairness_ratio"
	MetricDecision           = "hourglass_admission_decision_seconds"
)

var metricHelp = map[string]string{
	MetricAdmitted:           "Jobs admitted (immediately or by promotion), by tenant.",
	MetricQueued:             "Jobs parked in the wait queue at submission, by tenant.",
	MetricRejected:           "Jobs rejected at submission, by tenant.",
	MetricRejectedInfeasible: "Rejections because the deadline is infeasible at current market prices.",
	MetricRejectedOverflow:   "Rejections because the wait queue was full.",
	MetricQueueDepth:         "Jobs currently waiting for deployment capacity.",
	MetricDeploymentsLive:    "Live shared deployments in the pool.",
	MetricPackedResidents:    "Jobs currently holding a share of a live deployment.",
	MetricSharedPlacements:   "Placements that landed on an already-occupied deployment.",
	MetricTenantCost:         "Accumulated execution cost in USD, by tenant.",
	MetricQueueWait:          "Virtual-clock wait between enqueue and promotion.",
	MetricFairness:           "Max/min accumulated cost share across tenants (1 = perfectly even).",
	MetricDecision:           "Wall-clock admission decision latency.",
}

// Histogram buckets: queue waits are virtual-clock seconds (jobs wait
// minutes to hours), decision latency is wall-clock (micro- to
// milliseconds).
var (
	queueWaitBuckets = []float64{1, 10, 60, 300, 1800, 3600, 4 * 3600, 24 * 3600}
	decisionBuckets  = []float64{1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}
)

// ErrQueueFull reports a submission bounced because the wait queue is
// at capacity. The HTTP layer maps it to 429.
var ErrQueueFull = errors.New("admission: wait queue full")

// InfeasibleError reports a deadline that cannot be met even on the
// last-resort configuration at current market prices. The HTTP layer
// maps it to 422 with the gap in the body.
type InfeasibleError struct {
	Job             string
	Tenant          string
	DeadlineSeconds float64
	RequiredSeconds float64
}

// GapSeconds is how far the deadline falls short of the minimum
// feasible one.
func (e *InfeasibleError) GapSeconds() float64 {
	return e.RequiredSeconds - e.DeadlineSeconds
}

// Error implements error.
func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("admission: %s deadline %.0fs infeasible at current prices: needs %.0fs (gap %.0fs)",
		e.Job, e.DeadlineSeconds, e.RequiredSeconds, e.GapSeconds())
}

// Estimate is the backend's market consultation for one submission:
// the relative deadline the job runs under, the minimum feasible
// relative deadline (last-resort fixed + exec time), the EDF
// utilization share the job needs on the configuration the market
// chose, and that configuration's identity.
type Estimate struct {
	DeadlineSeconds float64
	RequiredSeconds float64
	// ConfigID is the deployment configuration class the market picked
	// (first decision of a fresh run); packing shares deployments only
	// within a class.
	ConfigID string
	// Demand is the EDF utilization share on ConfigID
	// (perfmodel.DeadlineUtilization). Shares above 1 occupy a full
	// deployment alone.
	Demand float64
	// ExpectedCostUSD is the provisioner's cost estimate at admission.
	ExpectedCostUSD float64
}

// Feasible reports whether the deadline clears the last-resort bound.
func (e Estimate) Feasible() bool {
	return e.DeadlineSeconds >= e.RequiredSeconds && !math.IsInf(e.RequiredSeconds, 1)
}

// Request is one admission decision's input.
type Request struct {
	JobID  string
	Tenant string
	Est    Estimate
	Now    time.Time
}

// Outcome is a successful decision: admitted onto a deployment, or
// queued at a position.
type Outcome struct {
	Queued     bool
	Deployment string
	QueuePos   int
	Shared     bool // placed onto an already-occupied deployment
}

// Promotion records a queued job admitted during a Release.
type Promotion struct {
	JobID       string
	Tenant      string
	Deployment  string
	WaitSeconds float64
}

// Config sizes the gate.
type Config struct {
	// MaxDeployments bounds the live shared-deployment pool (<=0: 16).
	MaxDeployments int
	// QueueDepth bounds the wait queue (<=0: 64).
	QueueDepth int
}

func (c Config) withDefaults() Config {
	if c.MaxDeployments <= 0 {
		c.MaxDeployments = 16
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	return c
}

// waiter is one queued submission.
type waiter struct {
	jobID    string
	tenant   string
	est      Estimate
	queuedAt time.Time
	deadline time.Time // absolute: queuedAt + relative deadline
	seq      int       // FIFO tie-break
	index    int       // heap bookkeeping
}

// waitQueue is a min-heap on absolute deadline (EDF order).
type waitQueue []*waiter

func (q waitQueue) Len() int           { return len(q) }
func (q waitQueue) Less(i, j int) bool { return edfLess(q[i], q[j]) }
func (q waitQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index, q[j].index = i, j
}
func (q *waitQueue) Push(x any) {
	w := x.(*waiter)
	w.index = len(*q)
	*q = append(*q, w)
}
func (q *waitQueue) Pop() any {
	old := *q
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	w.index = -1
	*q = old[:n-1]
	return w
}

// Gate is the admission controller. All methods are safe for
// concurrent use; the internal mutex is a leaf lock (the gate calls
// out only to the registry and sink), so callers may hold their own
// locks across gate calls.
type Gate struct {
	mu     sync.Mutex
	cfg    Config
	packer *Packer
	queue  waitQueue
	byJob  map[string]*waiter
	seq    int
	costs  map[string]float64
	reg    *obs.Registry
	sink   obs.Sink
}

// NewGate builds a gate. reg and sink may be nil (metrics/events
// disabled).
func NewGate(cfg Config, reg *obs.Registry, sink obs.Sink) *Gate {
	cfg = cfg.withDefaults()
	g := &Gate{
		cfg:    cfg,
		packer: NewPacker(cfg.MaxDeployments),
		byJob:  map[string]*waiter{},
		costs:  map[string]float64{},
	}
	g.reg = reg
	g.sink = sink
	if reg != nil {
		for name, help := range metricHelp {
			reg.SetHelp(name, help)
		}
		for _, name := range []string{MetricRejectedInfeasible, MetricRejectedOverflow, MetricSharedPlacements} {
			reg.Add(name, 0)
		}
		for _, name := range []string{MetricQueueDepth, MetricDeploymentsLive, MetricPackedResidents, MetricFairness} {
			reg.SetGauge(name, 0)
		}
		reg.RegisterHistogram(MetricQueueWait, queueWaitBuckets)
		reg.RegisterHistogram(MetricDecision, decisionBuckets)
	}
	return g
}

// Submit decides one submission: *InfeasibleError (never deployable),
// ErrQueueFull (pool and queue both saturated), a queued Outcome, or
// an admitted Outcome naming the deployment the job was packed onto.
func (g *Gate) Submit(req Request) (Outcome, error) {
	g.mu.Lock()
	defer g.mu.Unlock()

	if !req.Est.Feasible() {
		g.count(MetricRejected, req.Tenant)
		g.inc(MetricRejectedInfeasible)
		err := &InfeasibleError{
			Job:             req.JobID,
			Tenant:          req.Tenant,
			DeadlineSeconds: req.Est.DeadlineSeconds,
			RequiredSeconds: req.Est.RequiredSeconds,
		}
		g.emit(obs.Event{
			Type: obs.EvReject, Job: req.JobID, Tenant: req.Tenant,
			Config: req.Est.ConfigID, GapSec: err.GapSeconds(),
		})
		return Outcome{}, err
	}

	if d, ok := g.packer.Place(req.JobID, req.Est.ConfigID, req.Est.Demand); ok {
		shared := len(d.Residents()) > 1
		g.admitted(req.JobID, req.Tenant, d, 0, shared)
		return Outcome{Deployment: d.ID, Shared: shared}, nil
	}

	if len(g.queue) >= g.cfg.QueueDepth {
		g.count(MetricRejected, req.Tenant)
		g.inc(MetricRejectedOverflow)
		g.emit(obs.Event{Type: obs.EvReject, Job: req.JobID, Tenant: req.Tenant, Config: req.Est.ConfigID})
		return Outcome{}, fmt.Errorf("admission: %s: %w", req.JobID, ErrQueueFull)
	}

	w := &waiter{
		jobID:    req.JobID,
		tenant:   req.Tenant,
		est:      req.Est,
		queuedAt: req.Now,
		deadline: req.Now.Add(time.Duration(req.Est.DeadlineSeconds * float64(time.Second))),
		seq:      g.seq,
	}
	g.seq++
	heap.Push(&g.queue, w)
	g.byJob[req.JobID] = w
	pos := g.positionLocked(req.JobID)
	g.count(MetricQueued, req.Tenant)
	g.gauge(MetricQueueDepth, float64(len(g.queue)))
	g.emit(obs.Event{
		Type: obs.EvQueue, Job: req.JobID, Tenant: req.Tenant,
		Config: req.Est.ConfigID, QueuePos: pos,
	})
	return Outcome{Queued: true, QueuePos: pos}, nil
}

// Release frees a job's deployment share (or removes it from the wait
// queue) and promotes waiters in deadline order — EDF-first with
// backfill: the earliest-deadline waiter that fits is seated, and
// smaller later-deadline waiters may fill remaining gaps. Returns the
// promotions so the caller can activate them. Idempotent: releasing
// an unknown job only attempts promotion.
func (g *Gate) Release(jobID string, now time.Time) []Promotion {
	g.mu.Lock()
	defer g.mu.Unlock()

	if w, ok := g.byJob[jobID]; ok {
		heap.Remove(&g.queue, w.index)
		delete(g.byJob, jobID)
		g.gauge(MetricQueueDepth, float64(len(g.queue)))
		return nil
	}
	if d, gone := g.packer.Release(jobID); d != nil {
		g.gauge(MetricDeploymentsLive, float64(g.packer.Live()))
		g.gauge(MetricPackedResidents, float64(len(g.packer.byJob)))
		ev := obs.Event{Type: obs.EvRelease, Job: jobID, Deployment: d.ID, Config: d.ConfigID}
		ev.Done = gone // deployment torn down with the last resident
		g.emit(ev)
	}
	return g.promoteLocked(now)
}

// promoteLocked seats waiters while capacity lasts, scanning in
// deadline order so the most urgent job gets first pick but a large
// head cannot block smaller backfills behind it.
func (g *Gate) promoteLocked(now time.Time) []Promotion {
	if len(g.queue) == 0 {
		return nil
	}
	ordered := g.edfOrderLocked()
	var promos []Promotion
	for _, w := range ordered {
		d, ok := g.packer.Place(w.jobID, w.est.ConfigID, w.est.Demand)
		if !ok {
			continue
		}
		heap.Remove(&g.queue, w.index)
		delete(g.byJob, w.jobID)
		wait := now.Sub(w.queuedAt).Seconds()
		if wait < 0 {
			wait = 0
		}
		g.observe(MetricQueueWait, wait)
		g.admitted(w.jobID, w.tenant, d, wait, len(d.Residents()) > 1)
		promos = append(promos, Promotion{
			JobID: w.jobID, Tenant: w.tenant, Deployment: d.ID, WaitSeconds: wait,
		})
	}
	if len(promos) > 0 {
		g.gauge(MetricQueueDepth, float64(len(g.queue)))
	}
	return promos
}

// admitted records metrics and events for a placement (immediate or
// promoted). Callers hold g.mu.
func (g *Gate) admitted(jobID, tenant string, d *Deployment, waitSec float64, shared bool) {
	g.count(MetricAdmitted, tenant)
	if shared {
		g.inc(MetricSharedPlacements)
	}
	g.gauge(MetricDeploymentsLive, float64(g.packer.Live()))
	g.gauge(MetricPackedResidents, float64(len(g.packer.byJob)))
	g.emit(obs.Event{
		Type: obs.EvAdmit, Job: jobID, Tenant: tenant,
		Deployment: d.ID, Config: d.ConfigID, DurSec: waitSec,
	})
	g.emit(obs.Event{
		Type: obs.EvPack, Job: jobID, Tenant: tenant,
		Deployment: d.ID, Config: d.ConfigID,
		Active: int64(len(d.residents)), WorkLeft: d.used,
	})
}

// ObserveCost accrues execution spend to a tenant and refreshes the
// fairness gauge (max/min accumulated cost across tenants that have
// spent anything; 1 = perfectly even, +Inf never rendered — a tenant
// at zero is ignored until it spends).
func (g *Gate) ObserveCost(tenant string, usd float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if tenant == "" || usd <= 0 {
		return
	}
	g.costs[tenant] += usd
	if g.reg != nil {
		g.reg.AddLabeled(MetricTenantCost, "tenant", tenant, usd)
	}
	g.gauge(MetricFairness, fairness(g.costs))
}

// fairness is max/min over positive tenant costs (0 when fewer than
// one tenant has spent).
func fairness(costs map[string]float64) float64 {
	min, max := math.Inf(1), 0.0
	for _, c := range costs {
		if c <= 0 {
			continue
		}
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max == 0 || math.IsInf(min, 1) {
		return 0
	}
	return max / min
}

// ObserveDecision records one admission decision's wall-clock latency.
func (g *Gate) ObserveDecision(wallSeconds float64) {
	// Observe is registry-locked; no g.mu needed.
	g.observe(MetricDecision, wallSeconds)
}

// Position returns a queued job's 1-based EDF position (0 = not
// queued).
func (g *Gate) Position(jobID string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.positionLocked(jobID)
}

func (g *Gate) positionLocked(jobID string) int {
	w, ok := g.byJob[jobID]
	if !ok {
		return 0
	}
	pos := 1
	for _, other := range g.queue {
		if other != w && edfLess(other, w) {
			pos++
		}
	}
	return pos
}

// edfLess compares two waiters in EDF order.
func edfLess(a, b *waiter) bool {
	if !a.deadline.Equal(b.deadline) {
		return a.deadline.Before(b.deadline)
	}
	return a.seq < b.seq
}

// edfOrderLocked returns the waiters sorted in EDF order without
// disturbing the heap's index bookkeeping (sorting a waitQueue copy
// would, via its Swap). Callers hold g.mu.
func (g *Gate) edfOrderLocked() []*waiter {
	ordered := append([]*waiter(nil), g.queue...)
	sort.Slice(ordered, func(i, j int) bool { return edfLess(ordered[i], ordered[j]) })
	return ordered
}

// QueueDepth returns the number of waiting jobs.
func (g *Gate) QueueDepth() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queue)
}

// Reseat force-places a job onto a named deployment — the
// snapshot-restore path, reproducing the pre-restart packing exactly.
func (g *Gate) Reseat(jobID, configID, deploymentID string, demand float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.packer.Seat(jobID, configID, deploymentID, demand)
	g.gauge(MetricDeploymentsLive, float64(g.packer.Live()))
	g.gauge(MetricPackedResidents, float64(len(g.packer.byJob)))
}

// Requeue restores a waiter from a snapshot, preserving its original
// enqueue time (so queue-wait accounting survives a restart). No
// counters move — the job was already counted when first queued.
func (g *Gate) Requeue(jobID, tenant string, est Estimate, queuedAt time.Time) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.byJob[jobID]; dup {
		return
	}
	w := &waiter{
		jobID:    jobID,
		tenant:   tenant,
		est:      est,
		queuedAt: queuedAt,
		deadline: queuedAt.Add(time.Duration(est.DeadlineSeconds * float64(time.Second))),
		seq:      g.seq,
	}
	g.seq++
	heap.Push(&g.queue, w)
	g.byJob[jobID] = w
	g.gauge(MetricQueueDepth, float64(len(g.queue)))
}

// DeploymentView is one live deployment in a View.
type DeploymentView struct {
	ID        string   `json:"id"`
	ConfigID  string   `json:"config"`
	Used      float64  `json:"used"`
	Residents []string `json:"residents"`
}

// QueueView is one waiter in a View, in EDF order.
type QueueView struct {
	JobID      string    `json:"job"`
	Tenant     string    `json:"tenant"`
	DeadlineAt time.Time `json:"deadlineAt"`
	QueuedAt   time.Time `json:"queuedAt"`
}

// View is the gate's introspection snapshot (GET /admission).
type View struct {
	QueueDepth  int                `json:"queueDepth"`
	Deployments []DeploymentView   `json:"deployments"`
	Queue       []QueueView        `json:"queue"`
	TenantCosts map[string]float64 `json:"tenantCosts"`
	Fairness    float64            `json:"fairness"`
}

// Snapshot returns the current view.
func (g *Gate) Snapshot() View {
	g.mu.Lock()
	defer g.mu.Unlock()
	v := View{
		QueueDepth:  len(g.queue),
		TenantCosts: map[string]float64{},
		Fairness:    fairness(g.costs),
	}
	for t, c := range g.costs {
		v.TenantCosts[t] = c
	}
	for _, d := range g.packer.Deployments() {
		v.Deployments = append(v.Deployments, DeploymentView{
			ID: d.ID, ConfigID: d.ConfigID, Used: d.used, Residents: d.Residents(),
		})
	}
	for _, w := range g.edfOrderLocked() {
		v.Queue = append(v.Queue, QueueView{
			JobID: w.jobID, Tenant: w.tenant, DeadlineAt: w.deadline, QueuedAt: w.queuedAt,
		})
	}
	return v
}

// QueuedAt returns a queued job's enqueue time (zero time if not
// queued) — the snapshot path persists it.
func (g *Gate) QueuedAt(jobID string) (time.Time, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if w, ok := g.byJob[jobID]; ok {
		return w.queuedAt, true
	}
	return time.Time{}, false
}

// metric helpers — every one tolerates a nil registry.

func (g *Gate) count(name, tenant string) {
	if g.reg != nil {
		g.reg.AddLabeled(name, "tenant", tenant, 1)
	}
}

func (g *Gate) inc(name string) {
	if g.reg != nil {
		g.reg.Inc(name)
	}
}

func (g *Gate) gauge(name string, v float64) {
	if g.reg != nil {
		g.reg.SetGauge(name, v)
	}
}

func (g *Gate) observe(name string, v float64) {
	if g.reg != nil {
		g.reg.Observe(name, v)
	}
}

func (g *Gate) emit(e obs.Event) {
	if g.sink != nil {
		g.sink.Emit(e)
	}
}
