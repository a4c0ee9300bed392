package scheduler

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"hourglass"
	"hourglass/internal/admission"
	"hourglass/internal/cloud"
	"hourglass/internal/obs"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// ErrJobExists reports a Submit whose explicit ID collides with a job
// already in the table. The HTTP layer maps it to 409 Conflict with
// errors.Is — never by sniffing error strings.
var ErrJobExists = errors.New("scheduler: job already exists")

// Backend abstracts the simulation system the controller drives, so
// tests can substitute a stub and the daemon binds to a shared
// *hourglass.System.
type Backend interface {
	// Admit validates a spec and resolves the per-recurrence relative
	// deadline, the market trace horizon bounding start offsets, and
	// the on-demand baseline cost.
	Admit(spec JobSpec) (deadline, horizon units.Seconds, baseline units.USD, err error)
	// Run executes one recurrence against the market from the given
	// trace offset. It must be safe for concurrent use.
	Run(ctx context.Context, spec JobSpec, start, deadline units.Seconds) (sim.RunResult, error)
}

// SystemBackend adapts the public hourglass.System (now safe for
// concurrent use) to the Backend interface.
type SystemBackend struct {
	Sys *hourglass.System
	// Sink, when set, receives the simulator's decision/lifecycle
	// trace events for every recurrence.
	Sink obs.Sink
}

// Admit resolves spec-derived constants via the shared System.
func (b SystemBackend) Admit(spec JobSpec) (units.Seconds, units.Seconds, units.USD, error) {
	if err := spec.Validate(); err != nil {
		return 0, 0, 0, err
	}
	deadline, err := b.Sys.DeadlineFor(spec.Kind, spec.Slack)
	if err != nil {
		return 0, 0, 0, err
	}
	horizon, err := b.Sys.Horizon(spec.Kind)
	if err != nil {
		return 0, 0, 0, err
	}
	baseline, err := b.Sys.Baseline(spec.Kind)
	if err != nil {
		return 0, 0, 0, err
	}
	return deadline, horizon, baseline, nil
}

// Run simulates one recurrence with a fresh provisioner (DP wrappers
// carry latch state, so each recurrence rebuilds).
func (b SystemBackend) Run(ctx context.Context, spec JobSpec, start, deadline units.Seconds) (sim.RunResult, error) {
	env, err := b.Sys.Env(spec.Kind)
	if err != nil {
		return sim.RunResult{}, err
	}
	prov, err := b.Sys.Provisioner(spec.Kind, spec.Strategy)
	if err != nil {
		return sim.RunResult{}, err
	}
	runner := &sim.Runner{Env: env, Sink: b.Sink}
	res, err := runner.RunCtx(ctx, prov, start, deadline)
	if err != nil {
		return res, err
	}
	// §8.2: reported costs include the offline partitioning phase.
	res.Cost += env.OfflineCost
	return res, nil
}

// Options configure a Controller.
type Options struct {
	// Backend executes recurrences (required).
	Backend Backend
	// Clock drives the scheduling loop (nil = WallClock).
	Clock Clock
	// Workers bounds concurrent recurrences (0 = 4).
	Workers int
	// QueueDepth bounds dispatched-but-not-started recurrences
	// (0 = 64).
	QueueDepth int
	// HistoryLimit caps the retained per-job history; aggregates keep
	// counting past it (0 = 1024).
	HistoryLimit int
	// Seed derives deterministic per-recurrence trace offsets.
	Seed int64
	// Store, when set, enables state snapshot on shutdown and restore
	// at construction under SnapshotKey. Any BlobStore works, including
	// a faultinject.Store: snapshot I/O is retried and checksummed.
	Store cloud.BlobStore
	// SnapshotKey names the state object ("" = "scheduler/state.json").
	SnapshotKey string
	// Sink, when set, receives one obs.EvRun trace event per executed
	// recurrence (and snapshot-retry events from the store path). Pass
	// the same sink to the Backend to also capture the per-decision
	// simulator stream.
	Sink obs.Sink
	// Admission, when set, enables the multi-tenant admission gate:
	// submissions are priced against the market (the Backend must
	// implement Estimator), packed onto shared deployments, queued
	// when the pool is saturated, or rejected when infeasible. Nil
	// disables the gate (every submission schedules immediately).
	Admission *admission.Config
	// Logf receives operational log lines (nil = discard).
	Logf func(format string, args ...any)
}

// task is one recurrence handed to the worker pool.
type task struct {
	id          string
	index       int
	scheduledAt time.Time
}

// Controller is the recurrent-job daemon: it owns the job table,
// fires recurrences on schedule, executes them on a bounded worker
// pool, and snapshots state for restart.
type Controller struct {
	backend      Backend
	clock        Clock
	seed         int64
	historyLimit int
	store        cloud.BlobStore
	snapshotKey  string
	retry        *cloud.Retrier
	sink         obs.Sink
	logf         func(string, ...any)

	metrics   *Metrics
	gate      *admission.Gate // nil when admission is disabled
	estimator Estimator       // set iff gate is set

	mu   sync.Mutex
	jobs map[string]*jobEntry
	seq  int
	// active counts the entries of jobs that are not done; pending
	// holds those that can still dispatch (not queued, cancelled or
	// exhausted), the only ones the scheduling loop visits. Both are
	// kept by insertLocked, removeLocked and refileLocked, so neither
	// a request nor the loop scans the whole table.
	active  int
	pending map[string]*jobEntry

	wake     chan struct{}
	tasks    chan task
	stop     chan struct{}
	loopDone chan struct{}
	workerWG sync.WaitGroup

	runCtx    context.Context
	runCancel context.CancelFunc

	shutdownOnce sync.Once
	shutdownErr  error
}

// New builds and starts a controller: restores any snapshot in the
// store, then launches the scheduling loop and worker pool.
func New(opts Options) (*Controller, error) {
	if opts.Backend == nil {
		return nil, fmt.Errorf("scheduler: Options.Backend is required")
	}
	if opts.Clock == nil {
		opts.Clock = WallClock{}
	}
	if opts.Workers <= 0 {
		opts.Workers = 4
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.HistoryLimit <= 0 {
		opts.HistoryLimit = 1024
	}
	if opts.SnapshotKey == "" {
		opts.SnapshotKey = "scheduler/state.json"
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	runCtx, runCancel := context.WithCancel(context.Background())
	c := &Controller{
		backend:      opts.Backend,
		clock:        opts.Clock,
		seed:         opts.Seed,
		historyLimit: opts.HistoryLimit,
		store:        opts.Store,
		snapshotKey:  opts.SnapshotKey,
		retry:        cloud.NewRetrier(cloud.RetryPolicy{Seed: opts.Seed}),
		sink:         opts.Sink,
		logf:         opts.Logf,
		metrics:      NewMetrics(),
		jobs:         map[string]*jobEntry{},
		pending:      map[string]*jobEntry{},
		wake:         make(chan struct{}, 1),
		tasks:        make(chan task, opts.QueueDepth),
		stop:         make(chan struct{}),
		loopDone:     make(chan struct{}),
		runCtx:       runCtx,
		runCancel:    runCancel,
	}
	c.retry.Sink = opts.Sink
	if opts.Admission != nil {
		est, ok := opts.Backend.(Estimator)
		if !ok {
			runCancel()
			return nil, fmt.Errorf("scheduler: Options.Admission requires a Backend implementing Estimator, got %T", opts.Backend)
		}
		c.estimator = est
		c.gate = admission.NewGate(*opts.Admission, c.metrics.Registry, opts.Sink)
	}
	if c.store != nil && c.store.Exists(c.snapshotKey) {
		if err := c.restore(); err != nil {
			runCancel()
			return nil, fmt.Errorf("scheduler: restoring snapshot: %w", err)
		}
	}
	for i := 0; i < opts.Workers; i++ {
		c.workerWG.Add(1)
		go c.worker()
	}
	go c.loop()
	return c, nil
}

// Metrics exposes the registry (the HTTP layer renders it).
func (c *Controller) Metrics() *Metrics { return c.metrics }

// Submit admits a job spec, assigns an ID when absent, and schedules
// its first recurrence immediately. With the admission gate enabled,
// the submission is priced against the market first: an infeasible
// deadline returns *admission.InfeasibleError, a saturated pool and
// full wait queue return admission.ErrQueueFull, and an accepted job
// either starts (packed onto a shared deployment) or waits in the
// queue (JobStatus.Queued).
func (c *Controller) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	deadline, horizon, baseline, err := c.backend.Admit(spec)
	if err != nil {
		return JobStatus{}, err
	}
	if spec.Deadline > 0 {
		deadline = units.FromDuration(time.Duration(spec.Deadline))
	}
	now := c.clock.Now()
	c.mu.Lock()
	if spec.ID == "" {
		c.seq++
		spec.ID = formatJobID(c.seq)
	} else if _, exists := c.jobs[spec.ID]; exists {
		c.mu.Unlock()
		return JobStatus{}, fmt.Errorf("job %q already exists: %w", spec.ID, ErrJobExists)
	}
	e := &jobEntry{
		spec:     spec,
		created:  now,
		nextRun:  now, // first recurrence fires immediately
		deadline: deadline,
		horizon:  horizon,
		baseline: baseline,
	}
	if c.gate != nil {
		// Withhold from the scheduling loop until the gate decides;
		// the entry reserves the ID against concurrent submissions.
		e.queued = true
		e.queuedAt = now
	}
	c.insertLocked(e)
	st := c.statusLocked(e)
	c.mu.Unlock()

	if c.gate != nil {
		st, err = c.admit(e, spec, deadline, horizon, now)
		if err != nil {
			return JobStatus{}, err
		}
	}
	c.metrics.Inc(MetricJobsSubmitted)
	c.logf("scheduler: submitted %s (%s/%s tenant=%s slack=%.2f period=%v runs=%d)",
		spec.ID, spec.Kind, spec.Strategy, spec.TenantOrDefault(), spec.Slack, time.Duration(spec.Period), spec.Runs)
	c.kick()
	return st, nil
}

// admit runs the gate for a freshly inserted (withheld) entry: price
// the submission at its first recurrence's trace offset, then place,
// queue, or reject it. The placeholder entry is removed on rejection.
func (c *Controller) admit(e *jobEntry, spec JobSpec, deadline, horizon units.Seconds, now time.Time) (JobStatus, error) {
	wallStart := time.Now()
	est, err := c.estimator.Estimate(spec, deadline, offsetFor(c.seed, spec.ID, 0, horizon))
	var out admission.Outcome
	if err == nil {
		out, err = c.gate.Submit(admission.Request{
			JobID:  spec.ID,
			Tenant: spec.TenantOrDefault(),
			Est:    est,
			Now:    now,
		})
	}
	c.gate.ObserveDecision(time.Since(wallStart).Seconds())
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		if cur, ok := c.jobs[spec.ID]; ok && cur == e {
			c.removeLocked(e)
		}
		c.logf("scheduler: rejected %s (tenant=%s): %v", spec.ID, spec.TenantOrDefault(), err)
		return JobStatus{}, err
	}
	// The entry may have been deleted while the gate deliberated; the
	// gate's seat (or queue slot) is then released again.
	cur, ok := c.jobs[spec.ID]
	if !ok || cur != e {
		promos := c.gate.Release(spec.ID, now)
		c.activatePromotionsLocked(promos, now)
		return JobStatus{}, fmt.Errorf("job %q deleted during admission", spec.ID)
	}
	e.packConfig = est.ConfigID
	e.demand = est.Demand
	if out.Queued {
		c.logf("scheduler: queued %s (tenant=%s, position %d)", spec.ID, spec.TenantOrDefault(), out.QueuePos)
	} else {
		e.queued = false
		e.deployment = out.Deployment
		e.nextRun = now
		c.refileLocked(e)
	}
	return c.statusLocked(e), nil
}

// activatePromotionsLocked wakes queued entries the gate promoted
// during a Release. Callers hold c.mu and must kick the loop after
// unlocking.
func (c *Controller) activatePromotionsLocked(promos []admission.Promotion, now time.Time) {
	for _, p := range promos {
		e, ok := c.jobs[p.JobID]
		if !ok || !e.queued {
			continue
		}
		e.queued = false
		e.deployment = p.Deployment
		e.nextRun = now
		c.refileLocked(e)
		c.logf("scheduler: promoted %s onto %s after %.0fs in queue", p.JobID, p.Deployment, p.WaitSeconds)
	}
}

// statusLocked builds a JobStatus with admission context; callers
// hold c.mu (the gate's lock is a leaf, so nesting is safe).
func (c *Controller) statusLocked(e *jobEntry) JobStatus {
	st := e.status()
	if e.queued && c.gate != nil {
		st.QueuePos = c.gate.Position(e.spec.ID)
	}
	return st
}

// AdmissionView returns the gate's introspection snapshot; ok is
// false when admission is disabled.
func (c *Controller) AdmissionView() (admission.View, bool) {
	if c.gate == nil {
		return admission.View{}, false
	}
	return c.gate.Snapshot(), true
}

// Delete removes a job. In-flight recurrences finish but are
// discarded on completion; pending ones are skipped.
func (c *Controller) Delete(id string) bool {
	now := c.clock.Now()
	c.mu.Lock()
	e, ok := c.jobs[id]
	if ok {
		c.removeLocked(e)
		e.cancelled = true
		c.metrics.DropLabel(jobLabel, id)
		if c.gate != nil {
			promos := c.gate.Release(id, now)
			c.activatePromotionsLocked(promos, now)
		}
	}
	c.mu.Unlock()
	if ok {
		c.metrics.Inc(MetricJobsDeleted)
		c.logf("scheduler: deleted %s", id)
		c.kick()
	}
	return ok
}

// Get returns one job's status.
func (c *Controller) Get(id string) (JobStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return c.statusLocked(e), true
}

// List returns every job's status, ordered by ID.
func (c *Controller) List() []JobStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobStatus, 0, len(c.jobs))
	for _, e := range c.sortedLocked() {
		out = append(out, c.statusLocked(e))
	}
	return out
}

// encodedLocked is e's status as JSON: the encoding a done entry was
// given when it became done, or a live one's encoded now. Callers hold
// c.mu; the bytes are not to be modified.
func (c *Controller) encodedLocked(e *jobEntry) ([]byte, error) {
	if e.enc != nil {
		return e.enc, nil
	}
	return json.Marshal(c.statusLocked(e))
}

// getJSON is Get encoded, the body of GET /jobs/{id} without its
// newline (see encodedLocked).
func (c *Controller) getJSON(id string) ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.jobs[id]
	if !ok {
		return nil, false, nil
	}
	b, err := c.encodedLocked(e)
	return b, true, err
}

// listJSON encodes List as a JSON array and a newline, the body of
// GET /jobs: a done job adds the encoding it was given when it became
// done, only live ones are encoded, and the array is built unlocked.
func (c *Controller) listJSON() ([]byte, error) {
	c.mu.Lock()
	es := c.sortedLocked()
	parts, size := make([][]byte, len(es)), len(es)+2
	for i, e := range es {
		var err error
		if parts[i], err = c.encodedLocked(e); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		size += len(parts[i])
	}
	c.mu.Unlock()
	b := append(make([]byte, 0, size), '[')
	for i, p := range parts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p...)
	}
	return append(b, "]\n"...), nil
}

// sortedLocked returns the table's entries by ID; callers hold c.mu.
func (c *Controller) sortedLocked() []*jobEntry {
	es := make([]*jobEntry, 0, len(c.jobs))
	for _, e := range c.jobs {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool { return es[i].spec.ID < es[j].spec.ID })
	return es
}

// History returns a copy of a job's retained run records.
func (c *Controller) History(id string) ([]RunRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.jobs[id]
	if !ok {
		return nil, false
	}
	return append([]RunRecord(nil), e.history...), true
}

// Shutdown stops scheduling, drains in-flight recurrences (aborting
// them if ctx expires first), and writes a state snapshot when a
// store is configured. Safe to call more than once.
func (c *Controller) Shutdown(ctx context.Context) error {
	c.shutdownOnce.Do(func() {
		close(c.stop)
		<-c.loopDone
		close(c.tasks)
		drained := make(chan struct{})
		go func() {
			c.workerWG.Wait()
			close(drained)
		}()
		select {
		case <-drained:
		case <-ctx.Done():
			c.logf("scheduler: drain deadline hit, cancelling in-flight runs")
			c.runCancel()
			<-drained
		}
		c.runCancel()
		if c.store != nil {
			c.shutdownErr = c.Snapshot()
		}
		c.logf("scheduler: shut down")
	})
	return c.shutdownErr
}

// kick nudges the scheduling loop to recompute its next wake-up.
func (c *Controller) kick() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// insertLocked adds e to the job table; callers hold c.mu.
func (c *Controller) insertLocked(e *jobEntry) {
	c.jobs[e.spec.ID] = e
	if !e.done() {
		c.active++
		c.metrics.SetGauge(MetricJobsActive, float64(c.active))
	} else {
		e.enc, _ = json.Marshal(c.statusLocked(e))
	}
	c.refileLocked(e)
}

// removeLocked drops e from the job table, before any change that
// would mark it done; callers hold c.mu.
func (c *Controller) removeLocked(e *jobEntry) {
	delete(c.jobs, e.spec.ID)
	delete(c.pending, e.spec.ID)
	if !e.done() {
		c.active--
		c.metrics.SetGauge(MetricJobsActive, float64(c.active))
	}
}

// refileLocked puts e in the scheduling loop's pending set while it can
// still dispatch and takes it out once it cannot; callers hold c.mu and
// call it after changing e's queued, cancelled or dispatched state.
func (c *Controller) refileLocked(e *jobEntry) {
	if e.queued || e.cancelled || e.exhausted() {
		delete(c.pending, e.spec.ID)
	} else {
		c.pending[e.spec.ID] = e
	}
}

// loop is the scheduling goroutine: dispatch everything due, then
// sleep until the earliest next recurrence (or a wake/stop signal).
func (c *Controller) loop() {
	defer close(c.loopDone)
	for {
		due, next, hasNext := c.collectDue()
		for _, t := range due {
			select {
			case c.tasks <- t:
			case <-c.stop:
				return
			}
		}
		if len(due) > 0 {
			// Time may have moved while blocked on the queue; rescan.
			continue
		}
		var timer <-chan time.Time
		if hasNext {
			timer = c.clock.Until(next)
		}
		select {
		case <-c.stop:
			return
		case <-c.wake:
		case <-timer:
		}
	}
}

// collectDue advances every due job's schedule, returning the tasks
// to dispatch and the earliest future recurrence time. A job whose
// schedule fell behind (daemon restart, long advance of a virtual
// clock) catches up: every missed recurrence is dispatched. Only the
// pending set is visited: queued jobs wait for a promotion (which
// resets nextRun), and done or exhausted ones never dispatch again.
func (c *Controller) collectDue() (due []task, next time.Time, hasNext bool) {
	now := c.clock.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.pending {
		for !e.exhausted() && !e.nextRun.After(now) {
			due = append(due, task{id: e.spec.ID, index: e.dispatched, scheduledAt: e.nextRun})
			e.dispatched++
			e.nextRun = e.nextRun.Add(time.Duration(e.spec.Period))
		}
		c.refileLocked(e)
		if !e.exhausted() && (!hasNext || e.nextRun.Before(next)) {
			next, hasNext = e.nextRun, true
		}
	}
	sort.Slice(due, func(i, j int) bool {
		if !due[i].scheduledAt.Equal(due[j].scheduledAt) {
			return due[i].scheduledAt.Before(due[j].scheduledAt)
		}
		return due[i].id < due[j].id
	})
	return due, next, hasNext
}

// worker executes recurrences until the task channel closes.
func (c *Controller) worker() {
	defer c.workerWG.Done()
	for t := range c.tasks {
		c.execute(t)
	}
}

// execute runs one recurrence and records its outcome.
func (c *Controller) execute(t task) {
	c.mu.Lock()
	e, ok := c.jobs[t.id]
	if !ok || e.cancelled {
		c.mu.Unlock()
		return
	}
	spec, deadline, horizon, baseline := e.spec, e.deadline, e.horizon, e.baseline
	c.mu.Unlock()

	c.metrics.Inc(MetricRunsStarted)
	offset := offsetFor(c.seed, t.id, t.index, horizon)
	startedAt := c.clock.Now()
	wallStart := time.Now()
	res, err := c.backend.Run(c.runCtx, spec, offset, offset+deadline)
	wall := time.Since(wallStart).Seconds()

	rec := RunRecord{
		Index:          t.index,
		ScheduledAt:    t.scheduledAt,
		StartedAt:      startedAt,
		FinishedAt:     c.clock.Now(),
		Offset:         float64(offset),
		WallSeconds:    wall,
		Cost:           float64(res.Cost),
		Finished:       res.Finished,
		MissedDeadline: res.MissedDeadline,
		Evictions:      res.Evictions,
		Reconfigs:      res.Reconfigs,
		Checkpoints:    res.Checkpoints,
		Decisions:      res.Decisions,
	}
	if baseline > 0 {
		rec.NormCost = float64(res.Cost) / float64(baseline)
	}
	if err != nil {
		rec.Error = err.Error()
		c.metrics.Inc(MetricRunsFailed)
		c.logf("scheduler: %s run %d failed: %v", t.id, t.index, err)
	} else {
		c.metrics.Inc(MetricRunsFinished)
		if rec.MissedDeadline || !rec.Finished {
			c.metrics.Inc(MetricRunsMissed)
		}
	}
	c.metrics.ObserveRunSeconds(wall)
	c.metrics.Add(MetricEvictions, float64(rec.Evictions))
	c.metrics.Add(MetricReconfigs, float64(rec.Reconfigs))
	c.metrics.Add(MetricDecisions, float64(rec.Decisions))
	c.metrics.Add(MetricCostUSD, rec.Cost)
	c.metrics.Add(MetricBaselineUSD, float64(baseline))
	if c.sink != nil {
		ev := obs.Event{
			Type:   obs.EvRun,
			Job:    t.id,
			T:      float64(offset),
			USD:    obs.Finite(rec.Cost),
			Missed: rec.MissedDeadline,
			Done:   rec.Finished,
		}
		if err != nil {
			ev.Err = err.Error()
		}
		c.sink.Emit(ev)
	}

	if c.gate != nil {
		c.gate.ObserveCost(spec.TenantOrDefault(), rec.Cost)
	}

	promoted := false
	c.mu.Lock()
	e, ok = c.jobs[t.id] // the job may have been deleted mid-run
	if !ok || e.cancelled {
		c.mu.Unlock()
		return
	}
	// Per-job series are booked under c.mu after that check, so the
	// series a Delete dropped do not come back.
	c.metrics.AddJob(MetricJobRuns, t.id, 1)
	c.metrics.AddJob(MetricJobCostUSD, t.id, rec.Cost)
	c.metrics.AddJob(MetricJobEvictions, t.id, float64(rec.Evictions))
	if err == nil && (rec.MissedDeadline || !rec.Finished) {
		c.metrics.AddJob(MetricJobMissed, t.id, 1)
	}
	e.completed++
	e.agg.observe(rec, baseline)
	e.history = append(e.history, rec)
	if len(e.history) > c.historyLimit {
		e.history = e.history[len(e.history)-c.historyLimit:]
	}
	if e.done() {
		c.active--
		c.metrics.SetGauge(MetricJobsActive, float64(c.active))
		e.enc, _ = json.Marshal(c.statusLocked(e))
		c.logf("scheduler: %s completed all %d runs (norm cost %.2f×OD, %d missed)",
			t.id, e.completed, e.agg.MeanNormCost, e.agg.Missed)
		if c.gate != nil {
			// The finished job frees its deployment share; waiters with
			// capacity now get their first recurrence scheduled.
			now := c.clock.Now()
			promos := c.gate.Release(t.id, now)
			c.activatePromotionsLocked(promos, now)
			promoted = len(promos) > 0
		}
	}
	c.mu.Unlock()
	if promoted {
		c.kick()
	}
}
