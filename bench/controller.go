package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"hourglass"
	"hourglass/internal/admission"
	"hourglass/internal/scheduler"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// mixClients is the closed-loop client count: each waits for its reply
// before sending the next request, as a tenant's submission script
// does, and each owns one HTTP connection.
const mixClients = 2

var mixEpoch = time.Date(2019, 3, 25, 0, 0, 0, 0, time.UTC)

type opKind int

const (
	opPost opKind = iota
	opDelete
	opGet
	opList
	opMetrics
)

// mixOp is one generated controller operation. gap is the virtual time
// that passes before it (exponential, 2500 arrivals per virtual hour);
// pick selects the target of a DELETE or GET among the ids accepted so
// far.
type mixOp struct {
	kind opKind
	gap  time.Duration
	spec scheduler.JobSpec
	pick int
}

// A block is the stream's unit of composition and one round of the
// workload: 40 operations holding exactly 70 % POST /jobs (kinds
// pagerank 50 / sssp 25 / graphcoloring 25, tenants 3:2:1), 10 %
// DELETE and 10 % GET of an earlier accepted id, 5 % GET /jobs and 5 %
// GET /metrics. The seed decides the order, the tenants, the slacks,
// the virtual gaps and the targets, not the composition: a
// graphcoloring submission costs four orders of magnitude more than an
// SSSP one, so rounds whose counts differed by chance would measure
// the draw instead of the controller.
const (
	mixBlockOps = 40
	mixBlocks   = 256 // blocks generated; a longer run wraps around
)

var (
	mixBlockKinds = map[hourglass.JobKind]int{hourglass.PageRank: 14, hourglass.SSSP: 7, hourglass.GC: 7}
	mixBlockOther = map[opKind]int{opDelete: 4, opGet: 4, opList: 2, opMetrics: 2}
	mixTenants    = map[string]int{"team-a": 14, "team-b": 9, "team-c": 5}
)

// Slack is spread evenly over the lower half of the range the paper
// evaluates (10 %-100 %). The price of a slack-aware decision grows
// steeply with slack (graphcoloring: 170 ms at 0.5, 770 ms at 3), so
// each kind's slacks in a block are stratified over the range, not
// drawn freely.
const mixSlackLo, mixSlackHi = 0.3, 0.7

// genMix draws the operation stream from the seed, block by block.
// One team-b submission per block that is not a graphcoloring job
// carries an infeasible deadline (a tenth of team-b's), which the gate
// refuses with 422 before pricing it.
func genMix(seed int64, required map[hourglass.JobKind]units.Seconds) []mixOp {
	rng := rand.New(rand.NewSource(seed))
	meanGap := float64(time.Hour) / 2500
	var ops []mixOp
	for b := 0; b < mixBlocks; b++ {
		var block []mixOp
		var tenants []string
		for _, name := range []string{"team-a", "team-b", "team-c"} {
			for i := 0; i < mixTenants[name]; i++ {
				tenants = append(tenants, name)
			}
		}
		rng.Shuffle(len(tenants), func(i, j int) { tenants[i], tenants[j] = tenants[j], tenants[i] })
		for _, k := range jobKinds {
			n := mixBlockKinds[k]
			for _, i := range rng.Perm(n) {
				slack := mixSlackLo + (mixSlackHi-mixSlackLo)*(float64(i)+rng.Float64())/float64(n)
				block = append(block, mixOp{kind: opPost, spec: scheduler.JobSpec{
					Kind: k, Strategy: hourglass.StrategyHourglass, Slack: slack,
					Period: scheduler.Duration(time.Hour), Runs: 1, Tenant: tenants[len(block)],
				}})
			}
		}
		for {
			op := &block[rng.Intn(len(block))]
			if op.spec.Tenant == "team-b" && op.spec.Kind != hourglass.GC {
				// 40-90 % of the minimum feasible deadline: clearly short.
				scale := 0.4 + 0.5*rng.Float64()
				op.spec.Deadline = scheduler.Duration(time.Duration(scale * float64(required[op.spec.Kind].Duration())))
				break
			}
		}
		for _, kind := range []opKind{opDelete, opGet, opList, opMetrics} {
			for i := 0; i < mixBlockOther[kind]; i++ {
				block = append(block, mixOp{kind: kind})
			}
		}
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for i := range block {
			block[i].gap = time.Duration(rng.ExpFloat64() * meanGap)
			block[i].pick = rng.Intn(1 << 30)
		}
		ops = append(ops, block...)
	}
	return ops
}

// mixBackend prices submissions through the real market machinery
// (SystemBackend.Admit and Estimate, including the provisioner's first
// decision) but completes dispatched runs instantly: controller_mix
// measures the control plane, not graph execution. Every job has one
// recurrence, so it runs at once, gives its deployment share back and
// stays in the table, done, until a DELETE picks it: the pool never
// saturates and the table grows by about 24 entries a round. When traced, the two
// pricing calls become spans under the request that caused them, found
// through the job id the generator assigned.
type mixBackend struct {
	scheduler.SystemBackend
	w *mixWorkload
}

func (b mixBackend) Run(_ context.Context, _ scheduler.JobSpec, start, _ units.Seconds) (sim.RunResult, error) {
	return sim.RunResult{Cost: 0.25, Finished: true, Completion: start}, nil
}

func (b mixBackend) Admit(spec scheduler.JobSpec) (units.Seconds, units.Seconds, units.USD, error) {
	defer b.w.backendSpan(layerScheduler, "scheduler.SystemBackend.Admit", spec.ID)()
	return b.SystemBackend.Admit(spec)
}

func (b mixBackend) Estimate(spec scheduler.JobSpec, deadline, at units.Seconds) (admission.Estimate, error) {
	defer b.w.backendSpan(layerCore, "scheduler.SystemBackend.Estimate", spec.ID)()
	return b.SystemBackend.Estimate(spec, deadline, at)
}

// mixWorkload drives scheduler.Controller.Handler() over loopback HTTP.
type mixWorkload struct {
	seed int64
	sz   sizes
	root string

	ops    []mixOp
	next   int // first operation of the next round
	clock  *scheduler.VirtualClock
	ctrl   *scheduler.Controller
	srv    *httptest.Server
	client *http.Client
	phases setupPhases

	mu       sync.Mutex
	tr       *tracer        // tracer of the round in flight (nil = untraced)
	inflight map[string]int // job id -> root span of the POST carrying it
	ids      []string       // accepted (admitted or queued) and not yet deleted
}

func (w *mixWorkload) backendSpan(layer, name, jobID string) func() {
	w.mu.Lock()
	tr, root, ok := w.tr, 0, false
	if tr != nil {
		root, ok = w.inflight[jobID]
	}
	w.mu.Unlock()
	if !ok {
		return func() {}
	}
	id := tr.begin(layer, name, root, root)
	return func() { tr.end(id) }
}

func (w *mixWorkload) setup(int) error {
	t0 := time.Now()
	sys, err := newSystem(w.root)
	if err != nil {
		return err
	}
	w.phases.system = time.Since(t0)
	required := map[hourglass.JobKind]units.Seconds{}
	for _, k := range jobKinds {
		if required[k], err = sys.DeadlineFor(k, 0); err != nil {
			return err
		}
	}
	w.ops = genMix(w.seed, required)
	w.clock = scheduler.NewVirtualClock(mixEpoch)
	w.inflight = map[string]int{}
	w.ctrl, err = scheduler.New(scheduler.Options{
		Backend:   mixBackend{scheduler.SystemBackend{Sys: sys}, w},
		Clock:     w.clock,
		Seed:      w.seed,
		Admission: &admission.Config{MaxDeployments: 8, QueueDepth: 64},
	})
	if err != nil {
		return err
	}
	w.srv = httptest.NewServer(w.ctrl.Handler())
	w.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: mixClients, MaxIdleConnsPerHost: mixClients,
	}}

	t0 = time.Now()
	warm := &accum{}
	w.runOps(mixBlockOps, nil, warm, w.sz.warmupLimit)
	w.phases.warmup = time.Since(t0)
	if warm.failed > 0 {
		return fmt.Errorf("bench: %d of %d controller warm-up operations failed", warm.failed, warm.attempted)
	}
	return nil
}

func (w *mixWorkload) setupPhases() setupPhases { return w.phases }

func (w *mixWorkload) lanes() int { return mixClients }

func (w *mixWorkload) close() {
	if w.srv != nil {
		w.client.CloseIdleConnections()
		w.srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = w.ctrl.Shutdown(ctx) // no snapshot store is configured, so there is nothing to fail
		w.srv = nil
	}
}

// round is one block of operations shared by the two clients.
func (w *mixWorkload) round(tr *tracer, acc *accum) {
	t0 := time.Now()
	// The limit is per operation: ten times the slowest thing the mix
	// does (a graphcoloring submission, well under a second), floor 3 s.
	w.runOps(mixBlockOps, tr, acc, 3*time.Second)
	acc.endRound(time.Since(t0))
}

// runOps issues the next n operations of the stream from mixClients
// closed-loop clients and folds what they saw into acc.
func (w *mixWorkload) runOps(n int, tr *tracer, acc *accum, limit time.Duration) {
	w.mu.Lock()
	w.tr = tr
	w.mu.Unlock()
	first := w.next
	w.next += n
	var cursor atomic.Int64
	var wg sync.WaitGroup
	results := make([]opResult, n)
	for c := 0; c < mixClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				seq := first + i
				results[i] = w.do(seq, w.ops[seq%len(w.ops)], tr, limit)
			}
		}()
	}
	wg.Wait()
	for _, r := range results {
		acc.attempted++
		if !r.ok {
			acc.failed++
			continue
		}
		acc.work++
		switch r.kind {
		case opPost:
			acc.posts++
			acc.opWalls = append(acc.opWalls, r.wall)
			switch r.status {
			case http.StatusCreated:
				acc.admitted++
			case http.StatusAccepted:
				acc.queued++
			default:
				acc.rejected++
			}
		case opGet, opList, opMetrics:
			acc.readWalls = append(acc.readWalls, r.wall)
		}
	}
}

type opResult struct {
	kind   opKind
	wall   time.Duration
	status int
	ok     bool // replied in time with a status the operation may return and a well-formed body
}

// expected lists the statuses each operation may legitimately return.
// A DELETE or GET can race the other client's DELETE of the same id,
// hence the 404s.
var expected = map[opKind][]int{
	opPost:    {http.StatusCreated, http.StatusAccepted, http.StatusUnprocessableEntity, http.StatusTooManyRequests},
	opDelete:  {http.StatusNoContent, http.StatusNotFound},
	opGet:     {http.StatusOK, http.StatusNotFound},
	opList:    {http.StatusOK},
	opMetrics: {http.StatusOK},
}

func (w *mixWorkload) do(seq int, op mixOp, tr *tracer, limit time.Duration) opResult {
	res := opResult{kind: op.kind}
	w.clock.Advance(op.gap)

	method, path, name := http.MethodGet, "/jobs", "GET /jobs"
	var body []byte
	target := ""
	switch op.kind {
	case opPost:
		method, name = http.MethodPost, "POST /jobs"
		spec := op.spec
		spec.ID = fmt.Sprintf("op-%06d", seq)
		target = spec.ID
		body, _ = json.Marshal(spec) // a JobSpec of strings and numbers always encodes
	case opDelete, opGet:
		target = w.pickID(op.pick, op.kind == opDelete)
		path = "/jobs/" + target
		name = "GET /jobs/{id}"
		if op.kind == opDelete {
			method, name = http.MethodDelete, "DELETE /jobs/{id}"
		}
	case opMetrics:
		path, name = "/metrics", "GET /metrics"
	}

	root := tr.beginOp(layerScheduler, "scheduler.Handler", name)
	if tr != nil && op.kind == opPost {
		w.mu.Lock()
		w.inflight[target] = root
		w.mu.Unlock()
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, method, w.srv.URL+path, bytes.NewReader(body))
	if err == nil {
		var resp *http.Response
		if resp, err = w.client.Do(req); err == nil {
			var reply []byte
			reply, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			res.status = resp.StatusCode
			res.ok = err == nil && w.validReply(op.kind, resp.StatusCode, target, reply)
		}
	}
	res.wall = time.Since(t0)
	tr.end(root)

	if op.kind == opPost {
		w.mu.Lock()
		delete(w.inflight, target)
		if res.ok && (res.status == http.StatusCreated || res.status == http.StatusAccepted) {
			w.ids = append(w.ids, target)
		}
		w.mu.Unlock()
	}
	return res
}

// pickID chooses the target of a DELETE or GET among the accepted ids;
// a DELETE takes it off the list. With nothing accepted yet the
// request goes to an id that does not exist, and 404 is the answer.
func (w *mixWorkload) pickID(pick int, remove bool) string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.ids) == 0 {
		return "none"
	}
	i := pick % len(w.ids)
	id := w.ids[i]
	if remove {
		w.ids[i] = w.ids[len(w.ids)-1]
		w.ids = w.ids[:len(w.ids)-1]
	}
	return id
}

// validReply checks the status against the operation's expected set
// and, where the reply describes a job, that it describes the right
// one.
func (w *mixWorkload) validReply(kind opKind, status int, target string, reply []byte) bool {
	allowed := false
	for _, s := range expected[kind] {
		allowed = allowed || s == status
	}
	if !allowed {
		return false
	}
	switch {
	case status == http.StatusCreated || status == http.StatusAccepted || (kind == opGet && status == http.StatusOK):
		var st scheduler.JobStatus
		return json.Unmarshal(reply, &st) == nil && st.Spec.ID == target
	case kind == opList:
		var list []scheduler.JobStatus
		return json.Unmarshal(reply, &list) == nil
	case kind == opMetrics:
		return bytes.Contains(reply, []byte(scheduler.MetricJobsSubmitted))
	}
	return true
}
