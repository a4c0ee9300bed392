package runtime_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hourglass"
	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/engine"
	"hourglass/internal/graph"
	"hourglass/internal/micro"
	"hourglass/internal/obs"
	"hourglass/internal/partition"
	"hourglass/internal/runtime"
	"hourglass/internal/units"
)

// harness bundles everything one app needs to run under the driver:
// the provisioning environment, the offline micro-partitioning and
// the bit-exact uninterrupted reference.
type harness struct {
	kind     hourglass.JobKind
	sys      *hourglass.System
	env      *core.Env
	g        *graph.Graph
	part     *micro.Partitioning
	fresh    func() engine.Program
	total    int       // supersteps of the uninterrupted run
	ref      []float64 // canonical reference values
	relDl    units.Seconds
	horizon  units.Seconds
	baseSeed int64
}

var (
	harnessOnce sync.Once
	harnessMap  map[string]*harness
	harnessErr  error
)

func undirectedRMAT(scale int, seed int64) *graph.Graph {
	p := graph.DefaultRMAT(scale, seed)
	p.Undirected = true
	return graph.RMAT(p)
}

// buildHarnesses constructs the shared System, graph and partitioning
// once; references are canonical so any worker-count trajectory must
// reproduce them bit for bit.
func buildHarnesses() (map[string]*harness, error) {
	sys, err := hourglass.New(hourglass.Options{Seed: 42})
	if err != nil {
		return nil, err
	}
	g := undirectedRMAT(9, 7)
	apps := []struct {
		name  string
		kind  hourglass.JobKind
		fresh func() engine.Program
	}{
		{"pagerank", hourglass.PageRank, func() engine.Program { return &engine.PageRank{Iterations: 10} }},
		{"sssp", hourglass.SSSP, func() engine.Program { return &engine.SSSP{Source: 0} }},
		// WCC runs under the graph-coloring pricing environment — the
		// perfmodel has no WCC calibration and the driver only needs a
		// cost model, not a matching program.
		{"wcc", hourglass.GC, func() engine.Program { return &engine.WCC{} }},
	}
	out := map[string]*harness{}
	var part *micro.Partitioning
	for _, a := range apps {
		env, err := sys.Env(a.kind)
		if err != nil {
			return nil, err
		}
		if part == nil {
			counts := map[int]bool{}
			var workerCounts []int
			for i := range env.Stats {
				if n := env.Stats[i].Config.Count; !counts[n] {
					counts[n] = true
					workerCounts = append(workerCounts, n)
				}
			}
			part, err = micro.BuildForConfigs(g, partition.Hash{}, workerCounts, partition.Multilevel{Seed: 1})
			if err != nil {
				return nil, err
			}
		}
		ref, err := engine.Run(g, a.fresh(), engine.Config{Workers: 4, Canonical: true})
		if err != nil {
			return nil, fmt.Errorf("%s reference: %w", a.name, err)
		}
		relDl, err := sys.DeadlineFor(a.kind, 0.5)
		if err != nil {
			return nil, err
		}
		hz, err := sys.Horizon(a.kind)
		if err != nil {
			return nil, err
		}
		out[a.name] = &harness{
			kind: a.kind, sys: sys, env: env, g: g, part: part,
			fresh: a.fresh, total: ref.Stats.Supersteps, ref: ref.Values,
			relDl: relDl, horizon: hz,
		}
	}
	return out, nil
}

func getHarness(t *testing.T, app string) *harness {
	t.Helper()
	harnessOnce.Do(func() { harnessMap, harnessErr = buildHarnesses() })
	if harnessErr != nil {
		t.Fatalf("harness: %v", harnessErr)
	}
	h, ok := harnessMap[app]
	if !ok {
		t.Fatalf("no harness for app %q", app)
	}
	return h
}

func (h *harness) provisioner(t *testing.T) core.Provisioner {
	t.Helper()
	p, err := h.sys.Provisioner(h.kind, hourglass.StrategyHourglass)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func (h *harness) options(t *testing.T, store cloud.BlobStore, job string, prov core.Provisioner) runtime.Options {
	t.Helper()
	return runtime.Options{
		Env:             h.env,
		Prov:            prov,
		Graph:           h.g,
		NewProgram:      h.fresh,
		Part:            h.part,
		Manager:         &engine.CheckpointManager{Store: store, Job: job},
		TotalSupersteps: h.total,
		CheckpointEvery: 2,
		Canonical:       true,
		Watchdog:        30 * time.Second, // generous: hang guard only
		Logf:            t.Logf,
	}
}

func assertBitIdentical(t *testing.T, ref, got []float64) {
	t.Helper()
	if got == nil {
		t.Fatal("run finished without values")
	}
	for v := range ref {
		if got[v] != ref[v] {
			t.Fatalf("vertex %d diverged: %x != %x", v, got[v], ref[v])
		}
	}
}

// listSink collects events under a mutex (engine supersteps are
// emitted from the engine goroutine, lifecycle events from the driver).
type listSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *listSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *listSink) snapshot() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]obs.Event(nil), s.events...)
}

func TestExecuteValidatesOptions(t *testing.T) {
	if _, err := runtime.Execute(context.Background(), runtime.Options{}, 0, 1); err == nil {
		t.Fatal("empty options accepted")
	}
}

func TestExecuteOnDemandUninterrupted(t *testing.T) {
	h := getHarness(t, "pagerank")
	opts := h.options(t, cloud.NewDatastore(), "od/pagerank", &core.OnDemandOnly{Env: h.env})
	rep, err := runtime.Execute(context.Background(), opts, 0, h.relDl)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished || rep.MissedDeadline {
		t.Fatalf("on-demand run: finished=%v missed=%v completion=%v deadline=%v",
			rep.Finished, rep.MissedDeadline, rep.Completion, h.relDl)
	}
	if rep.Evictions != 0 {
		t.Fatalf("on-demand run suffered %d evictions", rep.Evictions)
	}
	if rep.Reconfigs != 1 {
		t.Fatalf("reconfigs = %d, want 1", rep.Reconfigs)
	}
	if rep.Cost <= 0 {
		t.Fatalf("cost = %v", rep.Cost)
	}
	assertBitIdentical(t, h.ref, rep.Values)
}

// TestExecuteReclusterFailureIsDeployed: a deployment whose worker
// count the micro-partitioning cannot serve fails after it was billed,
// and the trace still carries its EvDeploy, so the report folded from
// the trace has the deploy that the bill is for.
func TestExecuteReclusterFailureIsDeployed(t *testing.T) {
	h := getHarness(t, "pagerank")
	lrc := h.env.LRC.Config.Count
	part, err := micro.Build(h.g, partition.Hash{}, lrc-1, partition.Multilevel{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := &listSink{}
	opts := h.options(t, cloud.NewDatastore(), "recluster/pagerank", &core.OnDemandOnly{Env: h.env})
	opts.Part, opts.Sink = part, sink
	rep, err := runtime.Execute(context.Background(), opts, 0, h.relDl)
	if err == nil || !strings.Contains(err.Error(), "re-cluster") {
		t.Fatalf("Execute = %v, want the re-cluster error", err)
	}
	events := sink.snapshot()
	if rep.Cost <= 0 || rep.Reconfigs != 1 {
		t.Fatalf("report cost %v, %d deploys: want the billed deploy", rep.Cost, rep.Reconfigs)
	}
	if got := obs.Summarize(events); got.Cost != rep.Cost || got.Reconfigs != rep.Reconfigs {
		t.Fatalf("trace folds to cost %v, %d deploys; report has %v, %d", got.Cost, got.Reconfigs, rep.Cost, rep.Reconfigs)
	}
	if last := events[len(events)-1]; last.Type != obs.EvDeploy {
		t.Fatalf("last event %s, want the failed deployment's EvDeploy", last.Type)
	}
}

func TestExecuteSlackAwareFromColdMarket(t *testing.T) {
	for _, app := range []string{"pagerank", "sssp", "wcc"} {
		t.Run(app, func(t *testing.T) {
			h := getHarness(t, app)
			opts := h.options(t, cloud.NewDatastore(), "sa/"+app, h.provisioner(t))
			rep, err := runtime.Execute(context.Background(), opts, 0, h.relDl)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Finished {
				t.Fatal("run did not finish")
			}
			assertBitIdentical(t, h.ref, rep.Values)
			if rep.MissedDeadline != (rep.Completion > h.relDl) {
				t.Fatalf("miss flag inconsistent: missed=%v completion=%v deadline=%v",
					rep.MissedDeadline, rep.Completion, h.relDl)
			}
		})
	}
}

// wedgeProgram sleeps at a chosen superstep, simulating a stuck
// Compute. Each program instance wedges at most once (an abandoned
// engine goroutine keeps calling Compute after the driver moves on and
// must not burn further wedges), and the shared `trips` counter bounds
// how many instances wedge in total so the test cannot livelock.
type wedgeProgram struct {
	inner engine.Program
	at    int
	sleep time.Duration
	trips *atomic.Int64
	max   int64
	fired atomic.Bool
}

func (w *wedgeProgram) Name() string { return w.inner.Name() }
func (w *wedgeProgram) Init(g *graph.Graph, v graph.VertexID) (float64, bool) {
	return w.inner.Init(g, v)
}
func (w *wedgeProgram) Compute(ctx *engine.Context, v graph.VertexID, msgs []float64) {
	if ctx.Superstep() == w.at && !w.fired.Swap(true) {
		if w.trips.Add(1) <= w.max {
			time.Sleep(w.sleep)
		}
	}
	w.inner.Compute(ctx, v, msgs)
}

// Aggregators forwards the inner program's aggregator declarations
// (PageRank registers "dangling").
func (w *wedgeProgram) Aggregators() []engine.AggregatorSpec {
	if a, ok := w.inner.(engine.Aggregators); ok {
		return a.Aggregators()
	}
	return nil
}

func TestExecuteWatchdogRecoversWedgedRun(t *testing.T) {
	h := getHarness(t, "pagerank")
	trips := &atomic.Int64{}
	opts := h.options(t, cloud.NewDatastore(), "wedge/pagerank", &core.OnDemandOnly{Env: h.env})
	opts.NewProgram = func() engine.Program {
		return &wedgeProgram{inner: h.fresh(), at: 3, sleep: 400 * time.Millisecond, trips: trips, max: 1}
	}
	opts.Watchdog = 50 * time.Millisecond
	opts.Sink = nil // the abandoned goroutine may emit late; keep it detached

	rep, err := runtime.Execute(context.Background(), opts, 0, h.relDl)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WatchdogTrips < 1 {
		t.Fatalf("watchdog never tripped (trips=%d)", rep.WatchdogTrips)
	}
	if rep.Restarts < 1 {
		t.Fatalf("restarts = %d", rep.Restarts)
	}
	if !rep.Finished {
		t.Fatal("wedged run never finished")
	}
	assertBitIdentical(t, h.ref, rep.Values)
}

func TestExecuteRestartBudgetEngagesLastResort(t *testing.T) {
	h := getHarness(t, "pagerank")
	trips := &atomic.Int64{}
	opts := h.options(t, cloud.NewDatastore(), "budget/pagerank", h.provisioner(t))
	// Wedge twice with a budget of one: the first trip spends the
	// budget, the second happens under the last-resort configuration
	// (the wedge is in the program, not the machines) and the third
	// attempt — wedges exhausted — completes there.
	opts.NewProgram = func() engine.Program {
		return &wedgeProgram{inner: h.fresh(), at: 3, sleep: 400 * time.Millisecond, trips: trips, max: 2}
	}
	opts.Watchdog = 50 * time.Millisecond
	opts.RestartBudget = 1

	rep, err := runtime.Execute(context.Background(), opts, 0, h.relDl)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.LastResort {
		t.Fatal("restart budget exhausted but last resort never engaged")
	}
	if rep.WatchdogTrips < 2 {
		t.Fatalf("watchdog trips = %d, want >= 2", rep.WatchdogTrips)
	}
	if !rep.Finished {
		t.Fatal("run never finished")
	}
	assertBitIdentical(t, h.ref, rep.Values)
}

func TestExecuteCancelledContext(t *testing.T) {
	h := getHarness(t, "pagerank")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := h.options(t, cloud.NewDatastore(), "cancel/pagerank", h.provisioner(t))
	if _, err := runtime.Execute(ctx, opts, 0, h.relDl); err == nil {
		t.Fatal("cancelled context did not abort the run")
	}
}

// failDeleteStore fails every Delete, as a store whose delete
// permission was revoked.
type failDeleteStore struct{ cloud.BlobStore }

func (failDeleteStore) Delete(string) error { return errors.New("delete forbidden") }

// TestExecuteLogsIncompleteCheckpointGC: a job whose checkpoints cannot
// be cleared still finishes, and the failure is logged with the job's
// name instead of being swallowed.
func TestExecuteLogsIncompleteCheckpointGC(t *testing.T) {
	h := getHarness(t, "pagerank")
	store := failDeleteStore{cloud.NewDatastore()}
	opts := h.options(t, store, "nogc/pagerank",
		&scriptedProv{configs: []cloud.Config{onDemandByCount(t, h.env, 4)}})
	var logged []string
	opts.Logf = func(format string, args ...any) { logged = append(logged, fmt.Sprintf(format, args...)) }
	rep, err := runtime.Execute(context.Background(), opts, 0, h.relDl)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished || rep.Checkpoints == 0 {
		t.Fatalf("finished = %v after %d checkpoints; want a finished, checkpointed run", rep.Finished, rep.Checkpoints)
	}
	assertBitIdentical(t, h.ref, rep.Values)
	if len(store.Keys()) == 0 {
		t.Fatal("the namespace was cleared through a store that fails every Delete")
	}
	for _, l := range logged {
		if strings.Contains(l, "checkpoint GC") && strings.Contains(l, h.env.Job.Name) {
			return
		}
	}
	t.Fatalf("no checkpoint GC failure naming job %q logged: %q", h.env.Job.Name, logged)
}

// alternatingProv never lets a job finish: it alternates two
// configurations, each for less than a superstep and without
// checkpoints, so every deployment starts the job over.
type alternatingProv struct{ a, b cloud.Config }

func (p *alternatingProv) Name() string { return "alternating" }

func (p *alternatingProv) Decide(s core.State) (core.Decision, error) {
	c := p.a
	if s.Current != nil && s.Current.ID() == p.a.ID() {
		c = p.b
	}
	return core.Decision{Config: c, MaxRun: 1}, nil
}

func TestExecuteDecisionGuard(t *testing.T) {
	h := getHarness(t, "pagerank")
	var od []cloud.Config
	for _, cs := range h.env.Stats {
		if !cs.Config.Transient && cs.Config.Count == 4 {
			od = append(od, cs.Config)
		}
	}
	if len(od) < 2 {
		t.Fatalf("%d on-demand configurations of 4 workers, want 2", len(od))
	}
	g := graph.Ring(8)
	part, err := micro.BuildForConfigs(g, partition.Hash{}, []int{4}, partition.Multilevel{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := runtime.Options{
		Env:             h.env,
		Prov:            &alternatingProv{a: od[0], b: od[1]},
		Graph:           g,
		NewProgram:      func() engine.Program { return &engine.PageRank{Iterations: 10} },
		Part:            part,
		Manager:         &engine.CheckpointManager{Store: cloud.NewDatastore(), Job: "livelock/pagerank"},
		TotalSupersteps: 10,
		Logf:            t.Logf,
	}
	// The deadline is far enough out that slack never runs dry, which
	// would pin the last resort and let the job finish.
	rep, err := runtime.Execute(context.Background(), opts, 0, 1e12)
	if err == nil || !strings.Contains(err.Error(), "exceeded 10000 decisions") {
		t.Fatalf("err = %v, want the 10000-decision livelock guard", err)
	}
	if rep.Decisions != 10_001 {
		t.Fatalf("decisions = %d, want 10001", rep.Decisions)
	}
}
