package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"hourglass"
	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/dist"
	"hourglass/internal/engine"
	"hourglass/internal/graph"
	"hourglass/internal/micro"
	"hourglass/internal/obs"
	"hourglass/internal/partition"
	"hourglass/internal/runtime"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// workerCounts is the benchmark's deployment-size grid. The paper's
// {4, 8, 16} would run up to 16 shard goroutines on the two cores the
// benchmark pins and measure the Go scheduler instead of the system.
var workerCounts = []int{2, 4}

const tracesDir = "internal/runtime/testdata/traces"

// datasetSeed fixes the RMAT graphs. The graph is the benchmark's
// dataset, as the Twitter graph is the paper's: --seed draws what a
// tenant varies from run to run (where on the market trace a job
// starts, the order of jobs, the controller's request stream), and a
// dataset that changed with it would move the superstep counts, and so
// every timing, by more than any regression bound.
const datasetSeed = 20190325

// scenarioSeed fixes where on the market trace dist_evict's eight jobs
// start. Which configuration the provisioner picks, how many shards
// that boots and whether the market evicts it again all follow from
// the start offset, so offsets drawn from --seed would make two seeds
// two different workloads; like the trace itself, the scenario is part
// of the dataset. 46 is the first of 40..60 whose offsets put a market
// eviction on top of an injected loss: that job engages the last
// resort and misses its deadline, which keeps deadline_miss_frac a live
// number (README, known baseline findings).
const scenarioSeed = 46

// findRoot walks up from the working directory to the checkout root
// (the directory holding the checked-in market traces), so the program
// runs from the root, from bench/ and from `go test`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 4; i++ {
		if _, err := os.Stat(filepath.Join(dir, tracesDir)); err == nil {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", fmt.Errorf("bench: %s not found at or above the working directory; run from the checkout", tracesDir)
}

// newSystem builds the market every workload runs against: the
// checked-in r4 traces as both the live month and the month the
// eviction model is fitted on, over the {2,4}-worker configuration
// grid.
func newSystem(root string) (*hourglass.System, error) {
	set := cloud.TraceSet{}
	for _, it := range cloud.Catalogue() {
		f, err := os.Open(filepath.Join(root, tracesDir, it.Name+".csv"))
		if err != nil {
			return nil, fmt.Errorf("bench: checked-in trace: %w", err)
		}
		tr, err := cloud.ReadTraceCSV(f, it.Name, 60)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("bench: parsing %s trace: %w", it.Name, err)
		}
		set[it.Name] = tr
	}
	var configs []cloud.Config
	for _, transient := range []bool{true, false} {
		for _, it := range cloud.Catalogue() {
			for _, n := range workerCounts {
				configs = append(configs, cloud.Config{Instance: it, Count: n, Transient: transient})
			}
		}
	}
	return hourglass.New(hourglass.Options{LiveTraces: set, HistoricalTraces: set, Configs: configs})
}

// job is one generated graph job: what to run, how it is priced and
// provisioned, where on the market trace it starts, and the reference
// its output must equal bit for bit.
type job struct {
	name     string
	prog     dist.ProgramSpec
	env      *core.Env
	newProv  func() core.Provisioner
	dist     bool          // ExecuteDist, else Execute
	start    units.Seconds // trace offset
	deadline units.Seconds // relative
	dieAt    int           // shard 1 of deployment 0 dies at this superstep (0 = never)
	warm     bool          // the death is forewarned and a warm standby armed
	headline bool          // a PageRank job: its latency is the workload's op_p50_ms
	baseline units.USD

	ref     []float64
	total   int           // supersteps of the uninterrupted run
	timeout time.Duration // hard per-operation limit, set by the warm-up round
}

// setupPhases are the wall times of one set-up, by the layer that did
// the work; they feed the per-layer set-up metrics.
type setupPhases struct {
	system, graph, micro, refs, warmup time.Duration
}

// jobWorkload is one of the three graph-job workloads.
type jobWorkload struct {
	name string
	seed int64
	sz   sizes
	root string

	gspec  dist.GraphSpec
	g      *graph.Graph
	part   *micro.Partitioning
	jobs   []*job
	phases setupPhases
	nextOp int
}

func discardf(string, ...any) {}

// setup builds the market, the graph, the partitioning (in-process
// only), one reference per program and the job list, then runs the
// unmeasured warm-up round. Each trial builds its own graph of the
// dataset family: the dist layer memoizes built graphs per spec, so a
// repeated spec would make every set-up after the first look cheaper
// than it is.
func (w *jobWorkload) setup(trial int) error {
	t0 := time.Now()
	sys, err := newSystem(w.root)
	if err != nil {
		return err
	}
	w.phases.system = time.Since(t0)

	scale := w.sz.steadyScale
	if w.name == "dist_evict" {
		scale = w.sz.evictScale
	}
	w.gspec = dist.GraphSpec{Scale: scale, Seed: datasetSeed + int64(trial), Undirected: true, Weighted: true}
	t0 = time.Now()
	if w.g, err = w.gspec.Build(); err != nil {
		return err
	}
	w.phases.graph = time.Since(t0)

	if w.name == "inproc_steady" {
		t0 = time.Now()
		w.part, err = micro.BuildForConfigs(w.g, partition.Hash{}, workerCounts, partition.Multilevel{Seed: 1})
		if err != nil {
			return err
		}
		w.phases.micro = time.Since(t0)
	}

	if err := w.buildJobs(sys); err != nil {
		return err
	}

	t0 = time.Now()
	refs := map[string]engine.Result{}
	for _, j := range w.jobs {
		ref, ok := refs[j.prog.Name]
		if !ok {
			prog, err := j.prog.New()
			if err != nil {
				return err
			}
			if ref, err = engine.Run(w.g, prog, engine.Config{Workers: 2, Canonical: true}); err != nil {
				return fmt.Errorf("bench: %s reference: %w", j.prog.Name, err)
			}
			refs[j.prog.Name] = ref
		}
		j.ref, j.total = ref.Values, ref.Stats.Supersteps
	}
	w.phases.refs = time.Since(t0)

	// Warm-up: every job once, under a generous fixed limit; the
	// measured limit is ten times what the job took here.
	t0 = time.Now()
	for _, j := range w.jobs {
		j.timeout = w.sz.warmupLimit
		out := w.runJob(j, nil)
		if out.err != nil || !out.valid {
			return fmt.Errorf("bench: warm-up of %s failed (valid=%v): %v", j.name, out.valid, out.err)
		}
		j.timeout = max(10*out.wall, 3*time.Second)
	}
	w.phases.warmup = time.Since(t0)
	return nil
}

func (w *jobWorkload) buildJobs(sys *hourglass.System) error {
	onDemand := func(env *core.Env) func() core.Provisioner {
		return func() core.Provisioner { return &core.OnDemandOnly{Env: env} }
	}
	programs := map[string]dist.ProgramSpec{
		"pagerank": {Name: "pagerank", Iterations: 10},
		"sssp":     {Name: "sssp", Source: 0},
		"wcc":      {Name: "wcc"},
	}
	// The perfmodel has no WCC calibration; WCC is priced as PageRank.
	pricing := map[string]hourglass.JobKind{
		"pagerank": hourglass.PageRank, "sssp": hourglass.SSSP, "wcc": hourglass.PageRank,
	}
	w.jobs = nil
	add := func(name, prog string, kind hourglass.JobKind, j job) error {
		env, err := sys.Env(kind)
		if err != nil {
			return err
		}
		deadline, err := sys.DeadlineFor(kind, 0.5)
		if err != nil {
			return err
		}
		j.name, j.prog, j.env, j.deadline, j.baseline = name, programs[prog], env, deadline, sim.Baseline(env)
		j.headline = prog == "pagerank"
		if j.newProv == nil {
			j.newProv = onDemand(env)
		}
		w.jobs = append(w.jobs, &j)
		return nil
	}

	rng := rand.New(rand.NewSource(w.seed))
	scenario := rand.New(rand.NewSource(scenarioSeed))
	offset := func(rng *rand.Rand, kind hourglass.JobKind) (units.Seconds, error) {
		deadline, err := sys.DeadlineFor(kind, 0.5)
		if err != nil {
			return 0, err
		}
		horizon, err := sys.Horizon(kind)
		if err != nil {
			return 0, err
		}
		return units.Seconds(rng.Float64() * float64(horizon-deadline)), nil
	}

	if w.name != "dist_evict" {
		// The steady workloads run on demand: the seed draws the order of
		// the three jobs and their start offsets, neither of which changes
		// the work (on-demand capacity is always there at one price).
		progs := []string{"pagerank", "sssp", "wcc"}
		rng.Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
		for _, p := range progs {
			start, err := offset(rng, pricing[p])
			if err != nil {
				return err
			}
			if err := add(p, p, pricing[p], job{dist: w.name == "dist_steady", start: start}); err != nil {
				return err
			}
		}
		return nil
	}

	// dist_evict: {pagerank, wcc} x {warm, reactive} x 2 start offsets of
	// the fixed scenario, all priced as PageRank under the slack-aware
	// strategy; the seed draws the order the jobs run in. Every job loses
	// shard 1 of its first deployment at superstep 3. Warm jobs forewarn
	// that death and arm a standby; reactive jobs do neither, and take
	// the market's own evictions on top.
	//
	// A warm job's offset is redrawn until the market is calm around it
	// (no spot configuration evicted within twice the deadline): at this
	// commit a standby adopted at a market eviction can be evicted again
	// before its first superstep, and discarding a booted standby
	// deadlocks the driver (README, known baseline findings).
	env, err := sys.Env(hourglass.PageRank)
	if err != nil {
		return err
	}
	deadline, err := sys.DeadlineFor(hourglass.PageRank, 0.5)
	if err != nil {
		return err
	}
	evictor := sim.Evictor{Market: env.Market}
	calm := func(start units.Seconds) bool {
		for i := range env.Stats {
			if evictor.Next(env.Stats[i].Config, start) < start+2*deadline {
				return false
			}
		}
		return true
	}
	slackAware := func() core.Provisioner { return core.NewSlackAware(env) }
	for _, p := range []string{"pagerank", "wcc"} {
		for _, warm := range []bool{true, false} {
			mode := "reactive"
			if warm {
				mode = "warm"
			}
			for k := 0; k < 2; k++ {
				start, err := offset(scenario, hourglass.PageRank)
				for err == nil && warm && !calm(start) {
					start, err = offset(scenario, hourglass.PageRank)
				}
				if err != nil {
					return err
				}
				err = add(fmt.Sprintf("%s/%s/%d", p, mode, k), p, hourglass.PageRank,
					job{dist: true, newProv: slackAware, start: start, dieAt: 3, warm: warm})
				if err != nil {
					return err
				}
			}
		}
	}
	rng.Shuffle(len(w.jobs), func(i, j int) { w.jobs[i], w.jobs[j] = w.jobs[j], w.jobs[i] })
	return nil
}

// outcome is what one job run produced and, when traced, what its
// sink and store saw.
type outcome struct {
	wall      time.Duration
	rep       runtime.Report
	err       error
	valid     bool // finished with values bit-identical to the reference
	abandoned bool // still running at the hard limit; its goroutine was left behind

	store *storeCounters
	gaps  []time.Duration
}

// runJob runs one job on its own goroutine under the job's hard limit.
// The context expires at the limit, which unwinds every cooperative
// wait; an operation that ignores it (a deadlocked teardown) is
// abandoned one second later and counted as failed.
func (w *jobWorkload) runJob(j *job, tr *tracer) outcome {
	op := w.nextOp
	w.nextOp++
	ctx, cancel := context.WithTimeout(context.Background(), j.timeout)
	defer cancel()
	ch := make(chan outcome, 1)
	t0 := time.Now()
	go func() { ch <- w.execute(ctx, j, tr, fmt.Sprintf("%s/%d", j.name, op)) }()
	hard := time.NewTimer(j.timeout + time.Second)
	defer hard.Stop()
	select {
	case out := <-ch:
		out.wall = time.Since(t0)
		return out
	case <-hard.C:
		return outcome{wall: time.Since(t0), abandoned: true,
			err: fmt.Errorf("bench: %s still running after %v", j.name, j.timeout+time.Second)}
	}
}

// execute is one job under a clean checkpoint namespace. When traced,
// the store, the provisioner and the event sink are wrapped so every
// call across a layer boundary becomes a span of this operation.
func (w *jobWorkload) execute(ctx context.Context, j *job, tr *tracer, namespace string) outcome {
	var out outcome
	var store cloud.BlobStore = cloud.NewDatastore()
	prov := j.newProv()
	var sink obs.Sink
	var js *jobSink
	root := tr.beginOp(layerRuntime, "runtime.Execute", j.name)
	op := root
	if tr != nil {
		out.store = &storeCounters{}
		store = &countingStore{BlobStore: store, tr: tr, parent: root, op: op, c: out.store}
		layer := layerEngine
		if j.dist {
			layer = layerDist
		}
		js = &jobSink{tr: tr, layer: layer, parent: root, op: op}
		sink = js
		prov = &timedProv{Provisioner: prov, tr: tr, parent: root, op: op}
	}
	if j.dist {
		launcher := &runtime.LoopbackLauncher{Store: store}
		if j.dieAt > 0 {
			launcher.ShardOpts = func(attempt, shard int) dist.ShardOptions {
				if attempt == 0 && shard == 1 {
					return dist.ShardOptions{DieAtSuperstep: j.dieAt}
				}
				return dist.ShardOptions{}
			}
		}
		opts := runtime.DistOptions{
			Env: j.env, Prov: prov, Program: j.prog, Graph: w.gspec,
			Store: store, Job: namespace, Launcher: launcher,
			TotalSupersteps: j.total, CheckpointEvery: 2, DeltaChain: 4,
			Sink: sink, Logf: discardf,
		}
		if j.warm {
			opts.WarningWindow = 600
			launcher.DeathAt = func(attempt int) int {
				if attempt == 0 {
					return j.dieAt
				}
				return 0
			}
		}
		out.rep, out.err = runtime.ExecuteDist(ctx, opts, j.start, j.start+j.deadline)
	} else {
		opts := runtime.Options{
			Env: j.env, Prov: prov, Graph: w.g, Part: w.part,
			NewProgram: func() engine.Program {
				p, _ := j.prog.New() // the spec already built the reference
				return p
			},
			Manager:         &engine.CheckpointManager{Store: store, Job: namespace, Logf: discardf},
			TotalSupersteps: j.total, CheckpointEvery: 2, Canonical: true,
			Sink: sink, Logf: discardf,
		}
		out.rep, out.err = runtime.Execute(ctx, opts, j.start, j.start+j.deadline)
	}
	tr.end(root)
	out.valid = out.err == nil && out.rep.Finished && bitIdentical(out.rep.Values, j.ref)
	if js != nil {
		js.mu.Lock()
		out.gaps = js.gaps
		js.mu.Unlock()
	}
	return out
}

func bitIdentical(got, ref []float64) bool {
	if len(got) != len(ref) || len(ref) == 0 {
		return false
	}
	for i := range ref {
		if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
			return false
		}
	}
	return true
}

// round runs the job list once, in order, one job at a time.
func (w *jobWorkload) round(tr *tracer, acc *accum) {
	t0 := time.Now()
	for _, j := range w.jobs {
		out := w.runJob(j, tr)
		acc.addJob(j, out)
	}
	acc.endRound(time.Since(t0))
}

func (w *jobWorkload) close() {}

func (w *jobWorkload) lanes() int { return 1 }

func (w *jobWorkload) setupPhases() setupPhases { return w.phases }
