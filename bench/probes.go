package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	goruntime "runtime"
	"sync"
	"time"

	"hourglass"
	"hourglass/internal/admission"
	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/dist"
	"hourglass/internal/engine"
	"hourglass/internal/micro"
	"hourglass/internal/obs"
	"hourglass/internal/partition"
	"hourglass/internal/scheduler"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// The direct layer probes: each calls one layer's public functions
// with seeded inputs and nothing else running, so a per-layer number
// does not depend on which workload the traced run belongs to. Every
// traced run repeats all of them.

// timeMs runs f reps times and returns the median wall milliseconds.
func timeMs(reps int, f func() error) (float64, error) {
	var walls []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		walls = append(walls, ms(time.Since(t0)))
	}
	return median(walls), nil
}

func runProbes(m map[string]metric, seed int64, sz sizes, root string) error {
	sys, err := newSystem(root)
	if err != nil {
		return err
	}
	gspec := dist.GraphSpec{Scale: sz.probeScale, Seed: datasetSeed + 7, Undirected: true, Weighted: true}
	if _, err := gspec.Build(); err != nil {
		return err
	}
	for _, probe := range []func() error{
		func() error { return probeMicro(m, gspec, sz) },
		func() error { return probeCore(m, sys, seed, sz) },
		func() error { return probeEngine(m, gspec, sz) },
		func() error { return probeDist(m, gspec, sz) },
		func() error { return probeAdmission(m, sys, seed, sz) },
		func() error { return probeScheduler(m, sys, seed, sz) },
	} {
		if err := probe(); err != nil {
			return err
		}
	}
	m["dist.over_engine_ratio.pagerank"] = metric{
		ratio(m["dist.superstep_ms.pagerank.s4"].Value, m["engine.superstep_ms.pagerank_canonical.w4"].Value), "ratio", 0}
	return nil
}

// probeMicro times re-clustering the micro-partitions for each worker
// count and compares the clustered edge cut with plain hashing — the
// cut dist would ship over the wire if it took assignments from micro.
func probeMicro(m map[string]metric, gspec dist.GraphSpec, sz sizes) error {
	g, err := gspec.Build()
	if err != nil {
		return err
	}
	part, err := micro.BuildForConfigs(g, partition.Hash{}, workerCounts, partition.Multilevel{Seed: 1})
	if err != nil {
		return err
	}
	for _, k := range workerCounts {
		var va partition.Partitioning
		v, err := timeMs(3*sz.probeReps, func() (err error) {
			va, err = part.VertexAssignment(k)
			return err
		})
		if err != nil {
			return err
		}
		m[fmt.Sprintf("micro.assign_ms.k%d", k)] = metric{v, "ms", 3 * sz.probeReps}
		if k == 4 {
			m["micro.edgecut_frac.k4"] = metric{partition.EdgeCutFraction(g, va.Assign), "frac", 0}
			m["partition.hash_edgecut_frac.k4"] = metric{
				partition.EdgeCutFraction(g, partition.Hash{}.Partition(g, k).Assign), "frac", 0}
		}
	}
	return nil
}

var jobKinds = []hourglass.JobKind{hourglass.SSSP, hourglass.PageRank, hourglass.GC}

// kindReps is how many samples a per-kind probe takes: a graphcoloring
// decision costs four orders of magnitude more than an SSSP one, so it
// gets a quarter of the samples.
func kindReps(k hourglass.JobKind, n int) int {
	if k == hourglass.GC {
		return max(n/4, 1)
	}
	return n
}

// decisionPoint draws a fresh-start state on the trace for the job.
func decisionPoint(sys *hourglass.System, k hourglass.JobKind, rng *rand.Rand, slack float64) (start, deadline units.Seconds, err error) {
	if deadline, err = sys.DeadlineFor(k, slack); err != nil {
		return 0, 0, err
	}
	horizon, err := sys.Horizon(k)
	if err != nil {
		return 0, 0, err
	}
	return units.Seconds(rng.Float64() * float64(horizon-deadline)), deadline, nil
}

// probeCore times one slack-aware decision per job kind: a fresh
// provisioner consulted at seeded start offsets with slack 0.5.
func probeCore(m map[string]metric, sys *hourglass.System, seed int64, sz sizes) error {
	rng := rand.New(rand.NewSource(seed ^ 0x636f7265)) // "core"
	for _, k := range jobKinds {
		env, err := sys.Env(k)
		if err != nil {
			return err
		}
		n := kindReps(k, sz.decideStates)
		v, err := timeMs(n, func() error {
			start, deadline, err := decisionPoint(sys, k, rng, 0.5)
			if err != nil {
				return err
			}
			st := core.State{Now: start, WorkLeft: 1, Deadline: start + deadline}
			_, _, err = sim.Decide(env, core.NewSlackAware(env), st, nil)
			return err
		})
		if err != nil {
			return err
		}
		m["core.decide_ms."+string(k)] = metric{v, "ms", n}
	}
	return nil
}

// uncombined hides a program's Combine method, forcing the engine's
// pooled-arena message path instead of the combiner slots. Embedding
// the interface hides every optional method, so the aggregator
// registration PageRank needs is passed through by hand.
type uncombined struct{ engine.Program }

func (u *uncombined) Aggregators() []engine.AggregatorSpec {
	if a, ok := u.Program.(engine.Aggregators); ok {
		return a.Aggregators()
	}
	return nil
}

// memDelta runs f and returns the mallocs and bytes it allocated.
func memDelta(f func() error) (mallocs, bytes uint64, err error) {
	var a, b goruntime.MemStats
	goruntime.ReadMemStats(&a)
	err = f()
	goruntime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, err
}

// probeEngine runs the in-process engine directly. The plain variants
// match BENCH_ENGINE.json (combiners on); pagerank_canonical.w4 is
// what inproc_steady's on-demand deployment actually runs.
func probeEngine(m map[string]metric, gspec dist.GraphSpec, sz sizes) error {
	g, err := gspec.Build()
	if err != nil {
		return err
	}
	pagerank := func() engine.Program { return &engine.PageRank{Iterations: 10} }
	cases := []struct {
		name    string
		mk      func() engine.Program
		workers int
		canon   bool
	}{
		{"pagerank.w1", pagerank, 1, false},
		{"pagerank.w2", pagerank, 2, false},
		{"pagerank.w4", pagerank, 4, false},
		{"pagerank_nocombine.w4", func() engine.Program { return &uncombined{pagerank()} }, 4, false},
		{"pagerank_canonical.w4", pagerank, 4, true},
		{"sssp.w4", func() engine.Program { return &engine.SSSP{Source: 0} }, 4, false},
		{"wcc.w4", func() engine.Program { return engine.WCC{} }, 4, false},
	}
	for _, c := range cases {
		var res engine.Result
		var mallocs, allocBytes uint64
		v, err := timeMs(sz.probeReps, func() (err error) {
			mallocs, allocBytes, err = memDelta(func() (err error) {
				res, err = engine.Run(g, c.mk(), engine.Config{Workers: c.workers, Canonical: c.canon})
				return err
			})
			return err
		})
		if err != nil {
			return fmt.Errorf("bench: engine probe %s: %w", c.name, err)
		}
		steps := float64(res.Stats.Supersteps)
		m["engine.superstep_ms."+c.name] = metric{v / steps, "ms", sz.probeReps}
		if c.name == "pagerank.w4" {
			m["engine.msgs_per_s.pagerank.w4"] = metric{ratio(float64(res.Stats.MessagesSent), v/1e3), "1/s", sz.probeReps}
			m["engine.allocs_per_superstep.w4"] = metric{float64(mallocs) / steps, "count", 0}
			m["engine.alloc_kb_per_superstep.w4"] = metric{float64(allocBytes) / 1024 / steps, "KB", 0}
		}
	}
	m["engine.speedup_w2_over_w1.pagerank"] = metric{
		ratio(m["engine.superstep_ms.pagerank.w1"].Value, m["engine.superstep_ms.pagerank.w2"].Value), "ratio", 0}

	// The engine's own checkpoint plane: save and reload a mid-run
	// PageRank snapshot.
	res, err := engine.Run(g, pagerank(), engine.Config{Workers: 2, Canonical: true, StopAfter: 5})
	if !errors.Is(err, engine.ErrPaused) {
		return fmt.Errorf("bench: engine checkpoint probe did not pause: %v", err)
	}
	mgr := &engine.CheckpointManager{Store: cloud.NewDatastore(), Job: "probe/ckpt", Logf: discardf}
	save, err := timeMs(3*sz.probeReps, func() error { _, err := mgr.Save(res.Snapshot); return err })
	if err != nil {
		return err
	}
	load, err := timeMs(3*sz.probeReps, func() error { _, _, err := mgr.Load(); return err })
	if err != nil {
		return err
	}
	m["engine.ckpt_save_ms"] = metric{save, "ms", 3 * sz.probeReps}
	m["engine.ckpt_load_ms"] = metric{load, "ms", 3 * sz.probeReps}
	m["engine.ckpt_bytes"] = metric{float64(res.Snapshot.SizeBytes()), "B", 0}
	return nil
}

// ckptSizes collects the sealed size of every checkpoint of a session.
type ckptSizes struct {
	mu          sync.Mutex
	full, delta []float64
}

func (s *ckptSizes) Emit(e obs.Event) {
	if e.Type != obs.EvCheckpoint {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if e.Chain == 0 {
		s.full = append(s.full, float64(e.WireBytes))
	} else {
		s.delta = append(s.delta, float64(e.WireBytes))
	}
}

// probeDist runs whole loopback clusters directly (dist.RunCluster),
// always canonical, as ExecuteDist runs them.
func probeDist(m map[string]metric, gspec dist.GraphSpec, sz sizes) error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cluster := func(prog dist.ProgramSpec, g dist.GraphSpec, shards, every, chain int, sink obs.Sink) (*dist.Report, error) {
		return dist.RunCluster(ctx, dist.Config{
			Job: "probe/" + prog.Name, Program: prog, Graph: g, Canonical: true,
			CheckpointEvery: every, DeltaChain: chain, Store: cloud.NewDatastore(), Sink: sink,
		}, shards, nil)
	}
	pagerank := dist.ProgramSpec{Name: "pagerank", Iterations: 10}
	cases := []struct {
		name   string
		prog   dist.ProgramSpec
		shards int
	}{
		{"pagerank.s2", pagerank, 2},
		{"pagerank.s4", pagerank, 4},
		{"sssp.s4", dist.ProgramSpec{Name: "sssp", Source: 0}, 4},
		{"wcc.s4", dist.ProgramSpec{Name: "wcc"}, 4},
	}
	var plainWall float64
	for _, c := range cases {
		var rep *dist.Report
		var mallocs, allocBytes uint64
		v, err := timeMs(sz.probeReps, func() (err error) {
			mallocs, allocBytes, err = memDelta(func() (err error) {
				rep, err = cluster(c.prog, gspec, c.shards, 0, 0, nil)
				return err
			})
			return err
		})
		if err != nil {
			return fmt.Errorf("bench: dist probe %s: %w", c.name, err)
		}
		steps := float64(rep.Stats.Supersteps)
		m["dist.superstep_ms."+c.name] = metric{v / steps, "ms", sz.probeReps}
		if c.name == "pagerank.s4" {
			plainWall = v
			m["dist.wirebytes_per_superstep.pagerank.s4"] = metric{float64(rep.WireBytes) / steps, "B", 0}
			m["dist.frames_per_superstep.pagerank.s4"] = metric{float64(rep.WireFrames) / steps, "count", 0}
			m["dist.allocs_per_superstep.s4"] = metric{float64(mallocs) / steps, "count", 0}
			m["dist.alloc_kb_per_superstep.s4"] = metric{float64(allocBytes) / 1024 / steps, "KB", 0}
		}
	}

	// Checkpointing every superstep against never.
	ckptWall, err := timeMs(sz.probeReps, func() error {
		_, err := cluster(pagerank, gspec, 4, 1, 0, nil)
		return err
	})
	if err != nil {
		return err
	}
	m["dist.ckpt_overhead_frac.pagerank"] = metric{ratio(ckptWall, plainWall) - 1, "frac", sz.probeReps}

	// WCC converges, so its deltas should stay well under its fulls.
	sizes := &ckptSizes{}
	if _, err := cluster(dist.ProgramSpec{Name: "wcc"}, gspec, 4, 1, 8, sizes); err != nil {
		return err
	}
	m["dist.ckpt_full_bytes.wcc"] = metric{median(sizes.full), "B", len(sizes.full)}
	m["dist.ckpt_delta_bytes.wcc"] = metric{median(sizes.delta), "B", len(sizes.delta)}

	// A session with next to no work: handshake, mesh dial, teardown.
	tiny := dist.GraphSpec{Scale: 4, Seed: gspec.Seed, Undirected: true, Weighted: true}
	if _, err := tiny.Build(); err != nil {
		return err
	}
	session, err := timeMs(5*sz.probeReps, func() error {
		_, err := cluster(dist.ProgramSpec{Name: "wcc"}, tiny, 4, 0, 0, nil)
		return err
	})
	if err != nil {
		return err
	}
	m["dist.session_overhead_ms"] = metric{session, "ms", 5 * sz.probeReps}
	return nil
}

// probeSpec is a seeded submission of one kind, with slack drawn from
// the range controller_mix uses so the probes price what the mix
// prices.
func probeSpec(k hourglass.JobKind, rng *rand.Rand, id string) scheduler.JobSpec {
	return scheduler.JobSpec{
		ID: id, Kind: k, Strategy: hourglass.StrategyHourglass,
		Slack:  mixSlackLo + (mixSlackHi-mixSlackLo)*rng.Float64(),
		Period: scheduler.Duration(time.Hour), Tenant: "probe",
	}
}

// probeAdmission separates pricing from packing: Estimate is the
// market consultation of one submission, Gate.Submit/Release the pack
// and queue work on estimates that are already priced.
func probeAdmission(m map[string]metric, sys *hourglass.System, seed int64, sz sizes) error {
	rng := rand.New(rand.NewSource(seed ^ 0x61646d)) // "adm"
	backend := scheduler.SystemBackend{Sys: sys}
	var priced []admission.Estimate
	for _, k := range jobKinds {
		n := kindReps(k, sz.decideStates)
		v, err := timeMs(n, func() error {
			spec := probeSpec(k, rng, "")
			start, deadline, err := decisionPoint(sys, k, rng, spec.Slack)
			if err != nil {
				return err
			}
			est, err := backend.Estimate(spec, deadline, start)
			priced = append(priced, est)
			return err
		})
		if err != nil {
			return err
		}
		m["admission.estimate_ms."+string(k)] = metric{v, "ms", n}
	}

	gate := admission.NewGate(admission.Config{MaxDeployments: 8, QueueDepth: 64}, obs.NewRegistry(), nil)
	now := mixEpoch
	var submit, release []float64
	for i, est := range priced {
		id := fmt.Sprintf("probe-%d", i)
		t0 := time.Now()
		_, err := gate.Submit(admission.Request{JobID: id, Tenant: "probe", Est: est, Now: now})
		submit = append(submit, float64(time.Since(t0))/1e3)
		if err != nil && !errors.Is(err, admission.ErrQueueFull) {
			return err
		}
	}
	for i := range priced {
		t0 := time.Now()
		gate.Release(fmt.Sprintf("probe-%d", i), now)
		release = append(release, float64(time.Since(t0))/1e3)
	}
	m["admission.gate_submit_us"] = metric{median(submit), "us", len(submit)}
	m["admission.gate_release_us"] = metric{median(release), "us", len(release)}
	return nil
}

// probeScheduler times the controller without the mix around it:
// Submit in process per kind, the same submission over HTTP (the
// difference is what the HTTP layer costs), and the read and snapshot
// paths over a table of resident jobs.
func probeScheduler(m map[string]metric, sys *hourglass.System, seed int64, sz sizes) error {
	rng := rand.New(rand.NewSource(seed ^ 0x7363686564)) // "sched"
	shutdown := func(c *scheduler.Controller) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = c.Shutdown(ctx) // the snapshot it writes is not read back
	}
	backend := mixBackend{scheduler.SystemBackend{Sys: sys}, &mixWorkload{}}

	// Submit path, gated as in controller_mix. Each submission is
	// deleted again so the pool never fills and every sample is an
	// admission.
	gated, err := scheduler.New(scheduler.Options{
		Backend: backend, Clock: scheduler.NewVirtualClock(mixEpoch), Seed: seed,
		Admission: &admission.Config{MaxDeployments: 8, QueueDepth: 64},
	})
	if err != nil {
		return err
	}
	defer shutdown(gated)
	for _, k := range jobKinds {
		n := kindReps(k, sz.decideStates)
		i := 0
		v, err := timeMs(n, func() error {
			i++
			st, err := gated.Submit(probeSpec(k, rng, fmt.Sprintf("inproc-%s-%d", k, i)))
			if err == nil {
				gated.Delete(st.Spec.ID)
			}
			return err
		})
		if err != nil {
			return err
		}
		m["scheduler.submit_ms."+string(k)] = metric{v, "ms", n}
	}
	srv := httptest.NewServer(gated.Handler())
	defer srv.Close()
	i := 0
	viaHTTP, err := timeMs(sz.decideStates, func() error {
		i++
		spec := probeSpec(hourglass.PageRank, rng, fmt.Sprintf("http-%d", i))
		body, err := json.Marshal(spec)
		if err != nil {
			return err
		}
		resp, err := http.Post(srv.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusCreated {
			err = fmt.Errorf("bench: probe POST answered %d", resp.StatusCode)
		}
		gated.Delete(spec.ID)
		return err
	})
	if err != nil {
		return err
	}
	m["scheduler.http_overhead_ms"] = metric{viaHTTP - m["scheduler.submit_ms.pagerank"].Value, "ms", sz.decideStates}

	// Read and snapshot paths over resident jobs that have each run
	// once, so the per-job metric series exist.
	store := cloud.NewDatastore()
	clock := scheduler.NewVirtualClock(mixEpoch)
	table, err := scheduler.New(scheduler.Options{Backend: backend, Clock: clock, Seed: seed, Store: store})
	if err != nil {
		return err
	}
	defer shutdown(table)
	for i := 0; i < sz.residentJobs; i++ {
		spec := probeSpec(hourglass.SSSP, rng, fmt.Sprintf("resident-%d", i))
		spec.Runs = 1
		if _, err := table.Submit(spec); err != nil {
			return err
		}
	}
	for t0 := time.Now(); table.Metrics().Value(scheduler.MetricRunsFinished) < float64(sz.residentJobs); {
		if time.Since(t0) > 10*time.Second {
			return fmt.Errorf("bench: resident jobs did not all run within 10 s")
		}
		time.Sleep(time.Millisecond)
	}
	reps := 3 * sz.probeReps
	if m["scheduler.list_ms"], err = timed(reps, func() error { table.List(); return nil }); err != nil {
		return err
	}
	if m["scheduler.metrics_render_ms"], err = timed(reps, func() error {
		_, err := table.Metrics().WriteTo(io.Discard)
		return err
	}); err != nil {
		return err
	}
	if m["scheduler.snapshot_ms"], err = timed(reps, table.Snapshot); err != nil {
		return err
	}
	m["scheduler.snapshot_bytes"] = metric{float64(store.TotalBytes()), "B", 0}
	i = 0
	if m["scheduler.delete_ms"], err = timed(min(32, sz.residentJobs), func() error {
		i++
		if !table.Delete(fmt.Sprintf("resident-%d", i-1)) {
			return fmt.Errorf("bench: resident-%d was not in the table", i-1)
		}
		return nil
	}); err != nil {
		return err
	}
	return nil
}

func timed(reps int, f func() error) (metric, error) {
	v, err := timeMs(reps, f)
	return metric{v, "ms", reps}, err
}
