package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// processStart approximates process start: the first set-up trial is
// timed from here, so it includes runtime and package initialisation.
var processStart = time.Now()

// sizes fixes how large every workload and probe is. fullSizes is the
// frozen benchmark; the smoke test shrinks it.
type sizes struct {
	steadyScale  int           // RMAT scale of inproc_steady and dist_steady
	evictScale   int           // RMAT scale of dist_evict
	setupTrials  int           // set-ups per untraced run; setup_s is their median
	warmupLimit  time.Duration // hard limit of a warm-up operation
	probeScale   int           // RMAT scale of the direct engine and dist probes
	probeReps    int           // repetitions of each timed probe
	decideStates int           // seeded states per core.decide probe (graphcoloring: a quarter)
	residentJobs int           // jobs in the table for the scheduler read probes
}

func fullSizes() sizes {
	return sizes{
		steadyScale: 14, evictScale: 12, setupTrials: 5,
		warmupLimit: 60 * time.Second,
		probeScale:  14, probeReps: 2, decideStates: 32, residentJobs: 300,
	}
}

var workloadNames = []string{"inproc_steady", "dist_steady", "dist_evict", "controller_mix"}

// workload is one benchmark workload: setup builds its inputs and runs
// the warm-up round, round runs one measured pass over its operations.
type workload interface {
	setup(trial int) error
	round(tr *tracer, acc *accum)
	setupPhases() setupPhases
	lanes() int // operations in flight at once: 1 job, or the controller's clients
	close()
}

func newWorkload(name string, seed int64, sz sizes, root string) (workload, error) {
	switch name {
	case "inproc_steady", "dist_steady", "dist_evict":
		return &jobWorkload{name: name, seed: seed, sz: sz, root: root}, nil
	case "controller_mix":
		return &mixWorkload{seed: seed, sz: sz, root: root}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// accum collects what the rounds of one phase observed.
type accum struct {
	roundWalls []time.Duration
	roundWork  []float64       // work done in each round
	opWalls    []time.Duration // headline operations: PageRank jobs, or POST /jobs
	readWalls  []time.Duration // controller GETs
	work       int64           // vertex messages sent, or HTTP operations completed
	attempted  int
	failed     int
	abandoned  int

	// Graph jobs.
	jobs                                            int
	virtualS, normCost                              []float64 // per valid job
	roundVirtualS, roundNormCost                    []float64 // per round: mean over its valid jobs
	roundFrom                                       int       // first entry of virtualS of the round in progress
	workFrom                                        int64     // acc.work when the round in progress began
	missed                                          int
	evictions, cutovers, standbyMisses, checkpoints int
	decisions                                       int
	recoveryS, ioS                                  float64

	// Traced graph jobs.
	store               storeCounters
	gapsWarm, gapsReact []time.Duration

	// Controller.
	posts, admitted, queued, rejected int
}

func (a *accum) addJob(j *job, out outcome) {
	a.attempted++
	a.jobs++
	if j.headline {
		a.opWalls = append(a.opWalls, out.wall)
	}
	if out.abandoned {
		a.abandoned++
	}
	if !out.valid {
		a.failed++
		return
	}
	rep := out.rep
	a.work += rep.Stats.MessagesSent
	a.virtualS = append(a.virtualS, float64(rep.Completion-j.start))
	a.normCost = append(a.normCost, ratio(float64(rep.Cost), float64(j.baseline)))
	if rep.MissedDeadline {
		a.missed++
	}
	a.evictions += rep.Evictions
	a.cutovers += rep.WarmCutovers
	a.standbyMisses += rep.StandbyMisses
	a.checkpoints += rep.Checkpoints
	a.decisions += rep.Decisions
	a.recoveryS += float64(rep.RecoveryTime)
	a.ioS += float64(rep.IOTime)
	if out.store != nil {
		a.store.add(out.store)
		if j.warm {
			a.gapsWarm = append(a.gapsWarm, out.gaps...)
		} else {
			a.gapsReact = append(a.gapsReact, out.gaps...)
		}
	}
}

// endRound closes a round of graph jobs. The per-round means are what
// the seed-exact metrics report: every round runs the same jobs in the
// same order, so they are identical across rounds and across runs of
// one seed, however many rounds a run fits.
func (a *accum) endRound(wall time.Duration) {
	a.roundWalls = append(a.roundWalls, wall)
	a.roundWork = append(a.roundWork, float64(a.work-a.workFrom))
	a.roundVirtualS = append(a.roundVirtualS, mean(a.virtualS[a.roundFrom:]))
	a.roundNormCost = append(a.roundNormCost, mean(a.normCost[a.roundFrom:]))
	a.roundFrom, a.workFrom = len(a.virtualS), a.work
}

func (a *accum) totalWall() time.Duration {
	var sum time.Duration
	for _, d := range a.roundWalls {
		sum += d
	}
	return sum
}

// measure runs rounds until the phase has lasted the given time (at
// least one round).
func measure(w workload, tr *tracer, seconds float64) *accum {
	acc := &accum{}
	t0 := time.Now()
	for {
		w.round(tr, acc)
		if time.Since(t0).Seconds() >= seconds {
			return acc
		}
	}
}

// metric is one reported number. Samples is how many observations the
// value summarises (0 for a plain count or ratio).
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// runResult is the outcome of one run of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Traced    bool              `json:"traced"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	WallS     float64           `json:"wall_s"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOne is the whole of one run: set-up, the measured phase, and for
// a traced run the traced phase and the direct layer probes. A traced
// run leaves its spans and metrics in outDir.
func runOne(name string, seed int64, seconds float64, traced bool, sz sizes, root, outDir string) (runResult, error) {
	res := runResult{Workload: name, Seed: seed, Traced: traced}
	trials := sz.setupTrials
	if traced {
		trials = 1
	}
	var w workload
	var setups []float64
	for trial := 0; trial < trials; trial++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		if trial == 0 && !traced {
			t0 = processStart
		}
		var err error
		if w, err = newWorkload(name, seed, sz, root); err != nil {
			return res, err
		}
		if err := w.setup(trial); err != nil {
			w.close()
			return res, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer w.close()

	if !traced {
		acc := measure(w, nil, seconds)
		res.Metrics = endToEnd(acc, setups)
		res.Attempted, res.Failed = acc.attempted, acc.failed
	} else {
		// Per-layer numbers come from a traced phase; the same process
		// runs an untraced phase first so the two differ only by tracing.
		plain := measure(w, nil, seconds/3)
		tr := newTracer()
		acc := measure(w, tr, seconds/3)
		spans := tr.snapshot()
		res.Metrics = perLayer(w, plain, acc, spans)
		if err := runProbes(res.Metrics, seed, sz, root); err != nil {
			return res, err
		}
		res.Attempted, res.Failed = acc.attempted, acc.failed
		if err := writeTrace(root, outDir, name, seed, spans, res.Metrics); err != nil {
			return res, err
		}
	}
	res.Correct = res.Failed == 0
	res.WallS = time.Since(processStart).Seconds()
	return res, nil
}

// endToEnd derives the user-visible metrics of an untraced phase.
func endToEnd(acc *accum, setups []float64) map[string]metric {
	rounds := secondsAll(acc.roundWalls)
	perSecond := make([]float64, len(rounds))
	for i, wall := range rounds {
		perSecond[i] = acc.roundWork[i] / wall
	}
	ops := msAll(acc.opWalls)
	return map[string]metric{
		"setup_s":      {median(setups), "s", len(setups)},
		"round_wall_s": {median(rounds), "s", len(rounds)},
		"work_per_s":   {median(perSecond), "1/s", len(perSecond)},
		"op_p50_ms":    {median(ops), "ms", len(ops)},
		"peak_rss_mb":  {peakRSSMB(), "MB", 0},
	}
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(fields[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// perLayer derives the workload-scoped per-layer metrics of a traced
// phase: what each layer did for this workload's operations, and how
// the operations' wall time splits among layers.
func perLayer(w workload, plain, acc *accum, spans []span) map[string]metric {
	m := map[string]metric{}
	ph := w.setupPhases()
	rounds := float64(len(acc.roundWalls))
	jobs := float64(acc.jobs)
	count := func(v float64) metric { return metric{v, "count", 0} }
	frac := func(v float64) metric { return metric{v, "frac", 0} }

	// Set-up, by the layer that did the work.
	m["cloud.system_build_ms"] = metric{ms(ph.system), "ms", 1}
	m["graph.build_ms"] = metric{ms(ph.graph), "ms", 1}
	m["micro.build_ms"] = metric{ms(ph.micro), "ms", 1}
	m["engine.setup_refs_ms"] = metric{ms(ph.refs), "ms", 1}
	m["runtime.setup_warmup_ms"] = metric{ms(ph.warmup), "ms", 1}

	// cloud: checkpoint traffic per round.
	m["cloud.store_put_ms"] = metric{ratio(float64(acc.store.putNs)/1e6, rounds), "ms", len(acc.roundWalls)}
	m["cloud.store_get_ms"] = metric{ratio(float64(acc.store.getNs)/1e6, rounds), "ms", len(acc.roundWalls)}
	m["cloud.store_put_bytes"] = count(ratio(float64(acc.store.putBytes), rounds))
	m["cloud.store_get_bytes"] = count(ratio(float64(acc.store.getBytes), rounds))
	m["cloud.store_ops"] = count(ratio(float64(acc.store.ops), rounds))

	// Wall-time attribution: every instant of an operation belongs to
	// the innermost layer with an open span; the rest of the measured
	// wall of every lane (validation and bookkeeping between operations,
	// a controller client waiting for the other to end the round) is the
	// residual.
	byName, by := attribute(spans)
	var attributed int64
	for _, ns := range by {
		attributed += ns
	}
	for _, layer := range []string{layerCloud, layerCore, layerEngine, layerDist, layerRuntime, layerScheduler} {
		m[layer+".wall_frac"] = frac(ratio(float64(by[layer]), float64(attributed)))
	}
	// dist's share, split three ways: a steady run spends it in
	// supersteps and checkpoints, a recovering one in session starts.
	for _, part := range []string{"superstep", "session_start", "checkpoint"} {
		m["dist."+part+"_wall_frac"] = frac(ratio(float64(byName["dist."+part]), float64(attributed)))
	}
	m["runtime.residual_frac"] = frac(1 - ratio(float64(attributed), float64(w.lanes())*float64(acc.totalWall())))
	m["runtime.driver_self_ms"] = metric{ratio(float64(by[layerRuntime])/1e6, jobs), "ms", acc.jobs}

	// runtime: the virtual-time and recovery story of the jobs. These
	// depend only on the seed, never on the machine.
	m["runtime.virtual_s"] = metric{median(acc.roundVirtualS), "s", len(acc.virtualS)}
	m["runtime.norm_cost"] = metric{median(acc.roundNormCost), "ratio", len(acc.normCost)}
	m["runtime.deadline_miss_frac"] = frac(ratio(float64(acc.missed), jobs))
	m["runtime.work_per_round"] = count(median(acc.roundWork))
	m["runtime.evictions_per_job"] = count(ratio(float64(acc.evictions), jobs))
	m["runtime.warm_cutovers_per_job"] = count(ratio(float64(acc.cutovers), jobs))
	m["runtime.standby_misses_per_job"] = count(ratio(float64(acc.standbyMisses), jobs))
	m["runtime.checkpoints_per_job"] = count(ratio(float64(acc.checkpoints), jobs))
	m["runtime.recovery_virtual_s"] = metric{ratio(acc.recoveryS, jobs), "s", acc.jobs}
	m["runtime.io_virtual_s"] = metric{ratio(acc.ioS, jobs), "s", acc.jobs}
	m["runtime.recover_gap_ms.warm"] = metric{median(msAll(acc.gapsWarm)), "ms", len(acc.gapsWarm)}
	m["runtime.recover_gap_ms.reactive"] = metric{median(msAll(acc.gapsReact)), "ms", len(acc.gapsReact)}
	m["core.decisions_per_job"] = count(ratio(float64(acc.decisions), jobs))

	// Failures of the traced phase, by kind.
	m["runtime.failed_frac"] = frac(ratio(float64(acc.failed), float64(acc.attempted)))
	m["runtime.abandoned_ops"] = count(float64(acc.abandoned))

	// admission / scheduler: what the controller did with the mix.
	posts := float64(acc.posts)
	m["admission.admit_frac"] = frac(ratio(float64(acc.admitted), posts))
	m["admission.queued_frac"] = frac(ratio(float64(acc.queued), posts))
	m["admission.reject_frac"] = frac(ratio(float64(acc.rejected), posts))
	m["scheduler.read_p50_ms"] = metric{median(msAll(acc.readWalls)), "ms", len(acc.readWalls)}
	var postMs []float64 // opWalls are POSTs only where there were POSTs
	if acc.posts > 0 {
		postMs = msAll(acc.opWalls)
	}
	m["scheduler.submit_p50_ms"] = metric{quantile(postMs, 0.5), "ms", len(postMs)}
	m["scheduler.submit_p90_ms"] = metric{quantile(postMs, 0.9), "ms", len(postMs)}

	// obs: what tracing costs this workload, from the two phases of
	// this process.
	m["obs.tracing_overhead_frac"] = frac(
		ratio(median(secondsAll(acc.roundWalls)), median(secondsAll(plain.roundWalls))) - 1)
	return m
}

// traceFile is what a traced run leaves in bench/out/.
type traceFile struct {
	Header  header            `json:"header"`
	Metrics map[string]metric `json:"metrics"`
	Spans   []span            `json:"spans"`
}

func writeTrace(root, dir, name string, seed int64, spans []span, metrics map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("bench: trace directory: %w", err)
	}
	data, err := json.Marshal(traceFile{Header: newHeader(root, seed), Metrics: metrics, Spans: spans})
	if err != nil {
		return fmt.Errorf("bench: encoding trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-%d.json", name, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing trace: %w", err)
	}
	return nil
}
