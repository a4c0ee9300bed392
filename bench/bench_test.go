package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	goruntime "runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// smokeSizes shrinks every workload and probe so the whole harness
// runs in seconds: scale-8 graphs, one set-up, one sample per probe.
func smokeSizes() sizes {
	return sizes{
		steadyScale: 8, evictScale: 8, setupTrials: 1, warmupLimit: 30 * time.Second,
		probeScale: 8, probeReps: 1, decideStates: 4, residentJobs: 20,
	}
}

func testSpec(t *testing.T) (string, benchSpec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, spec
}

func names(ms []metricSpec) []string {
	var out []string
	for _, m := range ms {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// checkUnits: the program and BENCHMARK.json must agree on every unit.
func checkUnits(t *testing.T, got map[string]metric, listed []metricSpec) {
	t.Helper()
	for _, ms := range listed {
		if got[ms.Name].Unit != ms.Unit {
			t.Errorf("%s: unit %q, BENCHMARK.json says %q", ms.Name, got[ms.Name].Unit, ms.Unit)
		}
	}
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestSmoke runs every workload for one measured round (one block of
// 40 operations for the controller) and checks that each reports
// exactly the end-to-end metrics BENCHMARK.json lists, none of them
// zero, with no failed operation.
func TestSmoke(t *testing.T) {
	root, spec := testSpec(t)
	var listed []string
	for _, w := range spec.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(listed, workloadNames) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the program runs %v", listed, workloadNames)
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runOne(name, 42, 0, false, smokeSizes(), root, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted == 0 || res.Failed != 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if got, want := keys(res.Metrics), names(spec.EndToEnd); !reflect.DeepEqual(got, want) {
				t.Fatalf("end-to-end metrics %v, BENCHMARK.json lists %v", got, want)
			}
			checkUnits(t, res.Metrics, spec.EndToEnd)
			for k, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
		})
	}
}

// TestTracedRun runs the traced mode of the workload with the most
// moving parts: it must report exactly the per-layer metrics
// BENCHMARK.json lists, attribute the jobs' wall time to layers
// without a remainder, and leave a readable trace file.
func TestTracedRun(t *testing.T) {
	root, spec := testSpec(t)
	out := t.TempDir()
	res, err := runOne("dist_evict", 42, 0, true, smokeSizes(), root, out)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d traced operations failed", res.Failed, res.Attempted)
	}
	if got, want := keys(res.Metrics), names(spec.PerLayer); !reflect.DeepEqual(got, want) {
		t.Fatalf("per-layer metrics differ from BENCHMARK.json:\n got %v\nwant %v", got, want)
	}
	checkUnits(t, res.Metrics, spec.PerLayer)
	var shares float64
	for _, layer := range []string{layerCloud, layerCore, layerEngine, layerDist, layerRuntime, layerScheduler} {
		shares += res.Metrics[layer+".wall_frac"].Value
	}
	if shares < 0.999 || shares > 1.001 {
		t.Errorf("layer shares sum to %v, want 1", shares)
	}
	if res.Metrics["dist.wall_frac"].Value < 0.5 || res.Metrics["engine.wall_frac"].Value != 0 {
		t.Errorf("dist_evict: dist owns %v and engine %v of the wall time", res.Metrics["dist.wall_frac"].Value, res.Metrics["engine.wall_frac"].Value)
	}
	if res.Metrics["runtime.evictions_per_job"].Value < 1 {
		t.Errorf("evictions per job = %v, every job loses a shard", res.Metrics["runtime.evictions_per_job"].Value)
	}
	data, err := os.ReadFile(filepath.Join(out, "trace-dist_evict-42.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		t.Fatal(err)
	}
	if len(tf.Spans) == 0 || tf.Header.GOMAXPROCS != benchProcs {
		t.Errorf("trace file: %d spans, GOMAXPROCS %d", len(tf.Spans), tf.Header.GOMAXPROCS)
	}
}

// exact is what must depend on the seed alone.
type exact struct {
	virtualS, normCost, msgs []float64
	missed                   int
}

func exactOf(t *testing.T, root string, seed int64) exact {
	t.Helper()
	w, err := newWorkload("dist_evict", seed, smokeSizes(), root)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.setup(0); err != nil {
		t.Fatal(err)
	}
	acc := measure(w, nil, 0)
	if acc.failed != 0 {
		t.Fatalf("seed %d: %d failed jobs", seed, acc.failed)
	}
	return exact{acc.roundVirtualS, acc.roundNormCost, acc.roundWork, acc.missed}
}

// TestSeedDeterminism: virtual time, cost, deadline verdicts and the
// message count of a round are identical across two runs of one seed.
// Another seed runs the same scenario in another order, so the
// per-round means agree but the job order does not.
func TestSeedDeterminism(t *testing.T) {
	root, _ := testSpec(t)
	a, b := exactOf(t, root, 7), exactOf(t, root, 7)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two runs of seed 7 disagree:\n%+v\n%+v", a, b)
	}
	order := func(seed int64) []string {
		w := &jobWorkload{name: "dist_evict", seed: seed, sz: smokeSizes(), root: root}
		sys, err := newSystem(root)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.buildJobs(sys); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, j := range w.jobs {
			out = append(out, j.name)
		}
		return out
	}
	if !reflect.DeepEqual(order(7), order(7)) || reflect.DeepEqual(order(7), order(8)) {
		t.Errorf("job order: seed 7 %v, seed 8 %v", order(7), order(8))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestAttributeInnermostLayerWins(t *testing.T) {
	spans := []span{
		{Layer: layerRuntime, Name: "runtime.Execute", Start: 0, End: 100, Parent: -1, Op: 0},
		{Layer: layerDist, Name: "dist.superstep", Start: 10, End: 60, Parent: 0, Op: 0},
		{Layer: layerCloud, Name: "cloud.BlobStore.Put", Start: 20, End: 40, Parent: 0, Op: 0},
		{Layer: layerCloud, Name: "cloud.BlobStore.Put", Start: 30, End: 50, Parent: 0, Op: 0},
	}
	byName, byLayer := attribute(spans)
	want := map[string]int64{layerRuntime: 50, layerDist: 20, layerCloud: 30}
	if !reflect.DeepEqual(byLayer, want) {
		t.Errorf("by layer %v, want %v", byLayer, want)
	}
	if byName["cloud.BlobStore.Put"] != 30 {
		t.Errorf("by name %v", byName)
	}
}

// TestCompareVerdicts feeds --compare two synthetic result files that
// hold one row of each verdict.
func TestCompareVerdicts(t *testing.T) {
	_, spec := testSpec(t)
	file := func(round, rss []float64) string {
		var f resultFile
		for i := range round {
			f.Runs = append(f.Runs, runResult{Workload: "inproc_steady", Metrics: map[string]metric{
				"setup_s":      {Value: 1 + 0.001*float64(i)},
				"round_wall_s": {Value: round[i]},
				"peak_rss_mb":  {Value: rss[i]},
			}})
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1, 1.01, 0.99, 1.005, 0.995}
	a := file(steady, steady)
	b := file([]float64{1.3, 1.31, 1.29, 1.3, 1.3}, []float64{1, 2, 3, 1, 3})
	var out bytes.Buffer
	if err := compareFiles(&out, spec, a, b); err != nil {
		t.Fatal(err)
	}
	for metric, verdict := range map[string]string{
		"setup_s": "within bound", "round_wall_s": "regressed", "peak_rss_mb": "unresolved",
	} {
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, metric) && strings.HasSuffix(strings.TrimSpace(line), verdict) {
				found = true
			}
		}
		if !found {
			t.Errorf("no %q row for %s in:\n%s", verdict, metric, out.String())
		}
	}
}

// TestMain pins the parallelism the way main does, so the harness is
// tested at the setting it measures at.
func TestMain(m *testing.M) {
	goruntime.GOMAXPROCS(benchProcs)
	os.Exit(m.Run())
}
