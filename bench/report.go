package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

// benchSpec is BENCHMARK.json: the one place metric names, units,
// directions, bounds and workload reasons are written down. The
// program reads it rather than repeating it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(root string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return spec, fmt.Errorf("bench: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("bench: BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// header records where and on what a set of numbers was measured.
type header struct {
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	Commit     string         `json:"git_commit"`
	Seed       int64          `json:"seed"`
	Sizes      map[string]int `json:"workload_sizes"`
	When       string         `json:"when"`
}

func newHeader(root string, seed int64) header {
	sz := fullSizes()
	return header{
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(root),
		Seed:       seed,
		Sizes: map[string]int{
			"steady_rmat_scale": sz.steadyScale, "evict_rmat_scale": sz.evictScale,
			"steady_jobs_per_round": 3, "evict_jobs_per_round": 8,
			"mix_ops_per_round": mixBlockOps, "mix_clients": mixClients,
			"setup_trials":     sz.setupTrials,
			"probe_rmat_scale": sz.probeScale,
		},
		When: time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, value, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// gitCommit reads the checked-out commit without running git; the
// acceptance driver's checkouts are not repositories, hence "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(filepath.Join(root, ".git", name))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(data))
	}
	return ref
}

// printRun prints every metric of a run by name with its unit and
// sample count, then — as the last line — the one JSON object the
// acceptance driver reads, holding exactly the metrics BENCHMARK.json
// lists for this kind of run.
func printRun(w io.Writer, spec benchSpec, res runResult) {
	listed := spec.EndToEnd
	kind := "end-to-end (untraced)"
	if res.Traced {
		listed, kind = spec.PerLayer, "per-layer (traced)"
	}
	fmt.Fprintf(w, "# %s seed=%d %s: nproc=%d GOMAXPROCS=%d %s, %d attempted, %d failed, %.1f s wall\n",
		res.Workload, res.Seed, kind, goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(),
		res.Attempted, res.Failed, res.WallS)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples")
	final := map[string]metric{}
	for _, ms := range listed {
		m := res.Metrics[ms.Name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%d\n", ms.Name, m.Value, ms.Unit, m.Samples)
		final[ms.Name] = metric{Value: m.Value, Unit: ms.Unit} // value and unit only: the driver's shape
	}
	tw.Flush()
	line, _ := json.Marshal(map[string]any{ // numbers, strings and bools always encode
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": final,
	})
	fmt.Fprintf(w, "%s\n", line)
}

// resultFile is what --repeat writes and --compare reads.
type resultFile struct {
	Header header      `json:"header"`
	Runs   []runResult `json:"runs"`
}

// repeatRuns runs each workload n times untraced and once traced. Every
// run is its own process, so peak_rss_mb and setup_s mean what they
// mean under the acceptance driver; each child is waited for before the
// next starts.
func repeatRuns(stdout, stderr io.Writer, spec benchSpec, root string, names []string, seed int64, seconds float64, n int, varySeed bool, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("bench: locating the benchmark binary: %w", err)
	}
	file := resultFile{Header: newHeader(root, seed)}
	for _, name := range names {
		for i := 0; i <= n; i++ {
			traced := i == n
			runSeed := seed
			if varySeed && !traced {
				runSeed += int64(i)
			}
			res, err := runChild(exe, root, name, runSeed, seconds, traced)
			if err != nil {
				return err
			}
			file.Runs = append(file.Runs, res)
			fmt.Fprintf(stderr, "%s run %d/%d (seed %d, traced=%v): %.1f s, %d attempted, %d failed\n",
				name, i+1, n+1, runSeed, traced, res.WallS, res.Attempted, res.Failed)
		}
	}
	if out == "" {
		out = filepath.Join(root, "bench", "out", fmt.Sprintf("result-%d.json", seed))
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return fmt.Errorf("bench: result directory: %w", err)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fmt.Errorf("bench: encoding results: %w", err)
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return fmt.Errorf("bench: writing results: %w", err)
	}
	printSummary(stdout, spec, file)
	fmt.Fprintf(stdout, "results written to %s\n", out)
	return nil
}

// runChild runs one workload once in a child process and parses the
// last line of its output.
func runChild(exe, root, name string, seed int64, seconds float64, traced bool) (runResult, error) {
	res := runResult{Workload: name, Seed: seed, Traced: traced}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", trace)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return res, fmt.Errorf("bench: %s run failed: %w\n%s", name, err, stderr.String())
	}
	res.WallS = time.Since(t0).Seconds()
	var last string
	for sc := bufio.NewScanner(&stdout); sc.Scan(); {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var parsed struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &parsed); err != nil {
		return res, fmt.Errorf("bench: %s run printed no result line: %w", name, err)
	}
	res.Correct, res.Attempted, res.Failed, res.Metrics = parsed.Correct, parsed.Attempted, parsed.Failed, parsed.Metrics
	return res, nil
}

// values gathers one metric of one workload across the runs of a file.
func (f resultFile) values(workload, name string, traced bool) []float64 {
	var out []float64
	for _, r := range f.Runs {
		if m, ok := r.Metrics[name]; ok && r.Workload == workload && r.Traced == traced {
			out = append(out, m.Value)
		}
	}
	return out
}

func (f resultFile) workloads() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range f.Runs {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			out = append(out, r.Workload)
		}
	}
	return out
}

// printSummary prints, per workload, every end-to-end metric's median,
// quartiles and spread over the untraced runs, then the per-layer
// metrics of the traced run.
func printSummary(w io.Writer, spec benchSpec, f resultFile) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tmedian\tq1\tq3\tspread\tbound\truns")
	for _, wl := range f.workloads() {
		for _, ms := range spec.EndToEnd {
			xs := f.values(wl, ms.Name, false)
			q1, q2, q3 := quartiles(xs)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%.3f\t%.2f\t%d\n",
				wl, ms.Name, ms.Unit, q2, q1, q3, spread(xs), ms.Bound, len(xs))
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	wls := f.workloads()
	fmt.Fprintf(tw, "per-layer metric\tunit\t%s\n", strings.Join(wls, "\t"))
	for _, ms := range spec.PerLayer {
		row := []string{ms.Name, ms.Unit}
		for _, wl := range wls {
			row = append(row, fmt.Sprintf("%.6g", median(f.values(wl, ms.Name, true))))
		}
		fmt.Fprintln(tw, strings.Join(row, "\t"))
	}
	tw.Flush()
}

// exactMetrics depend only on the seed: virtual time, cost, deadline
// verdicts and message counts come from the virtual clock and the
// graph, never from the machine. Two runs of one seed that disagree on
// any of them have found a nondeterminism, not noise.
var exactMetrics = []string{
	"runtime.virtual_s", "runtime.norm_cost", "runtime.deadline_miss_frac",
	"runtime.work_per_round", "runtime.failed_frac",
}

// compareFiles prints, per workload and end-to-end metric, both
// medians and quartiles and a verdict: "within bound", "regressed"
// (b's median is worse than a's by more than the metric's bound) or
// "unresolved" (either side's own spread is wider than the bound, so
// the comparison cannot tell).
func compareFiles(w io.Writer, spec benchSpec, pathA, pathB string) error {
	load := func(path string) (resultFile, error) {
		var f resultFile
		data, err := os.ReadFile(path)
		if err != nil {
			return f, fmt.Errorf("bench: %w", err)
		}
		if err := json.Unmarshal(data, &f); err != nil {
			return f, fmt.Errorf("bench: %s: %w", path, err)
		}
		return f, nil
	}
	a, err := load(pathA)
	if err != nil {
		return err
	}
	b, err := load(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "a: %s  commit %s  seed %d  %s  nproc %d\n", pathA, a.Header.Commit, a.Header.Seed, a.Header.GoVersion, a.Header.NProc)
	fmt.Fprintf(w, "b: %s  commit %s  seed %d  %s  nproc %d\n\n", pathB, b.Header.Commit, b.Header.Seed, b.Header.GoVersion, b.Header.NProc)

	counts := map[string]int{}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta median [q1, q3]\tb median [q1, q3]\tb vs a\tbound\tverdict")
	for _, wl := range a.workloads() {
		for _, ms := range spec.EndToEnd {
			xa, xb := a.values(wl, ms.Name, false), b.values(wl, ms.Name, false)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(xa)
			b1, b2, b3 := quartiles(xb)
			change := ratio(b2-a2, a2)
			worse := change
			if ms.Better == "higher" {
				worse = -change
			}
			verdict := "within bound"
			switch {
			case spread(xa) > ms.Bound || spread(xb) > ms.Bound:
				verdict = "unresolved"
			case worse > ms.Bound:
				verdict = "regressed"
			}
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.5g [%.5g, %.5g]\t%.5g [%.5g, %.5g]\t%+.1f%%\t%.0f%%\t%s\n",
				wl, ms.Name, ms.Unit, a2, a1, a3, b2, b1, b3, 100*change, 100*ms.Bound, verdict)
		}
	}
	tw.Flush()

	fmt.Fprintln(w)
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tseed-exact metric\ta\tb\tverdict")
	for _, wl := range a.workloads() {
		for _, name := range exactMetrics {
			xa, xb := a.values(wl, name, true), b.values(wl, name, true)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			verdict := "equal"
			if a.Header.Seed != b.Header.Seed {
				verdict = "seeds differ"
			} else if xa[0] != xb[0] {
				verdict = "DIFFERS"
			}
			counts[verdict]++
			fmt.Fprintf(tw, "%s\t%s\t%v\t%v\t%s\n", wl, name, xa[0], xb[0], verdict)
		}
	}
	tw.Flush()

	var keys []string
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(w)
	for _, k := range keys {
		fmt.Fprintf(w, "%d %s\n", counts[k], k)
	}
	return nil
}
