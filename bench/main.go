// Command bench is the repo's frozen benchmark: four workloads that
// time a graph job or a controller operation end to end, and a traced
// mode that attributes the time to layers. BENCHMARK.json at the
// checkout root names the metrics, their bounds and the workloads;
// README.md in this directory explains each of them.
//
//	bash bench/run.sh --workload dist_evict --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh --repeat 10 --out bench/out/a.json
//	bash bench/run.sh --compare bench/out/a.json bench/out/b.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
)

// benchProcs is the parallelism every number is measured at: the
// product under test gets two cores whatever the machine has, and the
// load comes from at most two goroutines.
const benchProcs = 2

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload: inproc_steady, dist_steady, dist_evict or controller_mix")
	seed := fs.Int64("seed", 42, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "length of the measured phase (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	repeat := fs.Int("repeat", 0, "run every workload (or the one --workload names) N times untraced and once traced, each in its own process, and write a result file")
	varySeed := fs.Bool("vary-seed", false, "with --repeat: run i uses seed+i instead of the same seed")
	out := fs.String("out", "", "with --repeat: the result file (default bench/out/result-<seed>.json)")
	compare := fs.Bool("compare", false, "compare two result files: --compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if goruntime.NumCPU() < benchProcs {
		return fail(fmt.Errorf("bench: refusing to run: the benchmark pins GOMAXPROCS to %d and this machine offers %d CPU; its numbers would not be comparable",
			benchProcs, goruntime.NumCPU()))
	}
	goruntime.GOMAXPROCS(benchProcs)

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}

	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("bench: --compare takes two result files"))
		}
		if err := compareFiles(stdout, spec, fs.Arg(0), fs.Arg(1)); err != nil {
			return fail(err)
		}
	case *workload != "" && *repeat == 0:
		res, err := runOne(*workload, *seed, *seconds, *trace != 0, fullSizes(), root, filepath.Join(root, "bench", "out"))
		if err != nil {
			return fail(err)
		}
		printRun(stdout, spec, res)
	default:
		if *repeat == 0 {
			*repeat = 1
		}
		names := workloadNames
		if *workload != "" {
			names = []string{*workload}
		}
		if err := repeatRuns(stdout, stderr, spec, root, names, *seed, *seconds, *repeat, *varySeed, *out); err != nil {
			return fail(err)
		}
	}
	return 0
}
