// Command hourglass-sim prints one exhibit of the paper's evaluation
// (§8), each defined once in internal/exhibit: -fig table2, 1, 5, 6,
// 7, 8 or 9, the five ablations (-fig ablations), or the zero-miss
// guarantee sweep over every job × slack × never-miss strategy (-fig
// verify, which exits non-zero on any missed deadline). -runs and
// -scale default to each exhibit's EXPERIMENTS.md values.
//
//	hourglass-sim -fig 5 -runs 100
//
// With -trace-out, a single seeded run executes instead and its full
// decision/lifecycle event stream is exported as JSONL; fold it back
// into a summary with `hourglass-trace -summary`:
//
//	hourglass-sim -trace-out run.jsonl -job graphcoloring -strategy hourglass -slack 0.5
//	hourglass-trace -summary run.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"hourglass"
	"hourglass/internal/exhibit"
	"hourglass/internal/obs"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "hourglass-sim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("hourglass-sim", flag.ContinueOnError)
	var (
		fig      = fs.String("fig", "5", "exhibit to print (table2, 1, 5, 6, 7, 8, 9, ablations or verify)")
		runs     = fs.Int("runs", 0, "simulations per cell (0: the exhibit's default; paper: 2000)")
		scale    = fs.Float64("scale", 0, "dataset scale factor (0: the exhibit's default)")
		seed     = fs.Int64("seed", exhibit.Seed, "market trace seed")
		traceOut = fs.String("trace-out", "", "run one traced simulation and write its JSONL event stream here")
		jobKind  = fs.String("job", "pagerank", "job for -trace-out (sssp | pagerank | graphcoloring)")
		strategy = fs.String("strategy", "hourglass", "provisioning strategy for -trace-out")
		slack    = fs.Float64("slack", 0.5, "slack fraction for -trace-out")
		start    = fs.Float64("start", 0, "trace start offset in seconds for -trace-out")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceOut != "" {
		return tracedRun(w, *traceOut, *jobKind, *strategy, *slack, *start, *seed)
	}
	if *runs < 0 || *scale < 0 {
		return errors.New("-runs and -scale must not be negative")
	}
	ex, err := exhibit.ByName(*fig)
	if err != nil {
		return err
	}
	tables, err := ex.Build(ex.Params(*runs, *scale, *seed))
	if err := exhibit.Render(w, tables); err != nil {
		return err
	}
	return err
}

// tracedRun executes one simulation with the obs sink attached and
// prints the same cost/evictions/deadline numbers the folded trace
// reproduces.
func tracedRun(w io.Writer, out, jobName, strategy string, slack, start float64, seed int64) error {
	kind, err := hourglass.ParseJobKind(jobName)
	if err != nil {
		return err
	}
	sys, err := hourglass.New(hourglass.Options{Seed: seed})
	if err != nil {
		return err
	}
	prov, err := sys.Provisioner(kind, hourglass.Strategy(strategy))
	if err != nil {
		return err
	}
	env, err := sys.Env(kind)
	if err != nil {
		return err
	}
	deadline, err := sys.DeadlineFor(kind, slack)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	sink := obs.NewJSONL(f)

	runner := &sim.Runner{Env: env, Sink: sink}
	res, err := runner.Run(prov, units.Seconds(start), units.Seconds(start)+deadline)
	if err != nil {
		return err
	}
	if err := sink.Err(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	met := "met"
	if res.MissedDeadline || !res.Finished {
		met = "MISSED"
	}
	fmt.Fprintf(w, "%s/%s slack %.0f%%: cost $%.4f, deadline %s, %d evictions, %d reconfigs, %d checkpoints, %d decisions\n",
		jobName, strategy, slack*100, float64(res.Cost), met,
		res.Evictions, res.Reconfigs, res.Checkpoints, res.Decisions)
	fmt.Fprintf(os.Stderr, "wrote %s\n", out)
	return nil
}
