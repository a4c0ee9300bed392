// Command hourglass-trace generates, inspects and converts spot-price
// traces. The synthetic months Hourglass simulates against can be
// exported to CSV, and real AWS spot-price-history dumps (CSV rows of
// "seconds,price") can be inspected with the same statistics the
// provisioner's eviction model derives.
//
//	hourglass-trace -stats                      # market summary of a synthetic month
//	hourglass-trace -gen r4.4xlarge -out t.csv  # export a synthetic trace
//	hourglass-trace -in t.csv -instance r4.4xlarge -stats
//
// It also folds execution traces (the JSONL event streams written by
// `hourglass-sim -trace-out` and `hourglass-serve -trace-out`) into a
// Table-2-style cost / evictions / deadline summary:
//
//	hourglass-trace -summary run.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"hourglass/internal/cloud"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

func main() {
	var (
		stats    = flag.Bool("stats", false, "print market statistics")
		gen      = flag.String("gen", "", "generate a synthetic trace for this instance type")
		in       = flag.String("in", "", "read a trace CSV instead of generating")
		instance = flag.String("instance", "r4.2xlarge", "instance type for -in")
		out      = flag.String("out", "", "write the trace as CSV to this file")
		days     = flag.Float64("days", 10, "synthetic trace length")
		seed     = flag.Int64("seed", 42, "synthetic trace seed")
		step     = flag.Float64("step", 60, "resample step for -in (seconds)")
		summary  = flag.String("summary", "", "fold a JSONL execution trace into a cost/evictions/misses summary")
	)
	flag.Parse()

	switch {
	case *summary != "":
		if err := printSummary(os.Stdout, *summary); err != nil {
			fatal(err)
		}
	case *in != "":
		it, err := cloud.InstanceByName(*instance)
		if err != nil {
			fatal(err)
		}
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err := cloud.ReadTraceCSV(f, it.Name, units.Seconds(*step))
		if err != nil {
			fatal(err)
		}
		emit(it, tr, *stats, *out)
	case *gen != "":
		it, err := cloud.InstanceByName(*gen)
		if err != nil {
			fatal(err)
		}
		tr := cloud.Generate(it, cloud.GenParams{Days: *days, Seed: *seed})
		emit(it, tr, *stats, *out)
	case *stats:
		fmt.Printf("synthetic market, %g days, seed %d\n", *days, *seed)
		fmt.Printf("%-12s %9s %9s %9s %10s %10s %12s %12s\n",
			"instance", "od $/h", "spot $/h", "median", "discount", "evict/day", "unavail", "MTTF")
		for _, it := range cloud.Catalogue() {
			tr := cloud.Generate(it, cloud.GenParams{Days: *days, Seed: *seed})
			s := cloud.ComputeMarketStats(it, tr)
			fmt.Printf("%-12s %9.3f %9.3f %9.3f %9.1f%% %10.2f %11.2f%% %12v\n",
				s.Instance, s.OnDemand, s.MeanSpot, s.MedianSpot,
				s.MeanDiscount*100, s.CrossingsPday, s.AboveBidFrac*100, s.MTTF)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func emit(it cloud.InstanceType, tr *cloud.PriceTrace, stats bool, out string) {
	if stats {
		s := cloud.ComputeMarketStats(it, tr)
		fmt.Printf("%s: %d samples over %v\n", s.Instance, len(tr.Prices), tr.Duration())
		fmt.Printf("  on-demand    $%.3f/h\n", s.OnDemand)
		fmt.Printf("  mean spot    $%.3f/h (%.1f%% discount; median $%.3f)\n",
			s.MeanSpot, s.MeanDiscount*100, s.MedianSpot)
		fmt.Printf("  evictions    %.2f/day, unavailable %.2f%% of the time, MTTF %v\n",
			s.CrossingsPday, s.AboveBidFrac*100, s.MTTF)
	}
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := cloud.WriteTraceCSV(f, tr); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (%d samples)\n", out, len(tr.Prices))
	}
}

// printSummary folds the JSONL execution trace at path and prints its
// ledger.
func printSummary(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		return err
	}
	_, err = fmt.Fprint(w, obs.Summarize(events))
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hourglass-trace:", err)
	os.Exit(1)
}
