package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hourglass"
	"hourglass/internal/exhibit"
	"hourglass/internal/obs"
)

func TestRunPrintsAnExhibit(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-fig", "1", "-runs", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	words := strings.Join(strings.Fields(out.String()), " ")
	for _, want := range []string{"Figure 1: GC job, 1 runs per bar", "Hourglass Naive (greedy+DP)", "Slack-Aware + Fast Reload"} {
		if !strings.Contains(words, want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}

// verifyWith makes -fig verify sweep one stand-in strategy for the
// length of a test: on-demand never misses, plain Proteus misses at
// small slacks.
func verifyWith(t *testing.T, st hourglass.Strategy) {
	saved := exhibit.All
	t.Cleanup(func() { exhibit.All = saved })
	exhibit.All = []exhibit.Exhibit{{Name: "verify", Runs: 1, Build: func(p exhibit.Params) ([]exhibit.Table, error) {
		return exhibit.Sweep(p, st)
	}}}
}

func TestRunVerify(t *testing.T) {
	verifyWith(t, hourglass.StrategyOnDemand)
	var out bytes.Buffer
	if err := run([]string{"-fig", "verify"}, &out); err != nil {
		t.Fatalf("verify: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "verified 30 runs: 0 deadline misses") {
		t.Errorf("verify output:\n%s", out.String())
	}
}

// A sweep with misses still prints its table, and run returns the error
// that makes main exit non-zero.
func TestRunVerifyFailsOnMiss(t *testing.T) {
	verifyWith(t, hourglass.StrategyProteus)
	var out bytes.Buffer
	err := run([]string{"-fig", "verify"}, &out)
	if err == nil || !strings.Contains(err.Error(), "missed their deadline") {
		t.Errorf("err = %v", err)
	}
	if !strings.Contains(out.String(), "MISS proteus sssp slack=10%") {
		t.Errorf("output lists no miss:\n%s", out.String())
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{{"-fig", "4"}, {"-fig", "1", "-runs", "-1"}, {"-fig", "8", "-scale", "-0.1"}} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%v: no error", args)
		}
	}
}

// An on-demand run chooses the last-resort configuration on its own:
// its folded trace must not read as a forced last-resort fallback.
func TestTracedOnDemandRunIsNotForcedLastResort(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run.jsonl")
	var w bytes.Buffer
	if err := run([]string{"-trace-out", out, "-job", "sssp", "-strategy", "ondemand"}, &w); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	sum := obs.Summarize(events)
	if sum.Decisions == 0 || !sum.Finished {
		t.Fatalf("run folded to %+v", sum)
	}
	if sum.LastResort {
		t.Errorf("an on-demand run reports LastResort: %+v", sum)
	}
}
