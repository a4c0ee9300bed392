package obs

import (
	"fmt"
	"strings"
)

// Summary is a trace folded into the paper's Table-2-style per-run
// numbers: what the run cost, how often it was evicted, and whether
// the deadline held — plus the engine-side activity when the trace
// carries superstep records.
type Summary struct {
	// Sim lifecycle.
	Runs        int     // done markers seen
	CostUSD     float64 // sum of spend deltas, in emission order
	Decisions   int
	Deploys     int // reconfigurations (every deploy tears down the old one)
	Evictions   int
	Checkpoints int
	Finished    bool    // last done marker reported completion
	Missed      bool    // last done marker reported a deadline miss
	Completion  float64 // virtual completion time of the last run

	// Engine activity.
	Supersteps int
	Active     int64 // total compute calls
	Messages   int64 // total logical sends
	Combined   int64 // sends folded at the sender
	EngineNs   int64 // summed wall time of traced supersteps
	// Message-plane wire traffic of dist supersteps (0 in-process).
	WireFrames int64
	WireBytes  int64

	// Retries across durability paths.
	RetryAttempts int

	// Warm-standby recovery. Warnings counts eviction forewarnings,
	// WarmCutovers the ones a pre-booted standby absorbed, and
	// StandbyMisses the ones that fell back to reactive recovery.
	// RecoverySec sums the downtime between each eviction boundary and
	// the replacement set being compute-ready: the span of every
	// EvDeploy with Reload set, plus each warm cutover (~0). A redeploy
	// with no durable progress to resume starts the job over and is
	// not recovery. DeltaBytes/FullBytes split checkpoint footprint
	// by encoding so delta savings are visible in one fold.
	Warnings      int
	WarmCutovers  int
	StandbyMisses int
	RecoverySec   float64
	DeltaBytes    int64
	FullBytes     int64
}

// Summarize folds a trace. Spend deltas are accumulated in event
// order, which reproduces the simulator's own cost accumulation
// sequence exactly (float addition is order-dependent): a folded
// summary of a run's trace equals the run's printed results bit for
// bit.
func Summarize(events []Event) Summary {
	var s Summary
	for _, e := range events {
		switch e.Type {
		case EvSpend:
			s.CostUSD += e.USD
		case EvDecision:
			s.Decisions++
		case EvDeploy:
			s.Deploys++
			if e.Reload {
				s.RecoverySec += e.DurSec
			}
		case EvEvict:
			s.Evictions++
		case EvCheckpoint:
			s.Checkpoints++
			if e.Chain == 0 {
				s.FullBytes += e.WireBytes
			}
		case EvWarning:
			s.Warnings++
		case EvStandby:
			if !e.Ready {
				s.StandbyMisses++
			}
		case EvCutover:
			s.WarmCutovers++
			s.RecoverySec += e.DurSec
		case EvDeltaSave:
			s.DeltaBytes += e.DeltaBytes
		case EvDone:
			s.Runs++
			s.Finished = e.Done
			s.Missed = e.Missed
			s.Completion = e.T
		case EvSuperstep:
			s.Supersteps++
			s.Active += e.Active
			s.Messages += e.Messages
			s.Combined += e.Combined
			s.EngineNs += e.NsStep
			s.WireFrames += e.WireFrames
			s.WireBytes += e.WireBytes
		case EvRetry:
			s.RetryAttempts += e.Attempts
		}
	}
	return s
}

// String renders the summary as a compact table.
func (s Summary) String() string {
	var b strings.Builder
	if s.Runs > 0 || s.Decisions > 0 {
		deadline := "met"
		if s.Missed {
			deadline = "MISSED"
		}
		if !s.Finished {
			deadline = "unfinished"
		}
		fmt.Fprintf(&b, "runs        %d\n", s.Runs)
		fmt.Fprintf(&b, "cost        $%.4f\n", s.CostUSD)
		fmt.Fprintf(&b, "deadline    %s (completion t=%.0fs)\n", deadline, s.Completion)
		fmt.Fprintf(&b, "evictions   %d\n", s.Evictions)
		fmt.Fprintf(&b, "deploys     %d\n", s.Deploys)
		fmt.Fprintf(&b, "checkpoints %d\n", s.Checkpoints)
		fmt.Fprintf(&b, "decisions   %d\n", s.Decisions)
	}
	if s.Supersteps > 0 {
		avg := int64(0)
		if s.Supersteps > 0 {
			avg = s.EngineNs / int64(s.Supersteps)
		}
		fmt.Fprintf(&b, "supersteps  %d (avg %d ns/step)\n", s.Supersteps, avg)
		fmt.Fprintf(&b, "compute     %d calls\n", s.Active)
		// Folded-vs-sent names the message path: an exact (or
		// non-canonical) combiner folds at the sender, everything else
		// ships each term and sorts at the destination.
		path := "raw path: every term shipped"
		if s.Combined > 0 {
			path = fmt.Sprintf("combining path: %.1f%% folded", 100*float64(s.Combined)/float64(s.Messages))
		}
		fmt.Fprintf(&b, "messages    %d sent, %d combined at sender (%s)\n", s.Messages, s.Combined, path)
		if s.WireBytes > 0 {
			fmt.Fprintf(&b, "wire        %d frames, %d bytes (%d bytes/superstep)\n",
				s.WireFrames, s.WireBytes, s.WireBytes/int64(s.Supersteps))
		}
	}
	if s.RetryAttempts > 0 {
		fmt.Fprintf(&b, "retries     %d attempts\n", s.RetryAttempts)
	}
	if s.Warnings > 0 || s.WarmCutovers > 0 || s.StandbyMisses > 0 {
		fmt.Fprintf(&b, "standby     %d warnings, %d warm cutovers, %d misses (recovery %.0fs)\n",
			s.Warnings, s.WarmCutovers, s.StandbyMisses, s.RecoverySec)
	}
	if s.DeltaBytes > 0 || s.FullBytes > 0 {
		fmt.Fprintf(&b, "ckpt bytes  %d full, %d delta\n", s.FullBytes, s.DeltaBytes)
	}
	if b.Len() == 0 {
		return "empty trace\n"
	}
	return b.String()
}
