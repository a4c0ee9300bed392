package obs

import (
	"fmt"
	"strings"

	"hourglass/internal/units"
)

// Summary is a trace folded into the paper's Table-2-style per-run
// ledger: what the run cost, how often it was evicted, and whether the
// deadline held — plus the engine-side activity when the trace carries
// superstep records.
//
// The fold is incremental: Summary is itself a Sink, and each executor
// (sim.Runner, runtime.Execute, runtime.ExecuteDist) keeps its report
// only by emitting into one, so a report is by construction the fold of
// the trace it emitted. It holds no events. It takes no lock either:
// feed it from one goroutine, as the executors do from their driver.
type Summary struct {
	// Lifecycle.
	Runs           int           // done markers seen
	Cost           units.USD     // sum of spend deltas, in emission order
	Decisions      int           // provisioner consultations
	Reconfigs      int           // deployments (first boot included)
	Evictions      int           // deployments lost to the market or a worker's death
	WatchdogTrips  int           // wall-clock watchdog firings
	Restarts       int           // evictions + watchdog trips: every forced reload
	Checkpoints    int           // durable checkpoints sealed
	LastResort     bool          // the executor pinned the last-resort configuration (a Forced decision)
	Finished       bool          // last done marker reported completion
	MissedDeadline bool          // last done marker reported a deadline miss
	Completion     units.Seconds // virtual completion time of the last run
	// IOTime sums the I/O seconds the spend records carry: input or
	// checkpoint load after boot, every save (one that failed to seal
	// included), the output write (its part before an eviction that
	// interrupts it) and a warm standby's prefetch.
	IOTime units.Seconds

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
	// RecoveryTime sums the downtime between each eviction boundary and
	// the replacement set being compute-ready: the span of every
	// EvDeploy with Reload set, plus each warm cutover (~0). A redeploy
	// with no durable progress to resume starts the job over and is
	// not recovery. DeltaBytes/FullBytes split checkpoint footprint
	// by encoding so delta savings are visible in one fold.
	Warnings      int
	WarmCutovers  int
	StandbyMisses int
	RecoveryTime  units.Seconds
	DeltaBytes    int64
	FullBytes     int64
}

// Emit folds one event. Spend deltas are accumulated in event order,
// which reproduces the executors' own float accumulation sequence
// exactly (float addition is order-dependent): a summary folded from a
// recorded trace equals the report the run returned, bit for bit.
func (s *Summary) Emit(e Event) {
	switch e.Type {
	case EvSpend:
		s.Cost += units.USD(e.USD)
		s.IOTime += units.Seconds(e.IOSec)
	case EvDecision:
		s.Decisions++
		s.LastResort = s.LastResort || e.Forced
	case EvDeploy:
		s.Reconfigs++
		if e.Reload {
			s.RecoveryTime += units.Seconds(e.DurSec)
		}
	case EvEvict:
		s.Evictions++
		s.Restarts++
	case EvWatchdog:
		s.WatchdogTrips++
		s.Restarts++
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
		s.RecoveryTime += units.Seconds(e.DurSec)
	case EvDeltaSave:
		s.DeltaBytes += e.DeltaBytes
	case EvDone:
		s.Runs++
		s.Finished = e.Done
		s.MissedDeadline = e.Missed
		s.Completion = units.Seconds(e.T)
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

// Summarize folds a recorded trace.
func Summarize(events []Event) Summary {
	var s Summary
	for _, e := range events {
		s.Emit(e)
	}
	return s
}

// String renders the summary as a compact table.
func (s Summary) String() string {
	var b strings.Builder
	if s.Runs > 0 || s.Decisions > 0 {
		deadline := "met"
		if s.MissedDeadline {
			deadline = "MISSED"
		}
		if !s.Finished {
			deadline = "unfinished"
		}
		fmt.Fprintf(&b, "runs        %d\n", s.Runs)
		fmt.Fprintf(&b, "cost        $%.4f\n", float64(s.Cost))
		fmt.Fprintf(&b, "deadline    %s (completion t=%.0fs)\n", deadline, float64(s.Completion))
		fmt.Fprintf(&b, "evictions   %d\n", s.Evictions)
		fmt.Fprintf(&b, "restarts    %d (%d watchdog trips)\n", s.Restarts, s.WatchdogTrips)
		fmt.Fprintf(&b, "deploys     %d\n", s.Reconfigs)
		fmt.Fprintf(&b, "checkpoints %d\n", s.Checkpoints)
		fmt.Fprintf(&b, "decisions   %d\n", s.Decisions)
		fmt.Fprintf(&b, "io time     %.0fs\n", float64(s.IOTime))
		fmt.Fprintf(&b, "recovery    %.0fs\n", float64(s.RecoveryTime))
	}
	if s.Supersteps > 0 {
		fmt.Fprintf(&b, "supersteps  %d (avg %d ns/step)\n", s.Supersteps, s.EngineNs/int64(s.Supersteps))
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
		fmt.Fprintf(&b, "standby     %d warnings, %d warm cutovers, %d misses\n",
			s.Warnings, s.WarmCutovers, s.StandbyMisses)
	}
	if s.DeltaBytes > 0 || s.FullBytes > 0 {
		fmt.Fprintf(&b, "ckpt bytes  %d full, %d delta\n", s.FullBytes, s.DeltaBytes)
	}
	if b.Len() == 0 {
		return "empty trace\n"
	}
	return b.String()
}
