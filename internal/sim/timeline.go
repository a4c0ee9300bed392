package sim

import (
	"fmt"
	"math"
	"strings"

	"hourglass/internal/units"
)

// PhaseKind labels one span of a run's timeline.
type PhaseKind int

// Timeline phases, in the order they typically occur (Figure 2's
// execution flow).
const (
	PhaseDeploy PhaseKind = iota // market wait + boot + load
	PhaseCompute
	PhaseSave
	PhaseEvicted // instant marker: deployment lost
	PhaseDone    // instant marker: job finished
)

// String implements fmt.Stringer.
func (k PhaseKind) String() string {
	switch k {
	case PhaseDeploy:
		return "deploy"
	case PhaseCompute:
		return "compute"
	case PhaseSave:
		return "save"
	case PhaseEvicted:
		return "evicted"
	case PhaseDone:
		return "done"
	default:
		return fmt.Sprintf("PhaseKind(%d)", int(k))
	}
}

// Phase is one span (or instant marker) of a run.
type Phase struct {
	Kind     PhaseKind
	Start    units.Seconds
	End      units.Seconds
	Config   string  // deployment id ("" for markers before any deployment)
	WorkLeft float64 // w at the end of the phase
}

// Timeline records the phases of a single run when Runner.Trace is set.
type Timeline struct {
	Phases []Phase
}

// add appends a phase.
func (tl *Timeline) add(kind PhaseKind, start, end units.Seconds, cfg string, w float64) {
	if tl == nil {
		return
	}
	tl.Phases = append(tl.Phases, Phase{kind, start, end, cfg, w})
}

// Evictions counts the eviction markers.
func (tl *Timeline) Evictions() int {
	n := 0
	for _, p := range tl.Phases {
		if p.Kind == PhaseEvicted {
			n++
		}
	}
	return n
}

// String renders a compact human-readable trace.
func (tl *Timeline) String() string {
	var b strings.Builder
	for _, p := range tl.Phases {
		switch p.Kind {
		case PhaseEvicted, PhaseDone:
			fmt.Fprintf(&b, "%v %-8s %s (w=%.3f)\n", p.Start, p.Kind, p.Config, p.WorkLeft)
		default:
			fmt.Fprintf(&b, "%v %-8s %s for %v (w=%.3f)\n", p.Start, p.Kind, p.Config, p.End-p.Start, p.WorkLeft)
		}
	}
	return b.String()
}

// Validate checks structural invariants: phases are time-ordered and
// non-negative, work never increases except at eviction rollbacks. A
// rollback surfaces as a deploy phase re-anchored to the durable
// frontier, so a work increase recorded anywhere else — mid-compute,
// mid-save, at an eviction marker — is a bookkeeping bug (billing a
// dead replica, resurrecting lost progress) and fails validation.
func (tl *Timeline) Validate() error {
	var prevEnd units.Seconds
	prevW := math.Inf(1)
	for i, p := range tl.Phases {
		if p.End < p.Start {
			return fmt.Errorf("phase %d: negative span [%v, %v]", i, p.Start, p.End)
		}
		if p.Start < prevEnd-1e-9 {
			return fmt.Errorf("phase %d: overlaps previous (starts %v before %v)", i, p.Start, prevEnd)
		}
		if p.Kind != PhaseDeploy && p.WorkLeft > prevW+1e-9 {
			return fmt.Errorf("phase %d (%v): work left rose %.6f -> %.6f outside a deploy",
				i, p.Kind, prevW, p.WorkLeft)
		}
		prevEnd = p.End
		prevW = p.WorkLeft
	}
	return nil
}
