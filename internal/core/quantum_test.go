package core

import (
	"math"
	"testing"

	"hourglass/internal/perfmodel"
	"hourglass/internal/units"
)

// quantumCases are the superstep counts the quantised checks decide
// under: a five-step job like the runtime's wcc, an 11-step one like
// its PageRank, and a fine 200-step one.
var quantumCases = []int{5, 11, 200}

// wholeSteps reports d as a count of supersteps of length step and
// whether it is a whole one, to the millionth the loop forgives.
func wholeSteps(d units.Seconds, step float64) (float64, bool) {
	n := float64(d) / step
	return n, math.Abs(n-math.Round(n)) <= 1e-6*math.Max(n, 1)
}

// TestUsefulQuantised: with a quantum, useful(c,t) is a whole number of
// supersteps on c, at least one, within slack − overhead, and at most 0
// when not one superstep fits.
func TestUsefulQuantised(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	for _, total := range quantumCases {
		q := 1 / float64(total)
		for _, frac := range []float64{0.01, 0.1, 0.5, 1} {
			for _, w := range []float64{1, 0.5, 3 * q} {
				s := stateWithSlack(env, frac)
				s.WorkLeft = w
				s.Quantum = q
				for i := range env.Stats {
					cs := &env.Stats[i]
					if !cs.Config.Transient {
						continue
					}
					step := q * float64(cs.Exec)
					for _, fresh := range []bool{true, false} {
						u := env.Useful(cs, s, fresh)
						overhead := cs.Save
						if fresh {
							overhead = cs.Fixed
						}
						room := env.Slack(s) - overhead
						if float64(room) < step*(1-1e-6) {
							if u > 0 {
								t.Errorf("q=1/%d %s fresh=%v: useful %v with %v of room, under one %v superstep",
									total, cs.Config.ID(), fresh, u, room, step)
							}
							continue
						}
						n, whole := wholeSteps(u, step)
						if !whole || n < 1 {
							t.Errorf("q=1/%d %s fresh=%v: useful %v is %.6f supersteps of %v",
								total, cs.Config.ID(), fresh, u, n, step)
						}
						if float64(u-room) > 1e-6*step {
							t.Errorf("q=1/%d %s fresh=%v: useful %v past room %v", total, cs.Config.ID(), fresh, u, room)
						}
					}
				}
			}
		}
	}
}

// TestSlackAwareQuantisedMaxRun: every transient decision of a
// quantised job plans whole supersteps on the chosen configuration, at
// least one, and keeps the last resort feasible at the barrier it ends
// on. Without the quantum the same grid decides MaxRuns shorter than a
// superstep.
func TestSlackAwareQuantisedMaxRun(t *testing.T) {
	for _, job := range goldenJobs {
		env := testEnv(t, job)
		p := NewSlackAware(env)
		for _, total := range quantumCases {
			q := 1 / float64(total)
			for _, frac := range goldenSlacks {
				for _, off := range goldenOffsets {
					s := slackStateAt(env, frac, off)
					s.Quantum = q
					for i := 0; i <= 4; i++ {
						dec, err := p.Decide(s)
						if err != nil {
							t.Fatal(err)
						}
						if dec.MaxRun > 0 {
							cs, _ := env.StatsFor(dec.Config)
							step := q * float64(cs.Exec)
							if n, whole := wholeSteps(dec.MaxRun, step); !whole || n < 1 {
								t.Fatalf("%s q=1/%d slack=%.1f at=%.0f step %d: %s MaxRun %v is %.6f supersteps",
									job.Name, total, frac, float64(off), i, cs.Config.ID(), dec.MaxRun, n)
							}
							overhead := cs.Save
							if !dec.KeepCurrent {
								overhead = cs.Fixed
							}
							if float64(dec.MaxRun+overhead-env.Slack(s)) > 1e-6*step {
								t.Fatalf("%s q=1/%d slack=%.1f at=%.0f step %d: MaxRun %v + overhead %v exceeds slack %v",
									job.Name, total, frac, float64(off), i, dec.MaxRun, overhead, env.Slack(s))
							}
						}
						s = advance(env, s, dec)
						// The work left stays whole supersteps.
						s.WorkLeft = math.Max(math.Round(s.WorkLeft/q), 1) * q
					}
				}
			}
		}
	}
}
