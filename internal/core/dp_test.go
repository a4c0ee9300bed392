package core

import (
	"testing"

	"hourglass/internal/perfmodel"
)

// stubProvisioner always returns a fixed decision (test double for the
// DP wrapper's inner strategy).
type stubProvisioner struct{ dec Decision }

func (s *stubProvisioner) Name() string                   { return "stub" }
func (s *stubProvisioner) Decide(State) (Decision, error) { return s.dec, nil }

func TestDPRejectsSlowOnDemandFallback(t *testing.T) {
	// Regression: during a market spike a greedy inner provisioner may
	// fall back to the *cheapest* on-demand configuration, which can be
	// too slow for the remaining horizon. DP must override it with the
	// last resort (this caused rare missed deadlines before the fix).
	env := testEnv(t, perfmodel.JobPageRank)
	var slow *ConfigStats
	for i := range env.Stats {
		cs := &env.Stats[i]
		if !cs.Config.Transient && cs.Config.ID() != env.LRC.Config.ID() && cs.Omega < 0.7 {
			slow = cs
			break
		}
	}
	if slow == nil {
		t.Skip("no slow on-demand config in the set")
	}
	inner := &stubProvisioner{dec: Decision{Config: slow.Config}}
	dp := NewDP(inner, env)

	// Tight horizon: the slow config cannot finish, DP must use the LRC.
	s := stateWithSlack(env, 0.1)
	dec, err := dp.Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Config.ID() != env.LRC.Config.ID() {
		t.Errorf("DP accepted %s which misses the deadline", dec.Config.ID())
	}

	// Generous horizon: the slow config fits, DP passes it through.
	dp2 := NewDP(inner, env)
	s2 := stateWithSlack(env, 1.0)
	// Slack 100% of LRC exec may still be too tight for ω<0.5; widen.
	s2.Deadline += env.LRC.Exec * 3
	dec, err = dp2.Decide(s2)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Config.ID() != slow.Config.ID() {
		t.Errorf("DP rejected feasible on-demand %s, chose %s", slow.Config.ID(), dec.Config.ID())
	}
}

func TestSpotOnDiffersFromProteus(t *testing.T) {
	// SpotOn uses the plain cost-per-work score (no checkpoint/rework
	// terms); its scores must differ from Proteus's on transient
	// configurations.
	env := testEnv(t, perfmodel.JobGC)
	proteus := NewGreedy(env)
	simple := &Greedy{Env: env, SpotOnly: true, Simple: true}
	for i := range env.Stats {
		cs := &env.Stats[i]
		if !cs.Config.Transient {
			continue
		}
		a := proteus.costPerWork(cs, 0)
		b := simple.costPerWork(cs, 0)
		if a <= b {
			t.Errorf("%s: proteus score %v not above simple score %v", cs.Config.ID(), a, b)
		}
	}
}
