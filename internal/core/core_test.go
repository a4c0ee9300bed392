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
		// Fresh pays Table 1's t_fixed = t_boot + t_load + t_save.
		c := cs.Config
		if want := env.Model.Boot(c) + env.Model.LoadTime(env.Job, c) + env.Model.SaveTime(env.Job, c); cs.Fixed != want {
			t.Errorf("%s: fixed %v, want %v", c.ID(), cs.Fixed, want)
		}
	}
}

func TestExpectedProgressSane(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	s := stateWithSlack(env, 1.0)
	for i := range env.Stats {
		cs := &env.Stats[i]
		u := env.Useful(cs, s, true)
		if u <= 0 {
			continue
		}
		if p := env.progress(cs, u); p < 0 || p > 1+1e-9 {
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
	// The pricing reads P(evicted within dt | survived u) as
	// (F(u+dt)−F(u))/(1−F(u)), a probability only if F is monotone and
	// in [0,1].
	prev := -1.0
	for _, u := range []units.Seconds{0, units.Hour, 4 * units.Hour, units.Day} {
		f := spot.evictionCDF(u)
		if f < prev || f < 0 || f > 1 {
			t.Fatalf("eviction CDF not monotone: %v at %v after %v", f, u, prev)
		}
		prev = f
	}
	if env.LRC.evictionCDF != nil {
		t.Error("on-demand last resort carries an eviction CDF")
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
	// Figure 9's headline: approximate decisions stay fast even for the
	// 4-hour job at 100% slack. The first decision on an Env fills its
	// EC table (cold); later ones read it (warm). Wall-clock bounds are
	// kept loose (CI machines vary, and -race slows the fill ~10×).
	env := testEnv(t, perfmodel.JobGC)
	s := stateWithSlack(env, 1.0)
	start := time.Now()
	if _, err := NewSlackAware(env).Decide(s); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	if cold > 10*time.Second {
		t.Errorf("cold decision took %v, want well under 10s", cold)
	}
	start = time.Now()
	if _, err := NewSlackAware(env).Decide(s); err != nil {
		t.Fatal(err)
	}
	if warm := time.Since(start); warm > 50*time.Millisecond {
		t.Errorf("warm decision took %v, want under 50ms (cold took %v)", warm, cold)
	}
}

// A caller may ask for any deadline; the EC table's size and its
// fill's depth must not follow it. A one-year horizon would need
// ~525k one-minute rows without the row cap. (The admission tests
// time a one-year GraphColoring Submit.)
func TestSlackAwareHugeHorizonIsBounded(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	s := State{Now: 1000, WorkLeft: 1, Deadline: 1000 + 365*24*3600}
	dec, err := NewSlackAware(env).Decide(s)
	if err != nil {
		t.Fatal(err)
	}
	tab := env.ecTable(0, 0)
	if rows := len(tab.nodes) / (workCols + 1); rows > maxRows+1 {
		t.Errorf("EC table has %d rows, want at most %d", rows, maxRows+1)
	}
	if !dec.Config.Transient || math.IsInf(float64(dec.ExpectedCost), 1) {
		t.Errorf("one-year decision %s (EC %v), want a priced transient plan", dec.Config.ID(), dec.ExpectedCost)
	}
	var cs *ConfigStats
	for i := range env.Stats {
		if env.Stats[i].Config.ID() == dec.Config.ID() {
			cs = &env.Stats[i]
		}
	}
	if want := env.Useful(cs, s, true); dec.MaxRun != want {
		t.Errorf("MaxRun %v, want the exact useful interval %v", dec.MaxRun, want)
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

func TestSpotOnCheckpointsEveryTransientDeployment(t *testing.T) {
	env := testEnv(t, perfmodel.JobGC)
	so := NewSpotOn(env)
	transient := 0
	for _, frac := range []float64{0.1, 0.5, 1} {
		for _, off := range []units.Seconds{0, 6 * units.Hour, units.Day} {
			s := stateWithSlack(env, frac)
			s.Now += off
			s.Deadline += off
			dec, err := so.Decide(s)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Config.Transient {
				transient++
				if !dec.UseCheckpoints {
					t.Errorf("slack %.1f at +%v: transient %s without checkpoints", frac, off, dec.Config.ID())
				}
			}
		}
	}
	if transient == 0 {
		t.Fatal("SpotOn never chose a transient deployment")
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
