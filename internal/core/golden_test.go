package core

// Golden decisions: what the slack-aware provisioner decides, and how
// many branch evaluations it spends deciding, over a fixed grid of jobs,
// slacks and start offsets, checked in under testdata/decisions.golden.
// Every float is recorded by its bits, so a change to the memo tables or
// the eviction lookups that are meant to leave the pricing alone can be
// shown to change nothing. After an intended change, regenerate with
//
//	go test ./internal/core/ -run TestGoldenDecisions -update-decisions
//
// and review the diff.

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hourglass/internal/perfmodel"
	"hourglass/internal/units"
)

var updateDecisions = flag.Bool("update-decisions", false, "rewrite testdata/decisions.golden")

var (
	goldenJobs    = []perfmodel.Job{perfmodel.JobPageRank, perfmodel.JobSSSP, perfmodel.JobGC}
	goldenSlacks  = []float64{0.1, 0.3, 0.5, 0.7, 1.0}
	goldenOffsets = []units.Seconds{1000, 200_000, 400_000}
)

// redecisions is how many re-decisions follow each fresh one.
const redecisions = 2

// slackStateAt is stateWithSlack moved to start at now.
func slackStateAt(env *Env, frac float64, now units.Seconds) State {
	s := stateWithSlack(env, frac)
	s.Deadline += now - s.Now
	s.Now = now
	return s
}

// advance moves s past dec: the chosen configuration runs for its
// planned interval (ten minutes when unbounded) and completes the work
// its capacity says, and becomes the current deployment.
func advance(env *Env, s State, dec Decision) State {
	run := dec.MaxRun
	if run <= 0 {
		run = 10 * units.Minute
	}
	cs, ok := env.StatsFor(dec.Config)
	if !ok {
		cs = &env.LRC
	}
	if !dec.KeepCurrent {
		s.Uptime = 0
	}
	cfg := dec.Config
	s.Current = &cfg
	s.Now += run
	s.Uptime += run
	s.WorkLeft = math.Max(s.WorkLeft-cs.Omega*float64(run)/float64(env.LRC.Exec), 0.01)
	return s
}

// decideSequence runs one provisioner through a fresh decision at s and
// redecisions re-decisions, each after advancing past the previous
// decision. The re-decisions see the same deadline, so they run on the
// scratch tables the fresh decision filled. It is safe to call from
// any goroutine.
func decideSequence(t testing.TB, env *Env, p *SlackAware, s State) []string {
	t.Helper()
	var lines []string
	for i := 0; i <= redecisions; i++ {
		dec, err := p.Decide(s)
		if err != nil {
			t.Error(err)
			return lines
		}
		lines = append(lines, fmt.Sprintf("step=%d cfg=%s keep=%t cost=%016x maxrun=%016x ops=%d",
			i, dec.Config.ID(), dec.KeepCurrent, math.Float64bits(float64(dec.ExpectedCost)),
			math.Float64bits(float64(dec.MaxRun)), p.LastOps))
		s = advance(env, s, dec)
	}
	return lines
}

// goldenDecisions renders every case of the golden file.
func goldenDecisions(t *testing.T) []byte {
	var b strings.Builder
	emit := func(prefix string, lines []string) {
		for _, l := range lines {
			fmt.Fprintf(&b, "%s %s\n", prefix, l)
		}
	}
	envs := map[string]*Env{}
	for _, job := range goldenJobs {
		env := testEnv(t, job)
		envs[job.Name] = env
		for i, frac := range goldenSlacks {
			offsets := goldenOffsets
			if job.Name == perfmodel.JobGC.Name {
				// A fresh GraphColoring decision costs up to 2e6 branch
				// evaluations: one offset per slack, cycling.
				offsets = goldenOffsets[i%len(goldenOffsets):][:1]
			}
			for _, off := range offsets {
				emit(fmt.Sprintf("decide %s slack=%.1f at=%.0f", job.Name, frac, float64(off)),
					decideSequence(t, env, NewSlackAware(env), slackStateAt(env, frac, off)))
			}
		}
	}

	// A long GraphColoring horizon, where the op budget cuts the
	// recursion short and so shapes the decision.
	gc := envs[perfmodel.JobGC.Name]
	p := NewSlackAware(gc)
	emit("budget graphcoloring slack=3.0 at=1000", decideSequence(t, gc, p, slackStateAt(gc, 3, 1000)))

	// The §9 eviction-warning extension credits progress on failure.
	pr := envs[perfmodel.JobPageRank.Name]
	p = NewSlackAware(pr)
	p.WarningWindow = 5 * units.Minute
	emit("warning pagerank slack=0.5 at=1000", decideSequence(t, pr, p, slackStateAt(pr, 0.5, 1000)))

	// Figure 9's two evaluators.
	for _, job := range goldenJobs {
		env := envs[job.Name]
		fracs := []float64{0.2, 0.6, 1.0}
		if job.Name == perfmodel.JobGC.Name {
			fracs = fracs[:1]
		}
		for _, frac := range fracs {
			s := slackStateAt(env, frac, 1000)
			p := NewSlackAware(env)
			v := p.Evaluate(s)
			fmt.Fprintf(&b, "evaluate %s slack=%.1f approx=%016x ops=%d\n",
				job.Name, frac, math.Float64bits(float64(v)), p.LastOps)
		}
	}
	for _, job := range []perfmodel.Job{perfmodel.JobSSSP, perfmodel.JobPageRank} {
		env := envs[job.Name]
		for _, frac := range []float64{0.2, 0.6, 1.0} {
			x := NewExactEC(env)
			x.Step = 5
			x.OpBudget = 5e5
			v, err := x.Evaluate(slackStateAt(env, frac, 1000))
			res := fmt.Sprintf("%016x", math.Float64bits(float64(v)))
			if errors.Is(err, ErrBudget) {
				res = "budget"
			} else if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "exact %s slack=%.1f exact=%s ops=%d\n", job.Name, frac, res, x.Ops())
		}
	}
	return []byte(b.String())
}

func TestGoldenDecisions(t *testing.T) {
	got := goldenDecisions(t)
	path := filepath.Join("testdata", "decisions.golden")
	if *updateDecisions {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-decisions)", err)
	}
	if string(got) == string(want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("decisions.golden line %d differs:\n got  %s\n want %s", i+1, g, w)
		}
	}
}
