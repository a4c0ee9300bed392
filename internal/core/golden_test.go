package core

// Golden decisions: what the slack-aware provisioner decides over a
// fixed grid of jobs, slacks and start offsets, checked in under
// testdata/decisions.golden. Every float is recorded by its bits, so a
// change to the EC table or the eviction lookups that is meant to leave
// the pricing alone can be shown to change nothing. After an intended
// change, regenerate with
//
//	go test ./internal/core/ -run TestGoldenDecisions -update-decisions
//
// and review the diff.

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
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
// decision. It is safe to call from any goroutine.
func decideSequence(t testing.TB, env *Env, p Provisioner, s State) []string {
	t.Helper()
	var lines []string
	for i := 0; i <= redecisions; i++ {
		dec, err := p.Decide(s)
		if err != nil {
			t.Error(err)
			return lines
		}
		lines = append(lines, fmt.Sprintf("step=%d cfg=%s keep=%t cost=%016x maxrun=%016x",
			i, dec.Config.ID(), dec.KeepCurrent, math.Float64bits(float64(dec.ExpectedCost)),
			math.Float64bits(float64(dec.MaxRun))))
		s = advance(env, s, dec)
	}
	return lines
}

// goldenCase renders one group of golden lines.
type goldenCase func() string

// goldenCases lists every case of the golden file in file order, one
// shared Env per job, building each slack-aware provisioner with newP.
func goldenCases(t testing.TB, newP func(*Env) *SlackAware) []goldenCase {
	var cases []goldenCase
	decide := func(prefix string, env *Env, p Provisioner, s State) {
		cases = append(cases, func() string {
			var b strings.Builder
			for _, l := range decideSequence(t, env, p, s) {
				fmt.Fprintf(&b, "%s %s\n", prefix, l)
			}
			return b.String()
		})
	}
	envs := map[string]*Env{}
	for _, job := range goldenJobs {
		env := testEnv(t, job)
		envs[job.Name] = env
		for i, frac := range goldenSlacks {
			offsets := goldenOffsets
			if job.Name == perfmodel.JobGC.Name {
				// GraphColoring takes one offset per slack, cycling.
				offsets = goldenOffsets[i%len(goldenOffsets):][:1]
			}
			for _, off := range offsets {
				decide(fmt.Sprintf("decide %s slack=%.1f at=%.0f", job.Name, frac, float64(off)),
					env, newP(env), slackStateAt(env, frac, off))
			}
		}
	}

	// A long GraphColoring horizon: four times the zero-slack deadline.
	gc := envs[perfmodel.JobGC.Name]
	decide("long graphcoloring slack=3.0 at=1000", gc, newP(gc), slackStateAt(gc, 3, 1000))

	// The §9 eviction-warning extension credits progress on failure.
	pr := envs[perfmodel.JobPageRank.Name]
	p := newP(pr)
	p.WarningWindow = 5 * units.Minute
	decide("warning pagerank slack=0.5 at=1000", pr, p, slackStateAt(pr, 0.5, 1000))

	// Figure 9's two evaluators.
	for _, job := range goldenJobs {
		env := envs[job.Name]
		fracs := []float64{0.2, 0.6, 1.0}
		if job.Name == perfmodel.JobGC.Name {
			fracs = fracs[:1]
		}
		for _, frac := range fracs {
			cases = append(cases, func() string {
				v := newP(env).Evaluate(slackStateAt(env, frac, 1000))
				return fmt.Sprintf("evaluate %s slack=%.1f approx=%016x\n",
					job.Name, frac, math.Float64bits(float64(v)))
			})
		}
	}
	for _, job := range []perfmodel.Job{perfmodel.JobSSSP, perfmodel.JobPageRank} {
		env := envs[job.Name]
		for _, frac := range []float64{0.2, 0.6, 1.0} {
			cases = append(cases, func() string {
				x := NewExactEC(env)
				x.Step = 5
				x.OpBudget = 5e5
				v, err := x.Evaluate(slackStateAt(env, frac, 1000))
				res := fmt.Sprintf("%016x", math.Float64bits(float64(v)))
				if errors.Is(err, ErrBudget) {
					res = "budget"
				} else if err != nil {
					t.Error(err)
				}
				return fmt.Sprintf("exact %s slack=%.1f exact=%s ops=%d\n", job.Name, frac, res, x.Ops())
			})
		}
	}

	// Quantised jobs plan whole supersteps, on tables of their own.
	for _, job := range goldenJobs {
		env := envs[job.Name]
		for _, total := range []int{5, 11} {
			s := slackStateAt(env, 0.5, 1000)
			s.Quantum = 1 / float64(total)
			decide(fmt.Sprintf("quantised %s steps=%d slack=0.5 at=1000", job.Name, total), env, newP(env), s)
		}
	}
	return cases
}

// goldenDecisions runs the golden cases in file order, or in a random
// order drawn from seed when it is nonzero, and renders them in file
// order.
func goldenDecisions(t testing.TB, newP func(*Env) *SlackAware, seed int64) []byte {
	cases := goldenCases(t, newP)
	perm := make([]int, len(cases))
	for i := range perm {
		perm[i] = i
	}
	if seed != 0 {
		perm = rand.New(rand.NewSource(seed)).Perm(len(cases))
	}
	out := make([]string, len(cases))
	for _, i := range perm {
		out[i] = cases[i]()
	}
	return []byte(strings.Join(out, ""))
}

// TestGoldenDecisions renders the grid with NewSlackAware, with a
// SlackAware literal that sets only Env, and in a seeded random order:
// each must reproduce the golden file. The shuffled run decides on the
// same shared Envs as the others, so it checks that the EC table a
// decision reads does not depend on which decisions filled it first.
func TestGoldenDecisions(t *testing.T) {
	path := filepath.Join("testdata", "decisions.golden")
	if *updateDecisions {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, goldenDecisions(t, NewSlackAware, 0), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-decisions)", err)
	}
	literal := func(env *Env) *SlackAware { return &SlackAware{Env: env} }
	for _, tc := range []struct {
		name string
		newP func(*Env) *SlackAware
		seed int64
	}{
		{"NewSlackAware", NewSlackAware, 0},
		{"zero value", literal, 0},
		{"shuffled", NewSlackAware, 39},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			got := goldenDecisions(t, tc.newP, tc.seed)
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
		})
	}
}
