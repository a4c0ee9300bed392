package runtime_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/runtime"
	"hourglass/internal/units"
)

// stepCheck wraps a provisioner and fails the test on a transient
// decision whose MaxRun is not a whole number of supersteps, at least
// one, on the configuration it chose: the loop stops only at a barrier,
// so a shorter MaxRun is overrun by the rest of a superstep.
type stepCheck struct {
	core.Provisioner
	t     *testing.T
	env   *core.Env
	total int
}

func (p stepCheck) Decide(s core.State) (core.Decision, error) {
	dec, err := p.Provisioner.Decide(s)
	if err != nil || dec.MaxRun <= 0 {
		return dec, err
	}
	cs, _ := p.env.StatsFor(dec.Config)
	n := float64(dec.MaxRun) / (float64(cs.Exec) / float64(p.total))
	if n < 1-1e-6 || math.Abs(n-math.Round(n)) > 1e-6*n {
		p.t.Errorf("at %v: %s MaxRun %v is %.4f supersteps", s.Now, cs.Config.ID(), dec.MaxRun, n)
	}
	return dec, err
}

// TestExecuteSweepOffsetsMeetDeadlines replays the start offsets of the
// 120-offset clean-store sweep (slack 0.5, Daly checkpoint cadence) on
// which Execute missed its deadline while the provisioner planned
// useful intervals shorter than one superstep: wcc's 2880-s supersteps
// against a 353-s Daly interval, and PageRank's 123-s supersteps
// against MaxRuns of 6–115 s once every reload and save is billed at
// its price. Each must now plan whole supersteps and meet its deadline.
func TestExecuteSweepOffsetsMeetDeadlines(t *testing.T) {
	for _, c := range []struct {
		app   string
		seeds []int64
	}{
		{"wcc", []int64{5, 40, 99, 103}},
		{"pagerank", []int64{9, 33, 107}},
	} {
		h := getHarness(t, c.app)
		for _, seed := range c.seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", c.app, seed), func(t *testing.T) {
				start := units.Seconds(rand.New(rand.NewSource(seed*31+5)).Float64() * float64(h.horizon-h.relDl))
				prov := stepCheck{Provisioner: h.provisioner(t), t: t, env: h.env, total: h.total}
				opts := h.options(t, cloud.NewDatastore(), fmt.Sprintf("sweep/%s/%d", c.app, seed), prov)
				opts.CheckpointEvery = 0
				rep, err := runtime.Execute(context.Background(), opts, start, start+h.relDl)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.Finished || rep.MissedDeadline {
					t.Fatalf("finished=%v missed=%v: completed %v s after the deadline",
						rep.Finished, rep.MissedDeadline, float64(rep.Completion-start-h.relDl))
				}
				assertBitIdentical(t, h.ref, rep.Values)
			})
		}
	}
}
