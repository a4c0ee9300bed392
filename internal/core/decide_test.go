package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"hourglass/internal/perfmodel"
)

// TestSlackAwareConcurrentDecide runs decision sequences on distinct
// provisioners of one shared Env from several goroutines at once — the
// controller's clients and worker pool do exactly that — and checks
// every result against the same sequence run alone.
func TestSlackAwareConcurrentDecide(t *testing.T) {
	for _, job := range []perfmodel.Job{perfmodel.JobPageRank, perfmodel.JobGC} {
		env := testEnv(t, job)
		fracs := []float64{0.1, 0.3, 0.5, 0.7}
		if job.Name == perfmodel.JobGC.Name {
			fracs = []float64{0.1, 0.1, 0.1} // the cheapest GraphColoring slack, repeated
		}
		want := make([][]string, len(fracs))
		for i, frac := range fracs {
			want[i] = decideSequence(t, env, NewSlackAware(env), slackStateAt(env, frac, 1000))
		}
		got := make([][]string, len(fracs))
		var wg sync.WaitGroup
		for i, frac := range fracs {
			wg.Add(1)
			go func(i int, frac float64) {
				defer wg.Done()
				got[i] = decideSequence(t, env, NewSlackAware(env), slackStateAt(env, frac, 1000))
			}(i, frac)
		}
		wg.Wait()
		for i := range fracs {
			if g, w := strings.Join(got[i], "\n"), strings.Join(want[i], "\n"); g != w {
				t.Errorf("%s slack %.1f: concurrent\n%s\nsequential\n%s", job.Name, fracs[i], g, w)
			}
		}
	}
}

// BenchmarkSlackAwareDecide times one fresh decision on a new
// provisioner per iteration: the cost a controller pays to price a
// submission.
func BenchmarkSlackAwareDecide(b *testing.B) {
	cases := []struct {
		job  perfmodel.Job
		frac float64
	}{
		{perfmodel.JobSSSP, 0.5},
		{perfmodel.JobPageRank, 0.5},
		{perfmodel.JobGC, 0.5},
		{perfmodel.JobGC, 3},
	}
	for _, c := range cases {
		b.Run(fmt.Sprintf("%s/slack=%.1f", c.job.Name, c.frac), func(b *testing.B) {
			env := testEnv(b, c.job)
			s := stateWithSlack(env, c.frac)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := NewSlackAware(env).Decide(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
