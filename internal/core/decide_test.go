package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/perfmodel"
	"hourglass/internal/units"
)

// TestSlackAwareConcurrentDecide interleaves plain, eviction-warning and
// relaxed slack-aware provisioners on one shared Env from several
// goroutines at once — the controller's clients and worker pool do
// exactly that — and checks each decision sequence against the same
// sequence run alone, one after another, on another Env.
func TestSlackAwareConcurrentDecide(t *testing.T) {
	type run struct {
		name string
		newP func(*Env) Provisioner
		frac float64
	}
	plain := func(env *Env) Provisioner { return NewSlackAware(env) }
	warned := func(env *Env) Provisioner {
		p := NewSlackAware(env)
		p.WarningWindow = 5 * units.Minute
		return p
	}
	relaxed := func(env *Env) Provisioner { return NewRelaxed(env, env.LRC.Exec/2) }
	runs := []run{
		{"plain", plain, 0.3}, {"warning", warned, 0.3}, {"relaxed", relaxed, 0.3},
		{"plain", plain, 0.5}, {"warning", warned, 0.1}, {"relaxed", relaxed, 0.1},
	}
	for _, job := range []perfmodel.Job{perfmodel.JobPageRank, perfmodel.JobGC} {
		want := make([][]string, len(runs))
		env := testEnv(t, job)
		for i, r := range runs {
			want[i] = decideSequence(t, env, r.newP(env), slackStateAt(env, r.frac, 1000))
		}
		env = testEnv(t, job)
		got := make([][]string, len(runs))
		var wg sync.WaitGroup
		for i, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = decideSequence(t, env, r.newP(env), slackStateAt(env, r.frac, 1000))
			}()
		}
		wg.Wait()
		for i, r := range runs {
			if g, w := strings.Join(got[i], "\n"), strings.Join(want[i], "\n"); g != w {
				t.Errorf("%s %s slack %.1f: shared\n%s\nalone\n%s", job.Name, r.name, r.frac, g, w)
			}
		}
	}
}

// BenchmarkSlackAwareDecide times one fresh decision at job start.
// cold decides on a new Env each iteration (its construction is not
// timed), so it includes filling the EC table: the cost of the first
// submission of a job kind. warm decides on one Env whose table the
// first iteration filled: the cost a controller pays for every later
// submission. Figure 9 reports both.
func BenchmarkSlackAwareDecide(b *testing.B) {
	cases := []struct {
		job  perfmodel.Job
		frac float64
	}{
		{perfmodel.JobSSSP, 0.5},
		{perfmodel.JobPageRank, 0.5},
		{perfmodel.JobGC, 0.5},
		{perfmodel.JobGC, 1},
		{perfmodel.JobGC, 3},
	}
	for _, c := range cases {
		base := testEnv(b, c.job)
		newEnv := func() *Env {
			env, err := NewEnv(c.job, base.Model, cloud.DefaultConfigs(), base.Market, base.Evictions)
			if err != nil {
				b.Fatal(err)
			}
			return env
		}
		s := stateWithSlack(base, c.frac)
		name := fmt.Sprintf("%s/slack=%.1f", c.job.Name, c.frac)
		b.Run("cold/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				env := newEnv()
				b.StartTimer()
				if _, err := NewSlackAware(env).Decide(s); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("warm/"+name, func(b *testing.B) {
			env := newEnv()
			if _, err := NewSlackAware(env).Decide(s); err != nil {
				b.Fatal(err)
			}
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
