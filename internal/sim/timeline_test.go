package sim

import (
	"strings"
	"testing"

	"hourglass/internal/core"
	"hourglass/internal/perfmodel"
	"hourglass/internal/units"
)

func TestTimelineRecordsOnDemandRun(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	r := &Runner{Env: env, Trace: true}
	res, err := r.Run(&core.OnDemandOnly{Env: env}, 0, deadlineFor(env, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	tl := res.Timeline
	if tl == nil {
		t.Fatal("no timeline recorded")
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	kinds := make([]PhaseKind, len(tl.Phases))
	for i, p := range tl.Phases {
		kinds[i] = p.Kind
	}
	// On-demand without evictions: deploy, compute, save, done.
	want := []PhaseKind{PhaseDeploy, PhaseCompute, PhaseSave, PhaseDone}
	if len(kinds) != len(want) {
		t.Fatalf("phases = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("phase %d = %v, want %v", i, kinds[i], want[i])
		}
	}
	// Compute time equals the LRC exec time; deploy and save take some.
	var compute, overhead units.Seconds
	for _, p := range tl.Phases {
		switch p.Kind {
		case PhaseCompute:
			compute += p.End - p.Start
		case PhaseDeploy, PhaseSave:
			overhead += p.End - p.Start
		}
	}
	if !approxSeconds(compute, env.LRC.Exec, 1) {
		t.Errorf("compute time %v, want %v", compute, env.LRC.Exec)
	}
	if tl.Evictions() != 0 {
		t.Errorf("evictions = %d", tl.Evictions())
	}
	if overhead <= 0 {
		t.Error("no overhead recorded")
	}
}

func approxSeconds(a, b units.Seconds, tol float64) bool {
	d := float64(a - b)
	if d < 0 {
		d = -d
	}
	return d <= tol
}

func TestTimelineWithEvictions(t *testing.T) {
	env := testEnv(t, perfmodel.JobGC)
	r := &Runner{Env: env, Trace: true}
	// Scan starts until a run with evictions appears.
	for i := 0; i < 30; i++ {
		start := units.Seconds(i) * 6 * units.Hour
		res, err := r.Run(core.NewGreedy(env), start, start+deadlineFor(env, 1.0))
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Timeline.Validate(); err != nil {
			t.Fatalf("run %d: %v\n%s", i, err, res.Timeline)
		}
		if res.Evictions > 0 {
			if res.Timeline.Evictions() != res.Evictions {
				t.Errorf("timeline evictions %d != result %d", res.Timeline.Evictions(), res.Evictions)
			}
			out := res.Timeline.String()
			if !strings.Contains(out, "evicted") {
				t.Error("string rendering misses evictions")
			}
			return
		}
	}
	t.Skip("no evictions observed in 30 starts")
}

func TestTimelineNilSafe(t *testing.T) {
	var tl *Timeline
	tl.add(PhaseDone, 0, 0, "", 0) // must not panic
	env := testEnv(t, perfmodel.JobSSSP)
	r := &Runner{Env: env} // Trace off
	res, err := r.Run(&core.OnDemandOnly{Env: env}, 0, deadlineFor(env, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timeline != nil {
		t.Error("timeline recorded with Trace off")
	}
}

func TestPhaseKindString(t *testing.T) {
	if PhaseDeploy.String() != "deploy" || PhaseEvicted.String() != "evicted" {
		t.Error("phase names wrong")
	}
	if PhaseKind(99).String() == "" {
		t.Error("unknown phase should render")
	}
}

func TestTimelineValidateCatchesWorkIncrease(t *testing.T) {
	// Regression: Validate documented "work never increases except at
	// eviction rollbacks" but never checked it, so a timeline recording
	// resurrected progress (the signature of billing or bookkeeping
	// bugs) validated clean.
	bad := &Timeline{Phases: []Phase{
		{Kind: PhaseDeploy, Start: 0, End: 10, WorkLeft: 1.0},
		{Kind: PhaseCompute, Start: 10, End: 20, WorkLeft: 0.5},
		{Kind: PhaseCompute, Start: 20, End: 30, WorkLeft: 0.8}, // work rose mid-compute
	}}
	if bad.Validate() == nil {
		t.Error("work increase outside a deploy accepted")
	}
	badSave := &Timeline{Phases: []Phase{
		{Kind: PhaseCompute, Start: 0, End: 10, WorkLeft: 0.4},
		{Kind: PhaseSave, Start: 10, End: 15, WorkLeft: 0.6},
	}}
	if badSave.Validate() == nil {
		t.Error("work increase at a save accepted")
	}
	// A rollback re-anchors at a deploy: that increase is legitimate.
	rollback := &Timeline{Phases: []Phase{
		{Kind: PhaseDeploy, Start: 0, End: 10, WorkLeft: 1.0},
		{Kind: PhaseCompute, Start: 10, End: 20, WorkLeft: 0.5},
		{Kind: PhaseEvicted, Start: 20, End: 20, WorkLeft: 0.5},
		{Kind: PhaseDeploy, Start: 20, End: 30, WorkLeft: 1.0}, // back to the durable frontier
		{Kind: PhaseCompute, Start: 30, End: 50, WorkLeft: 0},
		{Kind: PhaseDone, Start: 50, End: 50, WorkLeft: 0},
	}}
	if err := rollback.Validate(); err != nil {
		t.Errorf("legitimate rollback rejected: %v", err)
	}
}

func TestTimelineValidateCatchesOverlap(t *testing.T) {
	tl := &Timeline{Phases: []Phase{
		{Kind: PhaseCompute, Start: 10, End: 20},
		{Kind: PhaseCompute, Start: 15, End: 25},
	}}
	if tl.Validate() == nil {
		t.Error("overlapping phases accepted")
	}
	bad := &Timeline{Phases: []Phase{{Kind: PhaseCompute, Start: 20, End: 10}}}
	if bad.Validate() == nil {
		t.Error("negative span accepted")
	}
}
