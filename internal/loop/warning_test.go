package loop

import (
	"context"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/perfmodel"
	"hourglass/internal/units"
)

// The §9 warning rule, tested where it lives: a fake substrate with no
// engine steps a 10-superstep job on one spot configuration, one
// superstep per barrier, every save sealing, against a market that
// evicts it once.
const (
	fakeSteps = 10
	fakeExec  = 1000 // t_exec: 100 s a superstep
	fakeSave  = 50   // t_save
	fakeReady = 15   // boot + load of the first deployment at t=0
	fakeEvict = 445  // the spike: 30 s into superstep 5
)

// fake is a substrate that is not a Warner, though it has a Warn
// method: loss is the superstep the first deployment dies in (0 =
// none), which only the warner wrapper forewarns.
type fake struct {
	*Loop
	durable int
	loss    int
	warns   int
}

func (f *fake) Frontier() (int, cloud.StoreTime, error) { return f.durable, cloud.StoreTime{}, nil }
func (f *fake) Clear() error                            { return nil }

func (f *fake) Run(s *Session, deploy obs.Event) error {
	f.Emit(deploy)
	for x := s.Done + 1; !s.Stopped && x <= f.Total; x++ {
		if s.Attempt == 0 && x == f.loss {
			// A machine dies computing superstep x.
			s.Lose(f.SegEnd(s.CS, s.Done-s.Billed))
			return nil
		}
		if s.Barrier(x); s.Stopped || x == f.Total {
			return nil
		}
		if s.CheckpointAt(x) {
			f.durable = x
			s.Save(x, cloud.StoreTime{}, true)
		}
	}
	return nil
}

func (f *fake) Warn(*Session) Standby {
	f.warns++
	return noStandby{}
}

// warner is the fake forewarned of its loss: a Warner.
type warner struct{ *fake }

func (w warner) Loss(s *Session) int {
	if s.Attempt == 0 {
		return w.loss
	}
	return 0
}

// noStandby is a standby that never became launchable.
type noStandby struct{}

func (noStandby) Settle(*Session) (*Choice, error) { return nil, nil }
func (noStandby) Discard(units.Seconds) error      { return nil }
func (noStandby) Teardown()                        {}

// spotOnly always deploys one configuration, without checkpoints: every
// checkpoint the loop seals is a forced one.
type spotOnly struct{ cfg cloud.Config }

func (p spotOnly) Name() string { return "spot-only" }
func (p spotOnly) Decide(st core.State) (core.Decision, error) {
	return core.Decision{Config: p.cfg, KeepCurrent: st.Current != nil && st.Current.ID() == p.cfg.ID()}, nil
}

type recorder struct{ events []obs.Event }

func (r *recorder) Emit(e obs.Event) { r.events = append(r.events, e) }

// fakeEnv prices one spot configuration at fakeExec, fakeSave and
// fakeReady on flat traces that spike above the bid for 100 s at spike.
func fakeEnv(t *testing.T, spike int) (*core.Env, *core.ConfigStats) {
	t.Helper()
	em, err := cloud.BuildEvictionModel(cloud.GenerateSet(cloud.Catalogue(), cloud.GenParams{Days: 1, Seed: 1}), 64)
	if err != nil {
		t.Fatal(err)
	}
	ts := cloud.TraceSet{}
	for _, it := range cloud.Catalogue() {
		prices := make([]float64, int(units.Day))
		for i := range prices {
			prices[i] = 0.25 * float64(it.OnDemand)
			if i >= spike && i < spike+100 {
				prices[i] = 3 * float64(it.OnDemand)
			}
		}
		ts[it.Name] = &cloud.PriceTrace{Instance: it.Name, Step: 1, Prices: prices}
	}
	env, err := core.NewEnv(perfmodel.JobPageRank, perfmodel.Default(), cloud.DefaultConfigs(), cloud.NewMarket(ts), em)
	if err != nil {
		t.Fatal(err)
	}
	for i := range env.Stats {
		if cs := &env.Stats[i]; cs.Config.Transient {
			cs.Exec, cs.Save, cs.Boot, cs.Load = fakeExec, fakeSave, fakeReady-5, 5
			return env, cs
		}
	}
	t.Fatal("no transient configuration")
	return nil, nil
}

func TestWarningForcesTheSaveAtTheInterruption(t *testing.T) {
	step := units.Seconds(fakeExec / fakeSteps)
	for _, tc := range []struct {
		name    string
		warning units.Seconds
		warner  bool
		loss    int
		forced  int           // the barrier the forced save seals (0 = none)
		evictAt units.Seconds // the first interruption's instant
	}{
		{name: "window below t_save forces nothing", warning: fakeSave - 1, evictAt: fakeEvict},
		{name: "window fits t_save", warning: fakeSave, forced: 4, evictAt: fakeEvict},
		{name: "Warner, market eviction", warning: fakeSave, warner: true, forced: 4, evictAt: fakeEvict},
		// The loss in superstep 3 comes before the eviction: the save at
		// barrier 2 seals, and the session runs on to the loss instead of
		// tripping at the save.
		{name: "Warner, forewarned loss first", warning: fakeSave, warner: true, loss: 3, forced: 2,
			evictAt: fakeReady + 2*step + fakeSave},
		{name: "Warner, loss, window below t_save", warning: fakeSave - 1, warner: true, loss: 3,
			evictAt: fakeReady + 2*step},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, spot := fakeEnv(t, fakeEvict)
			rec := &recorder{}
			l := &Loop{Env: env, Prov: spotOnly{spot.Config}, Sink: rec, Log: t.Logf,
				Total: fakeSteps, Warning: tc.warning}
			f := &fake{Loop: l, loss: tc.loss}
			var sub Substrate = f
			if tc.warner {
				sub = warner{f}
			}
			sum, err := l.Drive(context.Background(), sub, 0, units.Day)
			if err != nil {
				t.Fatal(err)
			}
			if !sum.Finished {
				t.Fatal("the job did not finish")
			}
			if tc.warner != (f.warns > 0) {
				t.Errorf("Warn called %d times on a substrate that is a Warner: %v", f.warns, tc.warner)
			}

			// The first deployment's checkpoints and eviction, and the
			// deployment after it.
			var sealed []float64
			var evict, resume *obs.Event
			deploys := 0
			for i, e := range rec.events {
				switch {
				case e.Type == obs.EvDeploy:
					deploys++
					if deploys == 2 {
						resume = &rec.events[i]
					}
				case deploys > 1:
				case e.Type == obs.EvCheckpoint:
					sealed = append(sealed, e.WorkLeft)
				case e.Type == obs.EvEvict:
					evict = &rec.events[i]
				}
			}
			if evict == nil || resume == nil {
				t.Fatalf("no eviction and redeployment in %d events", len(rec.events))
			}
			if units.Seconds(evict.T) != tc.evictAt {
				t.Errorf("first eviction at t=%v, want %v", evict.T, tc.evictAt)
			}
			switch {
			case tc.forced == 0 && len(sealed) != 0:
				t.Errorf("sealed %v before the first eviction, want no save", sealed)
			case tc.forced > 0 && (len(sealed) != 1 || sealed[0] != l.WorkLeft(tc.forced)):
				t.Errorf("sealed %v before the first eviction, want one save leaving %v", sealed, l.WorkLeft(tc.forced))
			}
			if resume.Reload != (tc.forced > 0) || resume.WorkLeft != l.WorkLeft(tc.forced) {
				t.Errorf("the next deployment resumes work left %v (reload %v), want %v",
					resume.WorkLeft, resume.Reload, l.WorkLeft(tc.forced))
			}
		})
	}
}

// An eviction inside the output write that would finish the job: the
// write is billed as I/O up to the eviction, the job reruns, and the
// output write that lands is billed t_save of I/O.
func TestOutputWriteLostToEvictionBillsItsPart(t *testing.T) {
	const into = 20 // the spike, this far into the first output write
	env, spot := fakeEnv(t, fakeReady+fakeExec+into)
	rec := &recorder{}
	l := &Loop{Env: env, Prov: spotOnly{spot.Config}, Sink: rec, Log: t.Logf, Total: fakeSteps}
	sum, err := l.Drive(context.Background(), &fake{Loop: l}, 0, units.Day)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Finished {
		t.Fatal("the job did not finish")
	}
	var io []float64 // the I/O of each charge that ends a deployment
	for i, e := range rec.events {
		if e.Type == obs.EvSpend && i+1 < len(rec.events) {
			if next := rec.events[i+1].Type; next == obs.EvEvict || next == obs.EvDone {
				io = append(io, e.IOSec)
			}
		}
	}
	if want := []float64{into, fakeSave}; len(io) != 2 || io[0] != want[0] || io[1] != want[1] {
		t.Errorf("output writes billed %v s of I/O, want %v", io, want)
	}
	if want := into + fakeSave + 2*spot.Load; sum.IOTime != want {
		t.Errorf("IOTime %v, want %v (two loads, the lost write's part and t_save)", sum.IOTime, want)
	}
}
