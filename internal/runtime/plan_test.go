package runtime_test

// One plan for both drivers: a decision bounds the segment that follows
// it (MaxRun, the checkpoint cadence), UseCheckpoints decides whether
// that segment ends in a checkpoint, and every checkpoint's save is
// billed. Both drivers re-decide at those boundaries with the
// deployment live, keeping it in place or cutting over.

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/engine"
	"hourglass/internal/obs"
	"hourglass/internal/runtime"
	"hourglass/internal/units"
)

// recordingProv records every decision its provisioner returns, in
// order: the trace's unforced EvDecision events, one for one.
type recordingProv struct {
	core.Provisioner
	mu   sync.Mutex
	decs []core.Decision
}

func (p *recordingProv) Decide(s core.State) (core.Decision, error) {
	dec, err := p.Provisioner.Decide(s)
	if err == nil {
		p.mu.Lock()
		p.decs = append(p.decs, dec)
		p.mu.Unlock()
	}
	return dec, err
}

// assertPlanHeld walks a driver's event stream decision by decision:
// the supersteps a transient decision runs before the next decision or
// eviction stay within its MaxRun and its checkpoint cadence, a
// decision without checkpoints is followed by none, and every sealed
// checkpoint comes right after the EvSpend that billed its save.
func assertPlanHeld(t *testing.T, env *core.Env, events []obs.Event, decs []core.Decision, total, every int) {
	t.Helper()
	stats := map[string]*core.ConfigStats{}
	for i := range env.Stats {
		stats[env.Stats[i].Config.ID()] = &env.Stats[i]
	}
	var cur *core.Decision
	steps, next, transient := 0, 0, 0
	closeSegment := func() {
		if cur == nil || !cur.Config.Transient {
			return
		}
		transient++
		cs := stats[cur.Config.ID()]
		if cur.MaxRun > 0 {
			stepTime := float64(cs.Exec) / float64(total)
			if bound := max(1, int(math.Floor(float64(cur.MaxRun)/stepTime))); steps > bound {
				t.Errorf("decision %d (%s) ran %d supersteps past MaxRun %.0fs = %d supersteps",
					next-1, cur.Config.ID(), steps, float64(cur.MaxRun), bound)
			}
		}
		if cur.UseCheckpoints && steps > every {
			t.Errorf("decision %d (%s) ran %d supersteps past the checkpoint cadence %d",
				next-1, cur.Config.ID(), steps, every)
		}
	}
	var prev obs.Event
	for _, e := range events {
		switch e.Type {
		case obs.EvDecision:
			closeSegment()
			cur, steps = nil, 0
			if e.Forced {
				break
			}
			if next >= len(decs) {
				t.Fatalf("EvDecision %d without a provisioner decision", next)
			}
			if decs[next].Config.ID() != e.Config {
				t.Fatalf("EvDecision %d names %s, the provisioner decided %s", next, e.Config, decs[next].Config.ID())
			}
			cur = &decs[next]
			next++
		case obs.EvEvict:
			closeSegment()
			cur, steps = nil, 0
		case obs.EvSuperstep:
			steps++
		case obs.EvCheckpoint:
			if cur != nil && !cur.UseCheckpoints {
				t.Errorf("checkpoint at superstep %d after decision %d (%s) asked for none",
					e.Superstep, next-1, cur.Config.ID())
			}
			if prev.Type != obs.EvSpend {
				t.Errorf("checkpoint at superstep %d follows %s, not the EvSpend of its save", e.Superstep, prev.Type)
			}
		}
		prev = e
	}
	closeSegment()
	if next != len(decs) {
		t.Errorf("%d provisioner decisions, %d in the trace", len(decs), next)
	}
	if transient == 0 {
		t.Fatal("no transient decision: the scenario no longer starts on spot")
	}
}

// TestPlanHoldsOnBothDrivers runs the slack-aware provisioner from a
// spot start through both drivers and holds each to the plan its
// decisions set.
func TestPlanHoldsOnBothDrivers(t *testing.T) {
	h := getHarness(t, "pagerank")
	for _, dist := range []bool{false, true} {
		name := "Execute"
		if dist {
			name = "ExecuteDist"
		}
		t.Run(name, func(t *testing.T) {
			prov := &recordingProv{Provisioner: h.provisioner(t)}
			sink := &listSink{}
			store := cloud.NewDatastore()
			var rep runtime.Report
			var err error
			total := h.total
			if dist {
				ref := distReference(t)
				total = ref.Stats.Supersteps
				opts := h.distOptions(t, store, "plan-dist", prov, total,
					&runtime.LoopbackLauncher{Store: store, Logf: t.Logf})
				opts.Sink = sink
				rep, err = runtime.ExecuteDist(context.Background(), opts, 0, h.relDl)
				if err == nil {
					assertBitIdentical(t, ref.Values, rep.Values)
				}
			} else {
				opts := h.options(t, store, "plan-exec", prov)
				opts.Watchdog = 0
				opts.Sink = sink
				rep, err = runtime.Execute(context.Background(), opts, 0, h.relDl)
				if err == nil {
					assertBitIdentical(t, h.ref, rep.Values)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Finished {
				t.Fatal("run did not finish")
			}
			prov.mu.Lock()
			decs := append([]core.Decision(nil), prov.decs...)
			prov.mu.Unlock()
			assertPlanHeld(t, h.env, sink.snapshot(), decs, total, 2)
		})
	}
}

// switchProv decides from on a fresh start, switches to to at the first
// boundary it sees with from live, and keeps whatever is live after
// that. Every decision asks for checkpoints.
type switchProv struct {
	from, to cloud.Config
}

func (p *switchProv) Name() string { return "switch" }

func (p *switchProv) Decide(s core.State) (core.Decision, error) {
	switch {
	case s.Current == nil:
		return core.Decision{Config: p.from, UseCheckpoints: true}, nil
	case s.Current.ID() == p.from.ID():
		return core.Decision{Config: p.to, UseCheckpoints: true}, nil
	}
	return core.Decision{Config: *s.Current, KeepCurrent: true, UseCheckpoints: true}, nil
}

// TestExecuteKeepsInPlaceAndCutsOver, on both drivers: a boundary
// decision that keeps the deployment keeps it running — one engine run
// or one process set, one deploy, one decision per boundary plus the
// first, and engine stats equal to the uninterrupted run's — and one
// that switches configuration boots exactly one new deployment, which
// resumes the checkpoint just sealed without deciding again.
func TestExecuteKeepsInPlaceAndCutsOver(t *testing.T) {
	h := getHarness(t, "pagerank")
	od8, od4 := onDemandByCount(t, h.env, 8), onDemandByCount(t, h.env, 4)
	count := func(events []obs.Event, typ string) int {
		n := 0
		for _, e := range events {
			if e.Type == typ {
				n++
			}
		}
		return n
	}
	for _, dist := range []bool{false, true} {
		name := "Execute"
		ref, err := engine.Run(h.g, h.fresh(), engine.Config{Workers: 4, Canonical: true})
		if err != nil {
			t.Fatal(err)
		}
		if dist {
			name = "ExecuteDist"
			ref = distReference(t)
		}
		total := ref.Stats.Supersteps
		run := func(t *testing.T, job string, prov core.Provisioner) (runtime.Report, []obs.Event) {
			t.Helper()
			store := cloud.NewDatastore()
			sink := &listSink{}
			var rep runtime.Report
			var err error
			if dist {
				opts := h.distOptions(t, store, job, prov, total, &runtime.LoopbackLauncher{Store: store, Logf: t.Logf})
				opts.Sink = sink
				rep, err = runtime.ExecuteDist(context.Background(), opts, 0, 200_000)
			} else {
				opts := h.options(t, store, job, prov)
				opts.Sink = sink
				rep, err = runtime.Execute(context.Background(), opts, 0, 200_000)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Finished {
				t.Fatal("run did not finish")
			}
			assertBitIdentical(t, ref.Values, rep.Values)
			return rep, sink.snapshot()
		}

		t.Run(name+"/keep", func(t *testing.T) {
			rep, events := run(t, "keep-in-place", &scriptedProv{configs: []cloud.Config{od8}})
			if rep.Reconfigs != 1 || count(events, obs.EvDeploy) != 1 {
				t.Fatalf("%d reconfigs, %d deploys: want one deployment for the whole run",
					rep.Reconfigs, count(events, obs.EvDeploy))
			}
			// Every boundary of this plan seals a checkpoint.
			boundaries := count(events, obs.EvCheckpoint)
			if boundaries == 0 {
				t.Fatal("no boundary reached")
			}
			if got := count(events, obs.EvDecision); got != boundaries+1 || rep.Decisions != got {
				t.Fatalf("%d decisions (report %d) for %d boundaries, want one per boundary plus the first",
					got, rep.Decisions, boundaries)
			}
			got, want := rep.Stats, ref.Stats
			if got.Supersteps != want.Supersteps || got.MessagesSent != want.MessagesSent || got.ComputeCalls != want.ComputeCalls {
				t.Fatalf("stats %+v, want the uninterrupted run's %+v: the kept run did not span the job", got, want)
			}
		})

		t.Run(name+"/cutover", func(t *testing.T) {
			rep, events := run(t, "cut-over", &switchProv{from: od8, to: od4})
			if counts := shardCounts(events); dist && !slices.Equal(counts, []int{8, 4}) {
				t.Fatalf("shard counts = %v, want [8 4]", counts)
			}
			if rep.Evictions != 0 {
				t.Fatalf("%d evictions on an on-demand script", rep.Evictions)
			}
			var deploys int
			var sealed float64 // work left after the last checkpoint of the first deployment
			var last obs.Event // the decision before the second deploy
			for _, e := range events {
				switch e.Type {
				case obs.EvCheckpoint:
					if deploys == 1 {
						sealed = e.WorkLeft // in-process checkpoints carry it; dist ones their superstep
						if dist {
							sealed = float64(total-e.Superstep) / float64(total)
						}
					}
				case obs.EvDecision:
					last = e
				case obs.EvDeploy:
					deploys++
					if want := []string{od8.ID(), od4.ID()}; deploys <= 2 && e.Config != want[deploys-1] {
						t.Fatalf("deploy %d boots %s, want %s", deploys, e.Config, want[deploys-1])
					}
					if deploys != 2 {
						break
					}
					if last.Keep || last.Config != od4.ID() {
						t.Fatalf("second deploy follows decision %+v, want the switch to %s", last, od4.ID())
					}
					if sealed == 0 || !e.Reload || e.WorkLeft != sealed {
						t.Fatalf("second deploy %+v, want a reload of the checkpoint just sealed (work left %v)", e, sealed)
					}
				}
			}
			if decisions := count(events, obs.EvDecision); decisions != rep.Decisions {
				t.Fatalf("%d decision events for %d decisions", decisions, rep.Decisions)
			}
			nonKeep := 0
			for _, e := range events {
				if e.Type == obs.EvDecision && !e.Keep {
					nonKeep++
				}
			}
			if nonKeep != 2 || deploys != 2 {
				t.Fatalf("%d decisions that keep nothing and %d deploys, want 2 and 2: the new deployment must boot without a second decision",
					nonKeep, deploys)
			}
		})
	}
}

// unsavedProv runs spot one superstep per decision without
// checkpoints, keeping it while it lives; once it is lost, on-demand.
type unsavedProv struct {
	spot, od cloud.Config
	step     units.Seconds
	fresh    int
}

func (p *unsavedProv) Name() string { return "unsaved" }

func (p *unsavedProv) Decide(s core.State) (core.Decision, error) {
	switch {
	case s.Current != nil:
		return core.Decision{Config: *s.Current, KeepCurrent: true, MaxRun: p.step}, nil
	case p.fresh == 0:
		p.fresh++
		return core.Decision{Config: p.spot, MaxRun: p.step}, nil
	}
	return core.Decision{Config: p.od}, nil
}

// TestExecuteEvictionCarriesTheDurableFrontier, on both drivers: a spot
// deployment kept across boundaries that seal nothing, then evicted,
// has nothing durable — its eviction, the decision after it and the
// redeploy all see the whole job left.
func TestExecuteEvictionCarriesTheDurableFrontier(t *testing.T) {
	h := getHarness(t, "pagerank")
	spot, od := transientByCount(t, h.env, 8), onDemandByCount(t, h.env, 8)
	for _, dist := range []bool{false, true} {
		name, total, ref := "Execute", h.total, h.ref
		if dist {
			name, total, ref = "ExecuteDist", distReference(t).Stats.Supersteps, distReference(t).Values
		}
		t.Run(name, func(t *testing.T) {
			start, k := spotEvictionOffset(h, spot, total)
			if start < 0 {
				t.Fatal("no start offset with a mid-run spot eviction")
			}
			cs := configStats(t, h, spot.ID())
			prov := &unsavedProv{spot: spot, od: od, step: units.Seconds(float64(cs.Exec) / float64(total))}
			store := cloud.NewDatastore()
			sink := &listSink{}
			var rep runtime.Report
			var err error
			if dist {
				opts := h.distOptions(t, store, "unsaved-dist", prov, total, &runtime.LoopbackLauncher{Store: store, Logf: t.Logf})
				opts.Sink = sink
				rep, err = runtime.ExecuteDist(context.Background(), opts, start, start+200_000)
			} else {
				opts := h.options(t, store, "unsaved-exec", prov)
				opts.Sink = sink
				rep, err = runtime.Execute(context.Background(), opts, start, start+200_000)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Finished || rep.Checkpoints != 0 {
				t.Fatalf("finished=%v with %d checkpoints, want a finished run that sealed none", rep.Finished, rep.Checkpoints)
			}
			assertBitIdentical(t, ref, rep.Values)
			var evicted, decided bool
			for _, e := range sink.snapshot() {
				switch {
				case e.Type == obs.EvEvict && !evicted:
					evicted = true
					if e.WorkLeft != 1 {
						t.Fatalf("eviction %+v after %d supersteps reports durable progress; nothing was saved", e, k)
					}
				case !evicted:
				case e.Type == obs.EvDecision && !decided:
					decided = true
					if e.WorkLeft != 1 {
						t.Fatalf("decision %+v after the eviction sees work done; nothing was saved", e)
					}
				case e.Type == obs.EvDeploy:
					if e.Reload || e.WorkLeft != 1 {
						t.Fatalf("redeploy %+v resumes progress; nothing was saved", e)
					}
					return
				}
			}
			t.Fatal("no eviction followed by a redeploy in the trace")
		})
	}
}
