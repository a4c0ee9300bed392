package runtime_test

// Golden trajectories: the event streams of seven fixed Execute and
// ExecuteDist scenarios, checked in under testdata/trajectories. They
// pin every accounting decision the drivers make — what was decided,
// deployed, billed, checkpointed and evicted, at which virtual instant
// and for how many dollars — so a refactor of the driver loop can be
// shown to change none of it. After an intended change, regenerate
// them with
//
//	go test ./internal/runtime/ -run TestGoldenTrajectories -update-trajectories
//
// and review the diff: it must touch only the fields the change names.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/faultinject"
	"hourglass/internal/obs"
	"hourglass/internal/runtime"
	"hourglass/internal/units"
)

var updateTrajectories = flag.Bool("update-trajectories", false, "rewrite the golden files under testdata/trajectories")

// trajectory renders an event stream in its golden form: each event
// type's ordered subsequence, types in name order, one JSON object per
// line. Superstep events are dropped, and so is every field that
// differs between two runs of the same scenario: wall-clock time and
// process identity (worker ids, a lost shard's accept-order id and the
// connection error that revealed the loss). Grouping by type keeps the
// file stable where the standby goroutine emits concurrently with the
// coordinator; within one type the order is deterministic.
func trajectory(t *testing.T, events []obs.Event) []byte {
	t.Helper()
	var kept []obs.Event
	for _, e := range events {
		if e.Type == obs.EvSuperstep {
			continue
		}
		e.NsStep, e.Proc = 0, ""
		if e.Type == obs.EvShardEvict {
			e.Shard, e.Err = 0, ""
		}
		kept = append(kept, e)
	}
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].Type < kept[j].Type })
	var buf bytes.Buffer
	if err := obs.WriteJSONL(&buf, kept); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// execScenario runs Execute without the wall-clock watchdog, so the
// trajectory depends on the seeds alone.
func execScenario(t *testing.T, sink obs.Sink, app string, store cloud.BlobStore, start units.Seconds) runtime.Report {
	h := getHarness(t, app)
	opts := h.options(t, store, "golden/"+app, h.provisioner(t))
	opts.Watchdog = 0
	opts.Sink = sink
	rep, err := runtime.Execute(context.Background(), opts, start, start+h.relDl)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished {
		t.Fatal("run did not finish")
	}
	assertBitIdentical(t, h.ref, rep.Values)
	return rep
}

// distScenario runs ExecuteDist from start 0 on an 8 → 4 on-demand
// script under a generous deadline.
func distScenario(t *testing.T, sink obs.Sink, job string, launcher *runtime.LoopbackLauncher, window units.Seconds) runtime.Report {
	h := getHarness(t, "pagerank")
	ref := distReference(t)
	prov := &scriptedProv{configs: []cloud.Config{onDemandByCount(t, h.env, 8), onDemandByCount(t, h.env, 4)}}
	opts := h.distOptions(t, launcher.Store, job, prov, ref.Stats.Supersteps, launcher)
	opts.Sink = sink
	opts.WarningWindow = window
	rep, err := runtime.ExecuteDist(context.Background(), opts, 0, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Finished {
		t.Fatal("run did not finish")
	}
	assertBitIdentical(t, ref.Values, rep.Values)
	return rep
}

// trajectoryScenarios are the golden scenarios, by name.
var trajectoryScenarios = []struct {
	name string
	run  func(t *testing.T, sink obs.Sink) runtime.Report
}{
	// Slack-aware provisioning from the start of the synthetic market.
	{"exec_slack_aware_cold", func(t *testing.T, sink obs.Sink) runtime.Report {
		return execScenario(t, sink, "pagerank", cloud.NewDatastore(), 0)
	}},
	// Chaos schedule 5065 under seeded store faults: two market
	// evictions, re-decisions onto other configurations, and a
	// redeploy that finds no readable checkpoint and starts fresh.
	{"exec_chaos_5065", func(t *testing.T, sink obs.Sink) runtime.Report {
		const seed = 5065
		h := getHarness(t, "wcc")
		rng := rand.New(rand.NewSource(seed * 17))
		start := units.Seconds(rng.Float64() * float64(h.horizon-h.relDl))
		return execScenario(t, sink, "wcc", faultinject.Wrap(cloud.NewDatastore(), chaosPolicy(seed)), start)
	}},
	// Saves slowed by up to 600 virtual seconds, at an offset where a
	// price crossing lands inside one of them.
	{"exec_evict_mid_save", func(t *testing.T, sink obs.Sink) runtime.Report {
		h := getHarness(t, "wcc")
		rng := rand.New(rand.NewSource(904))
		start := units.Seconds(rng.Float64() * float64(h.horizon-h.relDl))
		store := faultinject.Wrap(cloud.NewDatastore(), faultinject.Policy{Seed: 77, MaxLatency: 600})
		return execScenario(t, sink, "wcc", store, start)
	}},
	// A worker of the 8-shard set dies at superstep 3; the driver
	// resumes the blobs on 4 shards.
	{"dist_reactive_resize", func(t *testing.T, sink obs.Sink) runtime.Report {
		store := cloud.NewDatastore()
		return distScenario(t, sink, "golden-resize", deathLauncher(t, store, 3, true, false), 0)
	}},
	// A spot set evicted by the market mid-run, absorbed by a warm
	// on-demand standby after a forced boundary checkpoint.
	{"dist_warm_market_cutover", func(t *testing.T, sink obs.Sink) runtime.Report {
		h := getHarness(t, "pagerank")
		ref := distReference(t)
		spot := transientByCount(t, h.env, 8)
		start, _ := spotEvictionOffset(h, spot, ref.Stats.Supersteps)
		if start < 0 {
			t.Fatal("no start offset with a mid-run spot eviction")
		}
		store := cloud.NewDatastore()
		prov := &scriptedProv{configs: []cloud.Config{spot, onDemandByCount(t, h.env, 4)}}
		opts := h.distOptions(t, store, "golden-market", prov, ref.Stats.Supersteps,
			&runtime.LoopbackLauncher{Store: store, Logf: t.Logf})
		opts.Sink = sink
		opts.WarningWindow = 600
		rep, err := runtime.ExecuteDist(context.Background(), opts, start, start+200_000)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Finished || rep.WarmCutovers != 1 {
			t.Fatalf("finished=%v cutovers=%d, want a finished run with one cutover", rep.Finished, rep.WarmCutovers)
		}
		assertBitIdentical(t, ref.Values, rep.Values)
		return rep
	}},
	// A forewarned death with a 50 s window: too short to boot a
	// standby, long enough for the forced save.
	{"dist_standby_not_ready", func(t *testing.T, sink obs.Sink) runtime.Report {
		store := cloud.NewDatastore()
		return distScenario(t, sink, "golden-miss", deathLauncher(t, store, 6, true, true), 50)
	}},
	// A forewarned death that never happens: the booted standby is
	// discarded when the job finishes.
	{"dist_standby_discarded", func(t *testing.T, sink obs.Sink) runtime.Report {
		store := cloud.NewDatastore()
		return distScenario(t, sink, "golden-discard", deathLauncher(t, store, 6, false, true), 2000)
	}},
}

// TestGoldenTrajectories also checks that each report is the fold of
// the stream its sink recorded: a sink or tee that drops, reorders or
// invents an event shows as a report that no longer matches its trace.
func TestGoldenTrajectories(t *testing.T) {
	for _, sc := range trajectoryScenarios {
		t.Run(sc.name, func(t *testing.T) {
			sink := &listSink{}
			rep := sc.run(t, sink)
			events := sink.snapshot()
			if sum := obs.Summarize(events); sum != rep.Summary {
				t.Errorf("recorded trace folds to\n%+v\nthe run reported\n%+v", sum, rep.Summary)
			}
			got := trajectory(t, events)
			path := filepath.Join("testdata", "trajectories", sc.name+".jsonl")
			if *updateTrajectories {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update-trajectories)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("trajectory differs from %s:\n%s", path, firstDiff(want, got))
			}
		})
	}
}

// firstDiff names the first line where two golden renderings differ.
func firstDiff(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d\n want %s\n  got %s", i+1, wl, gl)
		}
	}
	return "identical lines, different bytes"
}

// TestExecuteDecidesFromTheDurableFrontier: a deployment that reloads a
// checkpoint was decided with the work that checkpoint leaves — on both
// drivers, after a market eviction (also one that lands mid-save), a
// lost shard and a last-resort pin.
func TestExecuteDecidesFromTheDurableFrontier(t *testing.T) {
	for _, sc := range trajectoryScenarios {
		switch sc.name {
		case "exec_evict_mid_save", "exec_chaos_5065", "dist_reactive_resize":
		default:
			continue
		}
		t.Run(sc.name, func(t *testing.T) {
			sink := &listSink{}
			sc.run(t, sink)
			reloads := 0
			var last obs.Event
			for _, e := range sink.snapshot() {
				switch {
				case e.Type == obs.EvDecision:
					last = e
				case e.Type == obs.EvDeploy && e.Reload:
					reloads++
					if last.WorkLeft != e.WorkLeft {
						t.Errorf("deploy at %v reloads work left %v, decided at %v with work left %v",
							e.T, e.WorkLeft, last.T, last.WorkLeft)
					}
				}
			}
			if reloads == 0 {
				t.Fatal("no deployment reloaded a checkpoint")
			}
		})
	}
}
