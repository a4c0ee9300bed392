package runtime_test

import (
	"testing"

	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/sim"
	"hourglass/internal/units"
)

// TestOnePrice: every executor bills I/O at the provisioner's price. On
// a clean store each deployment that boots machines spans exactly the
// market wait, t_boot and t_load, fresh or reloading, and each save
// bills exactly t_save of I/O; a warm cutover spans nothing, and the
// standby it adopts bills t_load. Under injected store faults the same
// prices hold with a positive surcharge on top. It runs the seven golden
// trajectories and one simulation of each job kind.
func TestOnePrice(t *testing.T) {
	var reloads, saves int
	for _, sc := range trajectoryScenarios {
		t.Run(sc.name, func(t *testing.T) {
			sink := &listSink{}
			sc.run(t, sink)
			// The two wcc scenarios are the ones run over a faulty store.
			app, faulty := "pagerank", false
			if sc.name == "exec_chaos_5065" || sc.name == "exec_evict_mid_save" {
				app, faulty = "wcc", true
			}
			p := checkPrice(t, getHarness(t, app).env, sink.snapshot(), faulty)
			reloads, saves = reloads+p.reloads, saves+p.saves
		})
	}
	for _, app := range []string{"pagerank", "sssp", "wcc"} {
		t.Run("sim_"+app, func(t *testing.T) {
			h := getHarness(t, app)
			sink := &listSink{}
			r := &sim.Runner{Env: h.env, Sink: sink}
			start := units.Seconds(0.37 * float64(h.horizon-h.relDl))
			if _, err := r.Run(h.provisioner(t), start, start+h.relDl); err != nil {
				t.Fatal(err)
			}
			p := checkPrice(t, h.env, sink.snapshot(), false)
			reloads, saves = reloads+p.reloads, saves+p.saves
		})
	}
	if reloads == 0 || saves == 0 {
		t.Errorf("%d reloads and %d saves checked: the runs exercise neither price", reloads, saves)
	}
}

// priced is what checkPrice found in one trace.
type priced struct {
	reloads, saves int
	surcharge      float64 // I/O seconds billed above the price
}

// checkPrice checks every deployment and every I/O charge of one traced
// run against the env's prices. With faulty, a charge may exceed its
// price, and the excess must be positive in all.
func checkPrice(t *testing.T, env *core.Env, events []obs.Event, faulty bool) priced {
	t.Helper()
	stats := func(id string) *core.ConfigStats {
		for i := range env.Stats {
			if env.Stats[i].Config.ID() == id {
				return &env.Stats[i]
			}
		}
		t.Fatalf("no configuration %q in the env", id)
		return nil
	}
	var p priced
	// over checks a billed value against its price and adds the excess.
	over := func(what string, got, price float64) {
		switch {
		case faulty && got >= price:
			p.surcharge += got - price
		case got != price:
			t.Errorf("%s: billed %v, priced %v", what, got, price)
		}
	}
	type billed struct {
		config string
		from   float64
	}
	// The deployments: a cutover's is warm, every other one boots
	// machines, billed from the instant the market has them.
	loads := map[billed]bool{}
	warm := false
	for _, e := range events {
		switch e.Type {
		case obs.EvCutover:
			warm = true
		case obs.EvDeploy:
			if e.Reload {
				p.reloads++
			}
			if warm {
				warm = false
				if e.DurSec != 0 {
					t.Errorf("warm deploy at %v spans %v s, want 0", e.T, e.DurSec)
				}
				continue
			}
			cs := stats(e.Config)
			start := units.Seconds(e.T)
			avail, err := env.Market.NextAvailable(cs.Config, start)
			if err != nil {
				t.Fatal(err)
			}
			over("deploy span", e.DurSec, float64(avail+cs.Boot+cs.Load-start))
			loads[billed{e.Config, float64(avail)}] = true
		}
	}
	// The I/O charges: a deployment's or an adopted standby's load
	// (billed just before its cutover), else a save.
	for i, e := range events {
		if e.Type != obs.EvSpend || e.IOSec == 0 {
			continue
		}
		cs := stats(e.Config)
		switch {
		case loads[billed{e.Config, e.T}]:
			over("deploy load", e.IOSec, float64(cs.Load))
		case i+1 < len(events) && events[i+1].Type == obs.EvCutover:
			over("standby load", e.IOSec, float64(cs.Load))
		default:
			p.saves++
			over("save", e.IOSec, float64(cs.Save))
		}
	}
	if faulty && p.surcharge <= 0 {
		t.Errorf("store faults billed no surcharge")
	}
	return p
}
