// hourglass-serve is the recurrent-job controller daemon: the §3
// workload model ("time-constrained graph jobs executed recurrently
// with a deadline") run as a long-lived service. It owns a table of
// recurring jobs, fires each recurrence against the shared spot
// market, and exposes an HTTP control plane with per-job history and
// Prometheus metrics.
//
//	hourglass-serve -addr :8080 -seed 42 -state /tmp/hourglass.json
//
//	# submit a recurrent PageRank (every 30m, 48 runs, 50% slack)
//	curl -s -X POST localhost:8080/jobs -d '{
//	  "kind":"pagerank","strategy":"hourglass",
//	  "slack":0.5,"period":"30m","runs":48}'
//
//	curl -s localhost:8080/jobs/job-1/history | head
//	curl -s localhost:8080/metrics | grep hourglass_cost
//	curl -s localhost:8080/debug/trace | tail        # recent trace events
//	go tool pprof localhost:8080/debug/pprof/profile # CPU profile
//
// With -backend=engine or -backend=dist each recurrence executes a
// real vertex program through the eviction-aware runtime
// (internal/runtime): evictions are injected from the market traces,
// the provisioner re-decides the configuration — and with it the worker
// count — after every one, and checkpoints reload across worker-count
// changes. engine runs the in-process engine under a wall-clock
// watchdog; dist boots a coordinator plus one shard worker per decided
// machine over loopback TCP.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"hourglass"
	"hourglass/internal/admission"
	"hourglass/internal/cloud"
	"hourglass/internal/dist"
	"hourglass/internal/faultinject"
	"hourglass/internal/obs"
	"hourglass/internal/scheduler"
	"hourglass/internal/units"
)

func main() {
	addr := flag.String("addr", ":8080", "control-plane listen address")
	seed := flag.Int64("seed", 42, "market trace + offset seed")
	traceDays := flag.Float64("trace-days", 10, "length of the generated market month")
	workers := flag.Int("workers", 4, "concurrent recurrence executions")
	history := flag.Int("history", 1024, "retained run records per job")
	state := flag.String("state", "", "state file: restored at boot, written on shutdown")
	drain := flag.Duration("drain", 30*time.Second, "graceful-shutdown drain budget")
	traceRing := flag.Int("trace-ring", 4096, "trace events retained for /debug/trace (0 disables tracing)")
	traceOut := flag.String("trace-out", "", "append the full trace event stream to this JSONL file")
	chaos := flag.Bool("chaos", false, "inject seeded faults into the snapshot store (soak testing)")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-schedule seed")
	chaosErr := flag.Float64("chaos-error-rate", 0.2, "probability of a transient store error per op")
	chaosCorrupt := flag.Float64("chaos-corrupt-rate", 0.05, "probability of durable write corruption per put")
	chaosLatency := flag.Duration("chaos-latency", 2*time.Second, "max injected (virtual) latency per op")
	backendName := flag.String("backend", "sim", `recurrence executor: "sim" (trace-driven simulator), "engine" (eviction-aware execution runtime running real vertex programs) or "dist" (the same runtime on coordinator + shard workers over loopback TCP)`)
	distStore := flag.String("dist-store", "", "checkpoint blob directory for shard state (dist backend; empty = in-memory)")
	distKillAt := flag.Int("dist-kill-at", 0, "chaos: kill one shard mid-superstep N on every recurrence's first deployment (dist backend)")
	distDeltaChain := flag.Int("dist-delta-chain", 0, "delta checkpoints per full checkpoint, 0 = always full (dist backend)")
	distBarrier := flag.Duration("dist-barrier-timeout", 0, "coordinator barrier watchdog window, 0 = 30s (dist backend)")
	engineScale := flag.Int("engine-graph-scale", 10, "RMAT scale of the benchmark graph (engine and dist backends)")
	engineWatchdog := flag.Duration("engine-watchdog", 30*time.Second, "wall-clock budget per superstep before a wedged run is reloaded (engine backend)")
	engineRestarts := flag.Int("engine-restart-budget", 8, "restarts before the last-resort on-demand pin (engine and dist backends)")
	engineChaos := flag.Bool("engine-chaos", false, "inject seeded faults into the engine checkpoint store (engine backend)")
	admit := flag.Bool("admission", false, "enable the multi-tenant admission gate: price every submission against the market, pack admitted jobs onto shared deployments, queue or reject the rest")
	admitPool := flag.Int("admission-pool", 16, "max live shared deployments (admission gate)")
	admitQueue := flag.Int("admission-queue", 64, "wait-queue depth before 429 (admission gate)")
	flag.Parse()

	sys, err := hourglass.New(hourglass.Options{Seed: *seed, TraceDays: *traceDays})
	if err != nil {
		log.Fatalf("building system: %v", err)
	}

	// The controller snapshots into a Datastore (the S3 stand-in);
	// -state mirrors that object to a local file across restarts.
	const snapshotKey = "scheduler/state.json"
	base := cloud.NewDatastore()
	var store cloud.BlobStore = base
	if *state != "" {
		if data, err := os.ReadFile(*state); err == nil {
			if _, err := base.Put(snapshotKey, data); err != nil {
				log.Fatalf("seeding state object: %v", err)
			}
			log.Printf("loaded state from %s (%d bytes)", *state, len(data))
		} else if !os.IsNotExist(err) {
			log.Fatalf("reading state file: %v", err)
		}
	}
	if *chaos {
		// Soak mode: the controller's snapshot/restore path runs
		// against a misbehaving store, exercising the retry, checksum
		// and corrupt-skip machinery in a live daemon.
		store = faultinject.Wrap(store, faultinject.Policy{
			Seed:          *chaosSeed,
			PError:        *chaosErr,
			PWriteCorrupt: *chaosCorrupt,
			PReadCorrupt:  *chaosCorrupt,
			PTruncate:     *chaosCorrupt / 2,
			MaxLatency:    units.Seconds(chaosLatency.Seconds()),
		})
		log.Printf("chaos mode: seed=%d error=%.2f corrupt=%.2f latency<=%v",
			*chaosSeed, *chaosErr, *chaosCorrupt, *chaosLatency)
	}

	// The trace plane: a ring answers /debug/trace, optionally teeing
	// the full stream to a JSONL file. The same sink sees the
	// controller's per-run events and the simulator's per-decision
	// stream (wired through the backend).
	var sink obs.Sink
	if *traceRing > 0 {
		var out obs.Sink
		if *traceOut != "" {
			f, err := os.OpenFile(*traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				log.Fatalf("opening trace file: %v", err)
			}
			defer f.Close()
			out = obs.NewJSONL(f)
		}
		sink = obs.NewTracer(*traceRing, out)
	}

	// The recurrence executor: the trace-driven simulator by default, or
	// the eviction-aware execution runtime (real vertex programs, real
	// checkpoint reloads across worker-count changes) on the in-process
	// engine (-backend=engine) or on shard worker sets (-backend=dist).
	var backend scheduler.Backend
	switch *backendName {
	case "sim":
		backend = scheduler.SystemBackend{Sys: sys, Sink: sink}
	case "engine", "dist":
		rb := &scheduler.RuntimeBackend{
			Sys:            sys,
			Dist:           *backendName == "dist",
			Sink:           sink,
			GraphScale:     *engineScale,
			RestartBudget:  *engineRestarts,
			Watchdog:       *engineWatchdog,
			BarrierTimeout: *distBarrier,
			DeltaChain:     *distDeltaChain,
			Logf:           log.Printf,
		}
		switch {
		case rb.Dist && *distStore != "":
			fsStore, err := cloud.NewFSStore(*distStore)
			if err != nil {
				log.Fatalf("opening dist store: %v", err)
			}
			rb.Store = fsStore
		case !rb.Dist && *engineChaos:
			rb.Store = faultinject.Wrap(cloud.NewDatastore(), faultinject.Policy{
				Seed:           *chaosSeed,
				PError:         *chaosErr,
				PWriteCorrupt:  *chaosCorrupt,
				PReadCorrupt:   *chaosCorrupt,
				PTruncate:      *chaosCorrupt / 2,
				MaxLatency:     units.Seconds(chaosLatency.Seconds()),
				MaxConsecutive: 2,
			})
			log.Printf("engine chaos: checkpoint store faults seed=%d error=%.2f corrupt=%.2f",
				*chaosSeed, *chaosErr, *chaosCorrupt)
		}
		if rb.Dist && *distKillAt > 0 {
			kill := *distKillAt
			rb.ShardOpts = func(attempt, shard int) dist.ShardOptions {
				var opts dist.ShardOptions
				if attempt == 0 && shard == 0 {
					opts.DieAtSuperstep = kill
				}
				return opts
			}
		}
		backend = rb
		log.Printf("%s backend: graph scale %d, restart budget %d",
			*backendName, *engineScale, *engineRestarts)
	default:
		log.Fatalf("unknown -backend %q (want sim, engine or dist)", *backendName)
	}

	var admissionCfg *admission.Config
	if *admit {
		admissionCfg = &admission.Config{MaxDeployments: *admitPool, QueueDepth: *admitQueue}
		log.Printf("admission gate: pool %d deployments, queue depth %d", *admitPool, *admitQueue)
	}

	ctrl, err := scheduler.New(scheduler.Options{
		Backend:      backend,
		Workers:      *workers,
		HistoryLimit: *history,
		Seed:         *seed,
		Store:        store,
		SnapshotKey:  snapshotKey,
		Sink:         sink,
		Admission:    admissionCfg,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatalf("starting controller: %v", err)
	}

	srv := &http.Server{Addr: *addr, Handler: ctrl.Handler()}
	go func() {
		log.Printf("hourglass-serve listening on %s", *addr)
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("http: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down (draining up to %v)...", *drain)

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	_ = srv.Shutdown(ctx)
	if err := ctrl.Shutdown(ctx); err != nil {
		log.Printf("controller shutdown: %v", err)
	}
	// Mirror from the underlying datastore, not the chaos wrapper:
	// the injector must never corrupt the local state file.
	if *state != "" {
		if data, _, err := base.Get(snapshotKey); err == nil {
			if err := os.WriteFile(*state, data, 0o644); err != nil {
				log.Printf("writing state file: %v", err)
			} else {
				log.Printf("state saved to %s (%d bytes)", *state, len(data))
			}
		}
	}
}
