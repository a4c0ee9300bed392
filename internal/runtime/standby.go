// Warm-standby recovery: when the driver learns of an upcoming
// eviction a WarningWindow early — from the market's forecast price
// crossing, or from a launcher that forewarns a scheduled worker death
// — it re-decides the fallback configuration immediately and boots the
// next coordinator listener and worker set *concurrently* with the
// still-running doomed session. The standby workers prefetch the
// newest checkpoint chain into a read-through cache while they wait for
// the coordinator to accept, and when the window also fits one
// checkpoint save the doomed session is forced to seal a final
// checkpoint at the eviction boundary. At the eviction instant the
// driver cuts over: the standby's wait + boot + reload all happened
// inside the window, overlapped with paid-for compute, so the recovery
// downtime on the virtual clock is zero and the resume point is within
// one superstep of the boundary. A standby that cannot be ready in
// time (market capacity, launch failure, eviction landing early) is a
// recorded miss and the driver falls back to the reactive path — the
// run still finishes, just with cold recovery billing.
package runtime

import (
	"context"
	"math"
	"net"

	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

// standbyState is one armed standby. The orchestration goroutine owns
// every field until it closes done; afterwards the driver goroutine
// owns them. A standby that never became launchable leaves ws nil.
type standbyState struct {
	done chan struct{}

	cs      *core.ConfigStats
	avail   units.Seconds // market availability of the standby set
	readyAt units.Seconds // avail + boot + prefetch: earliest cutover
	reload  units.Seconds // prefetch I/O priced into readyAt
	ln      net.Listener
	ws      WorkerSet
	cancel  context.CancelFunc
	attempt int
}

// armStandby wires the warning machinery into a session about to start:
// it projects the interruption boundary (injected market eviction,
// forewarned worker death, whichever lands first), decides whether the
// window fits a final in-window save, and hands the monitor a warning
// trigger that spawns the standby orchestration goroutine. It returns
// the forced-checkpoint superstep for the dist config (0 = none) and
// the armed state (nil = no warning possible for this segment).
func (d *distDriver) armStandby(ctx context.Context, mon *monitor, cs *core.ConfigStats, attempt, evictAfter, remSteps int, secPerStep, nextEvict units.Seconds) (int, *standbyState) {
	if d.opts.WarningWindow <= 0 {
		return 0, nil
	}
	// The interruption boundary in session supersteps, and the virtual
	// instant the machines disappear.
	boundary := evictAfter
	evProj := nextEvict
	if ws, ok := d.opts.Launcher.(WarningSource); ok {
		if die := ws.DeathWarning(attempt); die > 0 {
			// The worker dies while computing absolute superstep `die`,
			// so the session completes die-1 supersteps past the durable
			// frontier.
			deathSteps := die - 1 - d.durable
			if deathSteps >= 1 && deathSteps < remSteps && (boundary == 0 || deathSteps < boundary) {
				boundary = deathSteps
				evProj = d.t + units.Seconds(float64(deathSteps)*float64(secPerStep))
			}
		}
	}
	if boundary <= 0 {
		return 0, nil
	}

	warnSteps := int(math.Ceil(float64(d.opts.WarningWindow) / float64(secPerStep)))
	if warnSteps < 1 {
		warnSteps = 1
	}
	warnAfter := boundary - warnSteps
	if warnAfter < 1 {
		warnAfter = 1
	}
	warnAt := evProj - d.opts.WarningWindow
	if warnAt < d.t {
		warnAt = d.t
	}

	// When the window fits one save, force a final checkpoint at the
	// boundary: the standby resumes from the eviction instant itself
	// instead of the last cadence checkpoint.
	forceCkptAt := 0
	projDurable := d.durable
	if d.opts.WarningWindow >= cs.Save {
		forceCkptAt = d.durable + boundary
		projDurable = d.durable + boundary
		if evictAfter > 0 && boundary == evictAfter {
			// Injected eviction: the monitor must let the forced save
			// seal before cancelling. A forewarned death needs no monitor
			// trip — the loss itself ends the session.
			mon.warmBoundary = forceCkptAt
		}
	} else if every := d.opts.CheckpointEvery; every > 0 {
		// Reactive durability: project the last cadence checkpoint that
		// seals strictly before the boundary.
		projDurable = d.durable + (boundary-1)/every*every
	}

	sb := &standbyState{done: make(chan struct{}), attempt: attempt + 1}
	mon.warnAfter = warnAfter
	mon.onWarn = func() {
		go d.startStandby(ctx, sb, cs, warnAt, evProj, projDurable)
	}
	return forceCkptAt, sb
}

// startStandby is the orchestration goroutine behind a fired warning.
// It runs concurrently with the doomed session; the driver goroutine is
// parked inside dist.AcceptAndRun and joins on sb.done before reading
// the report again, so the report mutations here are unsynchronized by
// design. Billing is deferred to cutover/discard time on the driver
// goroutine to keep the EvSpend fold order deterministic.
func (d *distDriver) startStandby(ctx context.Context, sb *standbyState, cur *core.ConfigStats, warnAt, evProj units.Seconds, projDurable int) {
	defer close(sb.done)
	wl := d.workLeft(projDurable)
	d.rep.Warnings++
	d.emit(obs.Event{Type: obs.EvWarning, T: float64(warnAt), Job: d.env.Job.Name,
		Config: cur.Config.ID(), WorkLeft: wl, DurSec: float64(d.opts.WarningWindow)})

	// Re-decide for the post-eviction world: the standby takes over at
	// the projected eviction instant with the projected durable frontier.
	_, cs, err := d.decide(ctx, core.State{Now: evProj, WorkLeft: wl, Deadline: d.deadline})
	if err != nil {
		d.standbyMiss(warnAt, "", err)
		return
	}
	shards := cs.Config.Count
	avail, reload, err := d.price(cs, warnAt, projDurable > 0, 0, d.evenSplit(shards))
	if err != nil {
		d.standbyMiss(warnAt, cs.Config.ID(), err)
		return
	}
	readyAt := avail + cs.Boot + reload
	if readyAt > evProj {
		// The fallback machines cannot be up before the primaries die:
		// booting them would buy nothing over reactive recovery.
		d.standbyMiss(warnAt, cs.Config.ID(), nil)
		return
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.standbyMiss(warnAt, cs.Config.ID(), err)
		return
	}
	// The standby outlives the doomed segment's context by design: tie
	// it to the run context and cancel at adoption or discard.
	sbCtx, cancel := context.WithCancel(ctx)
	var ws WorkerSet
	if sl, ok := d.opts.Launcher.(StandbyLauncher); ok {
		ws, err = sl.LaunchStandby(sbCtx, ln.Addr().String(), shards, sb.attempt, d.opts.Job)
	} else {
		ws, err = d.opts.Launcher.Launch(sbCtx, ln.Addr().String(), shards, sb.attempt)
	}
	if err != nil {
		cancel()
		ln.Close()
		d.standbyMiss(warnAt, cs.Config.ID(), err)
		return
	}
	d.emit(obs.Event{Type: obs.EvStandby, T: float64(warnAt), Job: d.env.Job.Name,
		Config: cs.Config.ID(), WorkLeft: wl, Ready: true})
	sb.cs, sb.avail, sb.readyAt, sb.reload = cs, avail, readyAt, reload
	sb.ln, sb.ws, sb.cancel = ln, ws, cancel
}

// standbyMiss records a standby that never became launchable.
func (d *distDriver) standbyMiss(at units.Seconds, config string, err error) {
	if err != nil {
		d.logf("runtime: dist job %q standby infeasible: %v", d.env.Job.Name, err)
	}
	d.rep.StandbyMisses++
	d.emit(obs.Event{Type: obs.EvStandby, T: float64(at), Job: d.env.Job.Name,
		Config: config, Ready: false})
}

// settleStandby decides a launched standby's fate at the eviction that
// ended its segment, at absolute time evTime. Ready in time: bill the
// overlap window on the standby config, record the warm cutover and
// hand the set to the next run-loop iteration. Not ready (or never
// launched): discard.
func (d *distDriver) settleStandby(sb *standbyState, evTime units.Seconds) error {
	if sb == nil || sb.ws == nil {
		return nil // not armed, or the miss was already recorded
	}
	if sb.readyAt > evTime {
		// The eviction landed earlier than projected (a worker death
		// raced the forecast): the standby never got ready.
		return d.discardStandby(sb, evTime)
	}
	if err := d.spend(sb.cs.Config, sb.avail, evTime); err != nil {
		d.teardownStandby(sb)
		return err
	}
	d.rep.IOTime += sb.reload
	d.rep.WarmCutovers++
	d.emit(obs.Event{Type: obs.EvCutover, T: float64(evTime), Job: d.env.Job.Name,
		Config: sb.cs.Config.ID(), WorkLeft: d.workLeft(d.durable), DurSec: 0})
	d.pending = sb
	return nil
}

// discardStandby releases a launched standby that never cut over,
// billing its machines for the time they ran and recording the miss.
func (d *distDriver) discardStandby(sb *standbyState, billTo units.Seconds) error {
	if sb == nil || sb.ws == nil {
		return nil
	}
	d.teardownStandby(sb)
	if billTo > sb.avail {
		if err := d.spend(sb.cs.Config, sb.avail, billTo); err != nil {
			return err
		}
	}
	d.rep.StandbyMisses++
	d.emit(obs.Event{Type: obs.EvStandby, T: float64(billTo), Job: d.env.Job.Name,
		Config: sb.cs.Config.ID(), Ready: false})
	return nil
}

// teardownStandby releases a standby's processes without accounting —
// the error and cancellation exits, where the trace is already
// incomplete.
func (d *distDriver) teardownStandby(sb *standbyState) {
	if sb == nil || sb.ws == nil {
		return
	}
	sb.cancel()
	sb.ws.Stop()
	// Listener first: the workers connected through its backlog and sit
	// in a blocking read for a welcome nobody will send. Closing it
	// resets those connections; Wait before Close never returns.
	sb.ln.Close()
	sb.ws.Wait()
}
