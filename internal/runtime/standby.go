// Warm-standby recovery: when the driver learns of an upcoming
// eviction a WarningWindow early — from the market's forecast price
// crossing, or from a launcher that forewarns a scheduled worker death
// — it re-decides the fallback configuration immediately and boots the
// next coordinator listener and worker set *concurrently* with the
// still-running doomed session. The projection is re-derived at every
// boundary the session survives, since billed saves move the clock.
// The standby workers prefetch the newest checkpoint chain into a
// read-through cache while they wait for the coordinator to accept.
// When the window also fits one checkpoint save, the loop forces the
// doomed session to seal a final checkpoint at the eviction boundary
// (loop.Loop.Warning, the rule every executor runs; this file adds only
// the standby). At the eviction instant the driver cuts over: the
// standby's wait + boot + reload all happened inside the window,
// overlapped with paid-for compute, so the recovery downtime on the
// virtual clock is zero and the resume point is within one superstep
// of the boundary. A standby that cannot be ready in time (market
// capacity, launch failure, eviction landing early) is a recorded miss
// and the driver falls back to the reactive path — the run still
// finishes, just with cold recovery billing.
package runtime

import (
	"context"
	"net"

	"hourglass/internal/loop"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

// standbyState is one armed standby, a loop.Standby. A standby that
// never became launchable leaves ws nil, and its methods do nothing.
type standbyState struct {
	loop.Choice
	l       *loop.Loop
	avail   units.Seconds // market availability of the standby set
	readyAt units.Seconds // avail + t_boot + t_load: earliest cutover
	ln      net.Listener
	ws      WorkerSet
	cancel  context.CancelFunc
}

// Loss implements loop.Warner: the launcher's forewarned worker death.
func (d *distDriver) Loss(s *loop.Session) int { return d.opts.Launcher.DeathWarning(s.Attempt) }

// Warn implements loop.Warner: it re-decides for the post-eviction
// world — the standby takes over at the projected interruption instant
// with the projected durable frontier — and boots the standby set
// concurrently with the doomed session. It runs on the coordinator
// goroutine like every other loop step; Launch only starts the workers,
// whose boot and prefetch overlap the session. Billing is deferred to
// cutover or discard time.
func (d *distDriver) Warn(s *loop.Session) loop.Standby {
	barrier, evProj, _ := s.Interruption()
	warnAt := max(evProj-d.Warning, d.T)
	durable := s.Durable
	if s.ForceAt > 0 {
		durable = s.ForceAt
	} else if s.Checkpointing && s.PlanEnd > 0 && s.PlanEnd < barrier {
		durable = s.PlanEnd // reactive: the plan's checkpoint seals first
	}
	sb := &standbyState{l: d.Loop}
	wl := d.WorkLeft(durable)
	d.Emit(obs.Event{Type: obs.EvWarning, T: float64(warnAt), Job: d.Env.Job.Name,
		Config: s.CS.Config.ID(), WorkLeft: wl, DurSec: float64(d.Warning)})

	dec, cs, err := d.Decide(s.Ctx, d.State(evProj, durable))
	if err != nil {
		d.standbyMiss(warnAt, "", err)
		return sb
	}
	avail, err := d.Env.Market.NextAvailable(cs.Config, warnAt)
	readyAt := avail + cs.Boot + cs.Load
	// The standby outlives the doomed session's context by design: tie
	// it to the run context and cancel at adoption or discard.
	sbCtx, cancel := context.WithCancel(s.Ctx)
	if err == nil && readyAt <= evProj {
		sb.ln, sb.ws, err = d.launch(sbCtx, cs.Config.Count, s.Attempt+1, d.opts.Job)
	}
	if sb.ws == nil {
		// Not launchable, or the fallback machines cannot be up before
		// the primaries die: booting them would buy nothing over
		// reactive recovery.
		cancel()
		d.standbyMiss(warnAt, cs.Config.ID(), err)
		return sb
	}
	d.Emit(obs.Event{Type: obs.EvStandby, T: float64(warnAt), Job: d.Env.Job.Name,
		Config: cs.Config.ID(), WorkLeft: wl, Ready: true})
	sb.Choice, sb.cancel = loop.Choice{Dec: dec, CS: cs}, cancel
	sb.avail, sb.readyAt = avail, readyAt
	return sb
}

// standbyMiss records a standby that never became launchable.
func (d *distDriver) standbyMiss(at units.Seconds, config string, err error) {
	if err != nil {
		d.Logf("runtime: dist job %q standby infeasible: %v", d.Env.Job.Name, err)
	}
	d.Emit(obs.Event{Type: obs.EvStandby, T: float64(at), Job: d.Env.Job.Name,
		Config: config, Ready: false})
}

// Settle implements loop.Standby at the eviction that ended session s,
// at s.NextEvict. Ready in time: bill the overlap window on the standby
// config, record the warm cutover and hand the set to the next
// deployment. Not ready: discard.
func (sb *standbyState) Settle(s *loop.Session) (*loop.Choice, error) {
	l, evTime := sb.l, s.NextEvict
	if sb.ws == nil {
		return nil, nil // the miss was already recorded
	}
	if sb.readyAt > evTime {
		// The eviction landed earlier than projected (a worker death
		// raced the forecast): the standby never got ready.
		return nil, sb.Discard(evTime)
	}
	if err := l.Spend(sb.CS.Config, sb.avail, evTime, sb.CS.Load); err != nil {
		sb.Teardown()
		return nil, err
	}
	l.Emit(obs.Event{Type: obs.EvCutover, T: float64(evTime), Job: l.Env.Job.Name,
		Config: sb.CS.Config.ID(), WorkLeft: l.WorkLeft(s.Durable), DurSec: 0})
	sb.Warm = sb
	return &sb.Choice, nil
}

// Discard implements loop.Standby: it releases a launched standby that
// never cut over, billing its machines for the time they ran and
// recording the miss.
func (sb *standbyState) Discard(billTo units.Seconds) error {
	if sb.ws == nil {
		return nil
	}
	sb.Teardown()
	if billTo > sb.avail {
		if err := sb.l.Spend(sb.CS.Config, sb.avail, billTo, 0); err != nil {
			return err
		}
	}
	sb.l.Emit(obs.Event{Type: obs.EvStandby, T: float64(billTo), Job: sb.l.Env.Job.Name,
		Config: sb.CS.Config.ID(), Ready: false})
	return nil
}

// Teardown implements loop.Standby: it releases a standby's processes
// without accounting — the error and cancellation exits, where the
// trace is already incomplete. A never-launched standby has nothing to
// release.
func (sb *standbyState) Teardown() {
	if sb.ws == nil {
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
