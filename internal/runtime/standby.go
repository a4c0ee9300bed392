// Warm-standby recovery: when the driver learns of an upcoming
// eviction a WarningWindow early — from the market's forecast price
// crossing, or from a launcher that forewarns a scheduled worker death
// — it re-decides the fallback configuration immediately and boots the
// next coordinator listener and worker set *concurrently* with the
// still-running doomed session. The projection is re-derived at every
// boundary the session survives, since billed saves move the clock.
// The standby workers prefetch the newest checkpoint chain into a
// read-through cache while they wait for the coordinator to accept,
// and when the window also fits one checkpoint save the doomed session
// is forced to seal a final checkpoint at the eviction boundary. At the eviction instant the
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

// standbyState is one armed standby. A standby that never became
// launchable leaves ws nil.
type standbyState struct {
	choice
	avail   units.Seconds // market availability of the standby set
	readyAt units.Seconds // avail + boot + prefetch: earliest cutover
	reload  units.Seconds // prefetch I/O priced into readyAt
	ln      net.Listener
	ws      WorkerSet
	cancel  context.CancelFunc
}

// interruption projects, from the clock, the live session's
// interruption — the injected market eviction or a forewarned worker
// death, whichever lands first: its boundary as an absolute superstep
// (0 = none before the job ends), the virtual instant the machines
// disappear, and whether it is the market's.
func (s *session) interruption(d *distDriver) (boundary int, at units.Seconds, market bool) {
	at = s.nextEvict
	if k := d.stepsBefore(s.cs, at); k < d.total-s.billed {
		boundary, market = s.billed+k, true
	}
	// The worker dies while computing superstep die, after die-1.
	if die := d.opts.Launcher.DeathWarning(s.attempt) - 1; die > s.billed && die < d.total && (boundary == 0 || die < boundary) {
		boundary, at, market = die, d.segEnd(s.cs, die-s.billed), false
	}
	return boundary, at, market
}

// armWarning arms the warning WarningWindow ahead of the projected
// interruption of an ExecuteDist session. When the window fits one
// save, it also forces a final checkpoint at the interruption's
// boundary: the standby then resumes from the interruption itself
// instead of the plan's last checkpoint. A market eviction stops the
// session once that save seals (see session.close); a forewarned death
// needs no stop — the loss itself ends the session.
func (s *session) armWarning() {
	s.warnAt, s.forceAt, s.warmTrip = 0, 0, false
	d, ok := s.sub.(*distDriver)
	if !ok || d.opts.WarningWindow <= 0 {
		return
	}
	boundary, _, market := s.interruption(d)
	if boundary == 0 {
		return
	}
	warnSteps := max(int(math.Ceil(float64(d.opts.WarningWindow)/float64(d.stepTime(s.cs)))), 1)
	s.warnAt = max(boundary-warnSteps, s.done+1)
	if d.opts.WarningWindow >= s.cs.Save {
		s.forceAt, s.warmTrip = boundary, market
	}
}

// warn fires the warning: it re-decides for the post-eviction world —
// the standby takes over at the projected interruption instant with the
// projected durable frontier — and boots the standby set concurrently
// with the doomed session. It runs on the coordinator goroutine like
// every other loop step; Launch only starts the workers, whose boot and
// prefetch overlap the session. Billing is deferred to cutover or
// discard time.
func (s *session) warn() {
	d := s.sub.(*distDriver) // only armWarning arms a warning
	boundary, evProj, _ := s.interruption(d)
	warnAt := max(evProj-d.opts.WarningWindow, d.t)
	durable := s.durable
	if s.forceAt > 0 {
		durable = s.forceAt
	} else if s.checkpointing && s.planEnd > 0 && s.planEnd < boundary {
		durable = s.planEnd // reactive: the plan's checkpoint seals first
	}
	sb := &standbyState{}
	s.sb = sb
	wl := d.workLeft(durable)
	d.emit(obs.Event{Type: obs.EvWarning, T: float64(warnAt), Job: d.env.Job.Name,
		Config: s.cs.Config.ID(), WorkLeft: wl, DurSec: float64(d.opts.WarningWindow)})

	dec, cs, err := d.decide(s.ctx, core.State{Now: evProj, WorkLeft: wl, Deadline: d.deadline})
	if err != nil {
		d.standbyMiss(warnAt, "", err)
		return
	}
	avail, reload, err := d.price(cs, warnAt, durable > 0, 0, d.evenSplit(cs.Config.Count))
	readyAt := avail + cs.Boot + reload
	// The standby outlives the doomed session's context by design: tie
	// it to the run context and cancel at adoption or discard.
	sbCtx, cancel := context.WithCancel(s.ctx)
	if err == nil && readyAt <= evProj {
		sb.ln, sb.ws, err = d.launch(sbCtx, cs.Config.Count, s.attempt+1, d.opts.Job)
	}
	if sb.ws == nil {
		// Not launchable, or the fallback machines cannot be up before
		// the primaries die: booting them would buy nothing over
		// reactive recovery.
		cancel()
		d.standbyMiss(warnAt, cs.Config.ID(), err)
		return
	}
	d.emit(obs.Event{Type: obs.EvStandby, T: float64(warnAt), Job: d.env.Job.Name,
		Config: cs.Config.ID(), WorkLeft: wl, Ready: true})
	sb.choice, sb.cancel = choice{dec: dec, cs: cs}, cancel
	sb.avail, sb.readyAt, sb.reload = avail, readyAt, reload
}

// standbyMiss records a standby that never became launchable.
func (l *loop) standbyMiss(at units.Seconds, config string, err error) {
	if err != nil {
		l.logf("runtime: dist job %q standby infeasible: %v", l.env.Job.Name, err)
	}
	l.emit(obs.Event{Type: obs.EvStandby, T: float64(at), Job: l.env.Job.Name,
		Config: config, Ready: false})
}

// settleStandby decides a launched standby's fate at the eviction that
// ended its session, at s.nextEvict. Ready in time: bill the overlap
// window on the standby config, record the warm cutover and hand the
// set to the next run-loop iteration. Not ready (or never launched):
// discard.
func (s *session) settleStandby() error {
	sb, l, evTime := s.sb, s.l, s.nextEvict
	if sb == nil || sb.ws == nil {
		return nil // not armed, or the miss was already recorded
	}
	if sb.readyAt > evTime {
		// The eviction landed earlier than projected (a worker death
		// raced the forecast): the standby never got ready.
		return s.discardStandby(evTime)
	}
	if err := l.spend(sb.cs.Config, sb.avail, evTime, sb.reload); err != nil {
		sb.teardown()
		return err
	}
	l.emit(obs.Event{Type: obs.EvCutover, T: float64(evTime), Job: l.env.Job.Name,
		Config: sb.cs.Config.ID(), WorkLeft: l.workLeft(s.durable), DurSec: 0})
	l.next, l.pending = &sb.choice, sb
	return nil
}

// discardStandby releases a launched standby that never cut over,
// billing its machines for the time they ran and recording the miss.
func (s *session) discardStandby(billTo units.Seconds) error {
	sb, l := s.sb, s.l
	if sb == nil || sb.ws == nil {
		return nil
	}
	sb.teardown()
	if billTo > sb.avail {
		if err := l.spend(sb.cs.Config, sb.avail, billTo, 0); err != nil {
			return err
		}
	}
	l.emit(obs.Event{Type: obs.EvStandby, T: float64(billTo), Job: l.env.Job.Name,
		Config: sb.cs.Config.ID(), Ready: false})
	return nil
}

// teardown releases a standby's processes without accounting — the
// error and cancellation exits, where the trace is already incomplete.
// A nil or never-launched standby has nothing to release.
func (sb *standbyState) teardown() {
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
