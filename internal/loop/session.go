package loop

import (
	"context"
	"math"

	"hourglass/internal/cloud"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

// Session is one deployment's live run and the plan of its running
// segment. The substrate feeds it every barrier on one goroutine —
// Barrier (or Emit) for each superstep and Save or an EvCheckpoint for
// each sealed checkpoint, CheckpointAt at every barrier the job
// continues past — so the loop's boundary steps (bill, record,
// re-decide, force the warned save) and a Warner's warning all run
// there.
//
// At the plan's boundary the loop consults the provisioner with the
// deployment live. On KeepCurrent the session runs on in place under
// the new plan, its eviction bound and warning re-derived from the
// clock (billed saves move it; a kept deployment's bid crossing does
// not); any other decision stops the session at that barrier, and the
// next iteration of Drive boots the decided configuration.
//
// The exported fields are for the substrate to read; only Cancel is
// its to set.
type Session struct {
	Choice
	Ctx     context.Context // the run's: decisions and standbys outlive the session
	Attempt int             // 0-based deployment number
	// Cancel, when set, is called as the session stops: the deployment
	// checks its context before it runs another superstep.
	Cancel context.CancelFunc

	Durable       int  // superstep of the checkpoint resumed or sealed last (0 = none)
	Done          int  // supersteps computed (absolute)
	Billed        int  // superstep the clock has billed compute through
	PlanEnd       int  // the plan's boundary (0 = run to completion)
	Checkpointing bool // the plan seals a checkpoint at PlanEnd
	NextEvict     units.Seconds
	EvictAt       int // the eviction stops the session after this superstep (0 = none)
	ForceAt       int // the warning's forced save (0 = none)
	Stopped       bool

	l      *Loop
	sub    Substrate
	bootAt units.Seconds
	saveAt int // a requested save that has not sealed (0 = none)

	// The warning, re-derived with the segment; see arm.
	sb       Standby // armed by a Warner's warning (nil = not fired)
	warnAt   int     // warn the Warner after this superstep (0 = never)
	warmTrip bool    // the eviction stops the session at ForceAt

	// Why the loop stopped the session, if it did.
	lost bool
	next *Choice // a boundary decided on another deployment
	err  error
}

// Emit is the deployment's sink: an EvCheckpoint closes the boundary it
// seals, an EvSuperstep reaches its barrier.
func (s *Session) Emit(e obs.Event) {
	if e.Type == obs.EvCheckpoint {
		s.close(e.Superstep, true, cloud.StoreTime{}, &e)
		return
	}
	s.l.Emit(e)
	if e.Type == obs.EvSuperstep {
		s.Barrier(e.Superstep)
	}
}

// Barrier reports that the deployment completed superstep x.
func (s *Session) Barrier(x int) {
	if s.Stopped {
		return
	}
	if s.saveAt > 0 {
		// The save requested at the last barrier never sealed (a blob
		// write or the manifest failed): its time is billed, the
		// durable frontier stays put.
		s.close(s.saveAt, true, cloud.StoreTime{}, nil)
	}
	s.Done = x
	if !s.Stopped && s.sb == nil && s.warnAt > 0 && s.Done >= s.warnAt {
		s.sb = s.sub.(Warner).Warn(s)
	}
	// A tripping forced save stops the session once it seals (see
	// close); the superstep after it is the safety net should that save
	// never seal.
	if !s.Stopped && s.EvictAt > 0 && s.Done >= s.EvictAt && !(s.warmTrip && s.Done == s.EvictAt) {
		s.Lose(s.NextEvict)
	}
}

// CheckpointAt is the plan hook, called at every barrier the job
// continues past: it asks for a checkpoint where the plan ends its
// segment with one and at the forced save, and closes a segment the
// plan ends without one.
func (s *Session) CheckpointAt(x int) bool {
	save := !s.Stopped && (x == s.ForceAt || x == s.PlanEnd && s.Checkpointing)
	if save {
		s.saveAt = x
	} else if !s.Stopped && x == s.PlanEnd {
		s.close(x, false, cloud.StoreTime{}, nil)
	}
	return save
}

// Save closes the boundary of the save requested at superstep x, billed
// against t_save with what the write took on the store; sealed reports
// that its checkpoint sealed (false = the save failed).
func (s *Session) Save(x int, write cloud.StoreTime, sealed bool) {
	var ck *obs.Event
	if sealed {
		ck = &obs.Event{}
	}
	s.close(x, true, write, ck)
}

// close is the loop's boundary at superstep x: bill the compute since
// the last boundary and, with save, the save after it — t_save, or the
// write's slower transfer, plus its faults — racing the eviction; record
// the checkpoint sealed, if any — the substrate's EvCheckpoint, stamped
// with the billed clock, the job, the configuration and the work it
// leaves; then re-decide at the plan's boundary, or stop at a tripping
// forced save, or re-derive the rest of the segment from the clock. A
// checkpoint that lost its save to the eviction is still recorded: it
// is sealed, and the next deployment resumes it.
func (s *Session) close(x int, save bool, write cloud.StoreTime, sealed *obs.Event) {
	l := s.l
	end, at, io := l.SegEnd(s.CS, x-s.Billed), Never, units.Seconds(0) // a bare segment cannot lose the race: its forecast fits
	if save {
		io = write.Billed(s.CS.Save)
		end, at = end+io, s.NextEvict
	}
	lost, err := l.BillUntil(s.CS, end, at, s.Durable, io)
	s.Billed, s.saveAt = x, 0
	if sealed != nil {
		s.Durable = x
		e := *sealed
		e.Type, e.T, e.Job = obs.EvCheckpoint, float64(l.T), l.Env.Job.Name
		e.Config, e.WorkLeft = l.ID(s.CS.Config), l.WorkLeft(x)
		l.Emit(e)
	}
	switch {
	case err != nil || lost:
		s.Stop(lost, err)
	case x == s.PlanEnd:
		c, keep, err := l.consult(s.Ctx, s.CS, s.bootAt, s.Done)
		switch {
		case err != nil:
			s.Stop(false, err)
		case keep:
			s.Dec = c.Dec
			s.arm(true)
		default:
			s.next = &c
			s.Stop(false, nil)
		}
	case s.warmTrip && x == s.ForceAt:
		s.Lose(s.NextEvict)
	default:
		s.arm(false)
	}
}

// arm re-derives the segment from the clock at the in-memory frontier:
// with replan, the plan of the session's decision; always, the eviction
// forecast and the warning — the §9 rule, one for every substrate. A
// Warning that fits t_save forces a save at the interruption's barrier
// (see Interruption), which seals the progress made up to it; a market
// eviction then stops the session once that save is billed, and a
// forewarned loss ends it by itself. A Warner is warned Warning ahead
// of the interruption, at least one superstep on. It returns false when
// the eviction lands before one more superstep can complete (billed and
// recorded then).
func (s *Session) arm(replan bool) bool {
	l := s.l
	if replan {
		steps, checkpointing := l.plan(s.Dec, s.CS, s.Done)
		s.PlanEnd, s.Checkpointing = s.Done+steps, checkpointing
		if steps >= l.Total-s.Done {
			s.PlanEnd = 0 // the last segment runs to completion
		}
	}
	s.NextEvict = l.evictor.Next(s.CS.Config, l.T)
	segSteps := max(l.Total-s.Done, 1)
	if s.PlanEnd > 0 {
		segSteps = s.PlanEnd - s.Done
	}
	// Race the segment against the eviction: how many supersteps
	// complete before it lands.
	s.EvictAt = 0
	switch k := l.StepsBefore(s.CS, s.NextEvict); {
	case k <= 0:
		// Evicted before the first superstep completes.
		lost, err := l.BillUntil(s.CS, Never, s.NextEvict, s.Durable, 0)
		s.Stop(lost, err)
		return false
	case k < segSteps:
		s.EvictAt = s.Done + k
	}
	s.warnAt, s.ForceAt, s.warmTrip = 0, 0, false
	if l.Warning <= 0 {
		return true
	}
	barrier, _, market := s.Interruption()
	if barrier == 0 {
		return true
	}
	if _, ok := s.sub.(Warner); ok {
		warnSteps := max(int(math.Ceil(float64(l.Warning)/float64(l.StepTime(s.CS)))), 1)
		s.warnAt = max(barrier-warnSteps, s.Done+1)
	}
	if l.Warning >= s.CS.Save {
		s.ForceAt, s.warmTrip = barrier, market
	}
	return true
}

// Interruption projects the session's interruption from the clock: the
// market eviction anywhere before the job ends, or a Warner's
// forewarned loss, whichever lands first. It returns the barrier of the
// last superstep that completes (0 = no interruption before the job
// ends), the instant the machines disappear, and whether it is the
// market's.
func (s *Session) Interruption() (barrier int, at units.Seconds, market bool) {
	l := s.l
	at = s.NextEvict
	if k := l.StepsBefore(s.CS, at); k < l.Total-s.Billed {
		barrier, market = s.Billed+k, true
	}
	if w, ok := s.sub.(Warner); ok {
		// The machine dies while computing superstep die, after die-1.
		if die := w.Loss(s) - 1; die > s.Billed && die < l.Total && (barrier == 0 || die < barrier) {
			barrier, at, market = die, l.SegEnd(s.CS, die-s.Billed), false
		}
	}
	return barrier, at, market
}

// Lose stops the session at the instant at the deployment is lost — the
// injected eviction, or a worker's death: the machines ran, and are
// billed, up to it.
func (s *Session) Lose(at units.Seconds) {
	s.NextEvict = at
	_, err := s.l.BillUntil(s.CS, Never, at, s.Durable, 0)
	s.Stop(true, err)
}

// Stop ends the session at this barrier, recording why: lost (billed
// and recorded already) or err.
func (s *Session) Stop(lost bool, err error) {
	s.Stopped, s.lost, s.err = true, lost, err
	if s.Cancel != nil {
		s.Cancel()
	}
}

// settleStandby hands the standby armed in this session, if any, the
// eviction that ended it: the next deployment is the standby's choice
// when it was ready in time.
func (s *Session) settleStandby() error {
	if s.sb == nil {
		return nil
	}
	c, err := s.sb.Settle(s)
	s.l.next = c
	return err
}

// discardStandby releases the standby armed in this session, if any,
// billing it up to billTo.
func (s *Session) discardStandby(billTo units.Seconds) error {
	if s.sb == nil {
		return nil
	}
	return s.sb.Discard(billTo)
}
