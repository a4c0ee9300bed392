package dist

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/engine"
	"hourglass/internal/obs"
)

// Config describes one distributed job from the coordinator's side.
type Config struct {
	// Job namespaces the checkpoint keys in Store.
	Job string
	// Program and Graph are the specs every process instantiates.
	Program ProgramSpec
	Graph   GraphSpec
	// Canonical selects order-invariant reductions (see engine.Config):
	// required for bit-identical results across shard counts and
	// recoveries when the program's reductions are order-sensitive.
	Canonical bool
	// Assign maps vertex→shard; nil assigns round-robin (v mod shards).
	Assign []int32
	// CheckpointEvery writes a checkpoint after every k supersteps
	// (0 = never).
	CheckpointEvery int
	// DeltaChain enables delta checkpoints: up to DeltaChain deltas are
	// sealed between full checkpoints (0 = every checkpoint is full).
	// A delta's shard blobs encode only state changed since the parent
	// manifest, shrinking t_save at the price of a bounded restore
	// chain.
	DeltaChain int
	// ForceCheckpointAt, when > 0, checkpoints after that superstep
	// even off the CheckpointEvery cadence — the warm-standby driver
	// sets it to the projected eviction boundary so the final save
	// lands inside the warning window.
	ForceCheckpointAt int
	// MaxSupersteps aborts runaway sessions (0 = 10_000).
	MaxSupersteps int
	// BarrierTimeout is the watchdog: a shard that delivers no expected
	// frame within it is declared dead (0 = 10s).
	BarrierTimeout time.Duration
	// Store holds checkpoint blobs and manifests. Must be reachable by
	// every shard under the same keys (cloud.FSStore on a shared
	// directory for process shards).
	Store cloud.BlobStore
	// Sink receives EvSuperstep / EvCheckpoint / EvShardEvict events.
	Sink obs.Sink
	// Logf receives diagnostics (nil = discard).
	Logf func(format string, args ...any)
}

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Report summarises one completed session.
type Report struct {
	Values []float64
	Stats  engine.Stats
	// WireFrames / WireBytes count the session's total wire traffic,
	// both directions: coordinator control frames plus the peer-mesh
	// data plane (shards report their peer-plane counters with every
	// inboxed vote).
	WireFrames int64
	WireBytes  int64
	// CoordBatchFrames counts batch frames that arrived on the
	// coordinator's connections. The mesh plane routes batches
	// shard-to-shard, so this is always 0 on a healthy session — a
	// batch here is a protocol violation and the identity tests assert
	// the zero.
	CoordBatchFrames int64
	// Checkpoints completed during the session.
	Checkpoints int
	// Resumed reports whether the session started from a checkpoint,
	// and StartSuperstep which superstep it started at.
	Resumed        bool
	StartSuperstep int
}

// ShardLostError reports a shard declared dead mid-session: connection
// loss, protocol violation, or barrier-watchdog expiry. The session is
// torn down; a new session against the same Store resumes from the
// newest complete checkpoint.
type ShardLostError struct {
	Shard     int
	Superstep int
	Cause     error
}

func (e *ShardLostError) Error() string {
	return fmt.Sprintf("dist: shard %d lost at superstep %d: %v", e.Shard, e.Superstep, e.Cause)
}

func (e *ShardLostError) Unwrap() error { return e.Cause }

// frameQueue is an unbounded FIFO of encoded frames feeding one
// writer goroutine (a coordinator-side shard connection, or a shard's
// outbound peer link). Unbounded on purpose: a bounded queue would let
// one slow TCP receiver backpressure the producer into deadlock across
// the barrier.
type frameQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames [][]byte
	closed bool
}

func newFrameQueue() *frameQueue {
	q := &frameQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues one frame (no-op after close).
func (q *frameQueue) push(typ byte, payload []byte) {
	frame := appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), typ, payload)
	q.mu.Lock()
	if !q.closed {
		q.frames = append(q.frames, frame)
		q.cond.Signal()
	}
	q.mu.Unlock()
}

// popAll blocks until frames are queued (or the queue closes) and
// drains them, so the writer can write a burst and flush once.
func (q *frameQueue) popAll() ([][]byte, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.frames) == 0 && !q.closed {
		q.cond.Wait()
	}
	frames := q.frames
	q.frames = nil
	return frames, len(frames) > 0 || !q.closed
}

func (q *frameQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.frames = nil
	q.cond.Broadcast()
	q.mu.Unlock()
}

// shardEvent is a non-batch frame (or reader error) surfaced to the
// coordinator's main loop.
type shardEvent struct {
	shard   int
	typ     byte
	payload []byte
	err     error
}

// session is one coordinator run over an established set of shard
// connections.
type session struct {
	ctx     context.Context
	cfg     Config
	shards  int
	timeout time.Duration

	prog     engine.Program
	progJSON string
	graphJS  string
	n        int
	assign   []int32

	aggNames []string
	aggSpec  map[string]engine.AggregatorSpec
	view     map[string]float64

	conns  []net.Conn
	queues []*frameQueue
	events chan shardEvent
	quit   chan struct{}
	wg     sync.WaitGroup

	// procs holds each shard's self-declared process identity from its
	// hello ("pid:1234"); empty until the handshake names a shard.
	procs []string

	wireFrames atomic.Int64
	wireBytes  atomic.Int64
	coordBatch atomic.Int64

	superstep int
	report    Report

	// lastCkpt is the newest manifest this session knows is sealed (the
	// resumed one, then each one checkpointAll seals) — the candidate
	// parent for the next delta.
	lastCkpt *ckpt.Manifest
}

// RunCoordinator drives one session over conns (conn i = shard i):
// handshake, superstep loop with barriers, checkpoints, halt, value
// collection. On shard loss it returns *ShardLostError after emitting
// obs.EvShardEvict; the caller restarts with fresh connections and the
// same Store to resume. Cancelling ctx aborts the session at its next
// barrier wait (a non-ShardLostError, so recovery loops stop retrying)
// and the deferred teardown closes every shard connection on the way
// out.
func RunCoordinator(ctx context.Context, conns []net.Conn, cfg Config) (*Report, error) {
	if len(conns) == 0 {
		return nil, errors.New("dist: no shard connections")
	}
	if cfg.Store == nil {
		return nil, errors.New("dist: Config.Store is required")
	}
	if cfg.Job == "" {
		return nil, errors.New("dist: Config.Job is required")
	}
	s := &session{
		ctx:     ctx,
		cfg:     cfg,
		shards:  len(conns),
		timeout: cfg.BarrierTimeout,
		conns:   conns,
		events:  make(chan shardEvent, len(conns)*4),
		quit:    make(chan struct{}),
	}
	if s.timeout <= 0 {
		s.timeout = 10 * time.Second
	}
	if err := s.prepare(); err != nil {
		for _, c := range conns {
			c.Close()
		}
		return nil, err
	}
	defer func() {
		close(s.quit)
		for _, q := range s.queues {
			q.close()
		}
		for _, c := range s.conns {
			c.Close()
		}
		s.wg.Wait()
	}()
	return s.run()
}

// prepare instantiates the specs and the vertex assignment.
func (s *session) prepare() error {
	var err error
	s.prog, err = s.cfg.Program.New()
	if err != nil {
		return err
	}
	g, err := s.cfg.Graph.Build()
	if err != nil {
		return err
	}
	s.n = g.NumVertices()
	if s.progJSON, err = marshalSpec(s.cfg.Program); err != nil {
		return err
	}
	if s.graphJS, err = marshalSpec(s.cfg.Graph); err != nil {
		return err
	}
	if s.cfg.Assign != nil {
		if len(s.cfg.Assign) != s.n {
			return fmt.Errorf("dist: assignment length %d for %d vertices", len(s.cfg.Assign), s.n)
		}
		for v, o := range s.cfg.Assign {
			if o < 0 || int(o) >= s.shards {
				return fmt.Errorf("dist: vertex %d assigned to shard %d of %d", v, o, s.shards)
			}
		}
		s.assign = s.cfg.Assign
	} else {
		s.assign = make([]int32, s.n)
		for v := range s.assign {
			s.assign[v] = int32(v % s.shards)
		}
	}
	s.aggSpec = map[string]engine.AggregatorSpec{}
	s.view = map[string]float64{}
	if a, ok := s.prog.(engine.Aggregators); ok {
		for _, spec := range a.Aggregators() {
			s.aggSpec[spec.Name] = spec
			s.view[spec.Name] = spec.Identity
			s.aggNames = append(s.aggNames, spec.Name)
		}
		sort.Strings(s.aggNames)
	}
	return nil
}

// viewPairs snapshots the reduced aggregator values, name-sorted.
func (s *session) viewPairs() ckpt.Aggs {
	a := ckpt.Aggs{
		Names: s.aggNames,
		Vals:  make([]float64, len(s.aggNames)),
	}
	for i, name := range s.aggNames {
		a.Vals[i] = s.view[name]
	}
	return a
}

// reader pumps one shard's connection to the main loop. The data plane
// is the peer mesh: a batch frame on a coordinator connection is a
// protocol violation (counted in Report.CoordBatchFrames, asserted zero
// by the identity tests) and costs the sender its session.
func (s *session) reader(shard int) {
	defer s.wg.Done()
	br := bufio.NewReaderSize(s.conns[shard], 1<<16)
	for {
		typ, payload, size, err := readFrame(br)
		if err != nil {
			s.post(shardEvent{shard: shard, err: err})
			return
		}
		s.wireFrames.Add(1)
		s.wireBytes.Add(int64(size))
		if typ == fBatch {
			s.coordBatch.Add(1)
			s.post(shardEvent{shard: shard, err: errors.New("dist: batch frame routed through coordinator (mesh protocol violation)")})
			return
		}
		s.post(shardEvent{shard: shard, typ: typ, payload: payload})
	}
}

// post delivers an event to the main loop unless the session is
// tearing down.
func (s *session) post(ev shardEvent) {
	select {
	case s.events <- ev:
	case <-s.quit:
	}
}

// writer drains one shard's frame queue onto its connection.
func (s *session) writer(shard int) {
	defer s.wg.Done()
	bw := bufio.NewWriterSize(s.conns[shard], 1<<16)
	for {
		frames, ok := s.popOrQuit(shard)
		if !ok {
			return
		}
		for _, f := range frames {
			if _, err := bw.Write(f); err != nil {
				s.post(shardEvent{shard: shard, err: err})
				return
			}
			s.wireFrames.Add(1)
			s.wireBytes.Add(int64(len(f)))
		}
		if err := bw.Flush(); err != nil {
			s.post(shardEvent{shard: shard, err: err})
			return
		}
	}
}

func (s *session) popOrQuit(shard int) ([][]byte, bool) {
	return s.queues[shard].popAll()
}

// lost declares a shard dead: emits the eviction event and returns the
// error the caller propagates.
func (s *session) lost(shard int, cause error) error {
	if s.cfg.Sink != nil {
		var proc string
		if shard < len(s.procs) {
			proc = s.procs[shard]
		}
		s.cfg.Sink.Emit(obs.Event{
			Type:      obs.EvShardEvict,
			Job:       s.prog.Name(),
			Shard:     shard,
			Proc:      proc,
			Superstep: s.superstep,
			Err:       cause.Error(),
		})
	}
	s.cfg.logf("dist: shard %d lost at superstep %d: %v", shard, s.superstep, cause)
	return &ShardLostError{Shard: shard, Superstep: s.superstep, Cause: cause}
}

// gather waits until every shard delivered one frame of the given
// type, returning payloads indexed by shard. Reader errors, protocol
// violations and watchdog expiry all become ShardLostError; a
// cancelled ctx aborts the wait with the ctx error instead (not a
// loss — recovery loops must stop, not resume). The entry check makes
// a cancellation that landed between phases deterministic: the next
// gather refuses to start rather than racing ready events against the
// closed Done channel. final marks the session's last phase, where a
// disconnect from a shard that already delivered is the normal end of
// its session, not a loss.
func (s *session) gather(typ byte, phase string, final bool) ([][]byte, error) {
	if err := s.ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: session cancelled before gathering %s: %w", phase, err)
	}
	out := make([][]byte, s.shards)
	seen := make([]bool, s.shards)
	timer := time.NewTimer(s.timeout)
	defer timer.Stop()
	for got := 0; got < s.shards; {
		var ev shardEvent
		select {
		case ev = <-s.events:
		case <-s.ctx.Done():
			return nil, fmt.Errorf("dist: session cancelled while gathering %s: %w", phase, s.ctx.Err())
		case <-timer.C:
			for i := range seen {
				if !seen[i] {
					return nil, s.lost(i, fmt.Errorf("dist: no %s within %v (barrier watchdog)", phase, s.timeout))
				}
			}
			return nil, fmt.Errorf("dist: watchdog fired with all %s present", phase)
		}
		if ev.err != nil {
			if final && seen[ev.shard] {
				continue
			}
			return nil, s.lost(ev.shard, ev.err)
		}
		if ev.typ == fPeerLost {
			// Blame the peer the shard lost, not the messenger.
			if m, derr := decodePeerLost(ev.payload); derr == nil && int(m.Peer) < s.shards && int(m.Peer) != ev.shard {
				return nil, s.lost(int(m.Peer), fmt.Errorf("dist: shard %d lost its link to this shard: %s", ev.shard, m.Err))
			}
		}
		if ev.typ != typ {
			return nil, s.lost(ev.shard, fmt.Errorf("dist: frame type %d while gathering %s", ev.typ, phase))
		}
		if seen[ev.shard] {
			return nil, s.lost(ev.shard, fmt.Errorf("dist: duplicate %s", phase))
		}
		seen[ev.shard] = true
		out[ev.shard] = ev.payload
		got++
	}
	return out, nil
}

// broadcast queues one frame for every shard.
func (s *session) broadcast(typ byte, payload []byte) {
	for _, q := range s.queues {
		q.push(typ, payload)
	}
}

func (s *session) run() (*Report, error) {
	// Resume decision: newest checkpoint whose whole blob set
	// validates, or a fresh start.
	start := 0
	var blobKeys []string
	if c, err := ckpt.Latest(s.cfg.Store, s.cfg.Job); err == nil {
		if c.Program != s.progJSON || c.Graph != s.graphJS || c.Canonical != s.cfg.Canonical {
			return nil, fmt.Errorf("dist: checkpoint for job %q belongs to a different computation", s.cfg.Job)
		}
		start = c.Superstep
		blobKeys = c.Keys
		s.lastCkpt = c.Manifest
		for i, name := range c.Aggs.Names {
			if _, ok := s.aggSpec[name]; ok {
				s.view[name] = c.Aggs.Vals[i]
			}
		}
		s.report.Resumed = true
	} else if !errors.Is(err, ckpt.ErrNoCheckpoint) {
		return nil, err
	}
	s.superstep = start
	s.report.StartSuperstep = start

	s.queues = make([]*frameQueue, s.shards)
	for i := range s.queues {
		s.queues[i] = newFrameQueue()
	}
	s.wg.Add(2 * s.shards)
	for i := 0; i < s.shards; i++ {
		go s.reader(i)
		go s.writer(i)
	}

	// Handshake: Hello from everyone (each announcing its peer-plane
	// listener), then per-shard Welcomes carrying the full peer list so
	// the shards can wire the mesh among themselves.
	hellos, err := s.gather(fHello, "hello", false)
	if err != nil {
		return nil, err
	}
	peers := make([]string, s.shards)
	s.procs = make([]string, s.shards)
	for i, p := range hellos {
		h, derr := decodeHello(p)
		if derr != nil {
			return nil, s.lost(i, derr)
		}
		if h.Version != wireVersion {
			return nil, s.lost(i, fmt.Errorf("dist: shard speaks wire version %d, coordinator speaks %d", h.Version, wireVersion))
		}
		if h.PeerAddr == "" {
			return nil, s.lost(i, errors.New("dist: hello without a peer-plane address"))
		}
		peers[i] = h.PeerAddr
		s.procs[i] = h.Proc
	}
	for i := 0; i < s.shards; i++ {
		w := welcomeMsg{
			Version:   wireVersion,
			Shard:     uint32(i),
			Shards:    uint32(s.shards),
			Canonical: s.cfg.Canonical,
			Start:     uint32(start),
			Program:   s.progJSON,
			Graph:     s.graphJS,
			Assign:    s.assign,
			Aggs:      s.viewPairs(),
			BlobKeys:  blobKeys,
			Peers:     peers,
		}
		s.queues[i].push(fWelcome, w.encode())
	}

	frontier, err := s.awaitFrontier(start)
	if err != nil {
		return nil, err
	}

	maxSteps := s.cfg.MaxSupersteps
	if maxSteps <= 0 {
		maxSteps = 10_000
	}
	S := start
	for frontier > 0 {
		// Deterministic cancellation point: a ctx cancelled at (or
		// before) the previous barrier stops the session here, before
		// any shard is told to proceed into S.
		if err := s.ctx.Err(); err != nil {
			return nil, fmt.Errorf("dist: session cancelled before superstep %d: %w", S, err)
		}
		if S-start >= maxSteps {
			return nil, fmt.Errorf("dist: exceeded %d supersteps without halting", maxSteps)
		}
		wf0, wb0 := s.wireFrames.Load(), s.wireBytes.Load()
		s.broadcast(fProceed, proceedMsg{Superstep: uint32(S), Aggs: s.viewPairs()}.encode())

		votes, err := s.gather(fBarrier, "barrier vote", false)
		if err != nil {
			return nil, err
		}
		barriers := make([]barrierMsg, s.shards)
		var stepSent, stepCalls, stepComb, stepRemote int64
		for i, p := range votes {
			b, derr := decodeBarrier(p)
			if derr != nil {
				return nil, s.lost(i, derr)
			}
			if int(b.Superstep) != S {
				return nil, s.lost(i, fmt.Errorf("dist: barrier for superstep %d during %d", b.Superstep, S))
			}
			if len(b.SentTo) != s.shards {
				return nil, s.lost(i, fmt.Errorf("dist: barrier names %d peers for %d shards", len(b.SentTo), s.shards))
			}
			barriers[i] = b
			stepSent += int64(b.Sent)
			stepCalls += int64(b.Calls)
			stepComb += int64(b.Combined)
			stepRemote += int64(b.Remote)
		}
		s.foldAggs(barriers)
		s.report.Stats.MessagesSent += stepSent
		s.report.Stats.ComputeCalls += stepCalls
		s.report.Stats.RemoteMessages += stepRemote
		s.report.Stats.Supersteps++

		// All barriers in ⇒ every batch of superstep S has been handed
		// to a peer link. Fold the votes' per-peer sent counts into one
		// expected-arrival total per shard; each shard drains its mesh
		// until that many batches have landed. Only S-tagged batches can
		// be in flight: Proceed(S+1) is gated on every shard's Inboxed
		// vote, which follows its completed drain.
		for j := 0; j < s.shards; j++ {
			var expect uint64
			for i := range barriers {
				expect += barriers[i].SentTo[j]
			}
			s.queues[j].push(fEndBatches, endBatchesMsg{Superstep: uint32(S), Expect: expect}.encode())
		}

		frontier, err = s.awaitFrontier(S + 1)
		if err != nil {
			return nil, err
		}
		s.superstep = S + 1

		if s.cfg.Sink != nil {
			s.cfg.Sink.Emit(obs.Event{
				Type:       obs.EvSuperstep,
				Job:        s.prog.Name(),
				Superstep:  S + 1, // 1-based, matching the engine
				Active:     stepCalls,
				Messages:   stepSent,
				Combined:   stepComb,
				WireFrames: s.wireFrames.Load() - wf0,
				WireBytes:  s.wireBytes.Load() - wb0,
			})
		}

		onCadence := s.cfg.CheckpointEvery > 0 && (S+1-start)%s.cfg.CheckpointEvery == 0
		forced := s.cfg.ForceCheckpointAt > 0 && S+1 == s.cfg.ForceCheckpointAt
		if (onCadence || forced) && frontier > 0 {
			if err := s.checkpointAll(S + 1); err != nil {
				return nil, err
			}
		}
		S++
	}

	// Halt: collect the final values.
	s.broadcast(fProceed, proceedMsg{Superstep: uint32(S), Halt: true, Aggs: s.viewPairs()}.encode())
	valueFrames, err := s.gather(fValues, "final values", true)
	if err != nil {
		return nil, err
	}
	values := make([]float64, s.n)
	covered := make([]bool, s.n)
	for i, p := range valueFrames {
		vm, derr := decodeValues(p)
		if derr != nil {
			return nil, s.lost(i, derr)
		}
		for j, vtx := range vm.Vertex {
			if vtx < 0 || int(vtx) >= s.n || covered[vtx] {
				return nil, s.lost(i, fmt.Errorf("dist: bad or duplicate final value for vertex %d", vtx))
			}
			if s.assign[vtx] != int32(i) {
				return nil, s.lost(i, fmt.Errorf("dist: shard reported vertex %d owned by shard %d", vtx, s.assign[vtx]))
			}
			covered[vtx] = true
			values[vtx] = vm.Val[j]
		}
	}
	for v, ok := range covered {
		if !ok {
			return nil, fmt.Errorf("dist: no shard reported a final value for vertex %d", v)
		}
	}
	s.report.Values = values
	s.report.WireFrames = s.wireFrames.Load()
	s.report.WireBytes = s.wireBytes.Load()
	s.report.CoordBatchFrames = s.coordBatch.Load()
	rep := s.report
	return &rep, nil
}

// awaitFrontier gathers Inboxed votes for a superstep and returns the
// global frontier size. The votes also carry each shard's peer-plane
// wire counters since its previous vote, folded into the session
// totals here so Report and the EvSuperstep deltas keep covering the
// data plane now that batches bypass the coordinator.
func (s *session) awaitFrontier(superstep int) (uint64, error) {
	frames, err := s.gather(fInboxed, "inboxed vote", false)
	if err != nil {
		return 0, err
	}
	var frontier uint64
	for i, p := range frames {
		m, derr := decodeInboxed(p)
		if derr != nil {
			return 0, s.lost(i, derr)
		}
		if int(m.Superstep) != superstep {
			return 0, s.lost(i, fmt.Errorf("dist: inboxed vote for superstep %d during %d", m.Superstep, superstep))
		}
		frontier += m.Frontier
		s.wireFrames.Add(int64(m.PeerFrames))
		s.wireBytes.Add(int64(m.PeerBytes))
	}
	return frontier, nil
}

// foldAggs reduces the shards' barrier contributions exactly like the
// engine's barrier fold: canonical merges every raw term and folds
// value-sorted; otherwise one partial per shard folds in shard order.
// Values are recomputed each superstep (identity when nothing
// contributed), never carried over.
func (s *session) foldAggs(barriers []barrierMsg) {
	if len(s.aggNames) == 0 {
		return
	}
	if s.cfg.Canonical {
		merged := map[string][]float64{}
		for _, b := range barriers {
			for i, name := range b.AggNames {
				if _, ok := s.aggSpec[name]; ok {
					merged[name] = append(merged[name], b.Contribs[i]...)
				}
			}
		}
		for _, name := range s.aggNames {
			spec := s.aggSpec[name]
			lst := merged[name]
			sort.Float64s(lst)
			val := spec.Identity
			for i, c := range lst {
				if i == 0 {
					val = c
				} else {
					val = spec.Reduce(val, c)
				}
			}
			s.view[name] = val
		}
		return
	}
	for _, name := range s.aggNames {
		spec := s.aggSpec[name]
		val := spec.Identity
		contributed := false
		for _, b := range barriers {
			for i, n2 := range b.AggNames {
				if n2 != name || len(b.Contribs[i]) == 0 {
					continue
				}
				if contributed {
					val = spec.Reduce(val, b.Contribs[i][0])
				} else {
					val = b.Contribs[i][0]
					contributed = true
				}
			}
		}
		s.view[name] = val
	}
}

// checkpointAll runs one checkpoint round for a resume into superstep
// R: every shard writes its blob, and once every ack is in the
// coordinator seals the set with a manifest and flips the latest
// pointer. A failed blob write skips the manifest (the previous
// checkpoint stays authoritative) but does not abort the run.
//
// With Config.DeltaChain > 0 and a sealed parent no deeper than the
// chain bound, the round is a delta: shards are asked to encode only
// state changed since the parent, and the manifest links to it by
// superstep + payload CRC. A shard whose diff base doesn't match the
// requested parent writes a full blob instead (flagged in its ack) —
// harmless under the oldest-first overlay restore — and the manifest
// stays a delta.
func (s *session) checkpointAll(R int) error {
	delta := s.cfg.DeltaChain > 0 && s.lastCkpt != nil &&
		s.lastCkpt.Chain < s.cfg.DeltaChain && s.lastCkpt.Chain < ckpt.MaxChainDepth-1
	var parent uint32
	if delta {
		parent = uint32(s.lastCkpt.Superstep)
	}
	keys := make([]string, s.shards)
	for i := range keys {
		keys[i] = ckpt.BlobKey(s.cfg.Job, R, i)
		s.queues[i].push(fCheckpoint, checkpointMsg{
			Superstep: uint32(R), Key: keys[i], Delta: delta, Parent: parent,
		}.encode())
	}
	acks, err := s.gather(fCheckpointAck, "checkpoint ack", false)
	if err != nil {
		return err
	}
	var totalBytes uint64
	for i, p := range acks {
		ack, derr := decodeCheckpointAck(p)
		if derr != nil {
			return s.lost(i, derr)
		}
		if int(ack.Superstep) != R {
			return s.lost(i, fmt.Errorf("dist: checkpoint ack for superstep %d during %d", ack.Superstep, R))
		}
		if ack.Err != "" {
			s.cfg.logf("dist: shard %d checkpoint at superstep %d failed: %s", i, R, ack.Err)
			return nil
		}
		totalBytes += ack.Bytes
	}
	m := &ckpt.Manifest{
		Job:       s.cfg.Job,
		Superstep: R,
		Shards:    s.shards,
		Program:   s.progJSON,
		Graph:     s.graphJS,
		Canonical: s.cfg.Canonical,
		Aggs:      s.viewPairs(),
		BlobKeys:  keys,
		Parent:    -1,
	}
	if delta {
		m.Parent = s.lastCkpt.Superstep
		m.Chain = s.lastCkpt.Chain + 1
		m.ParentCRC = s.lastCkpt.CRC
	}
	if err := ckpt.Commit(s.cfg.Store, m); err != nil {
		s.cfg.logf("dist: sealing checkpoint at superstep %d failed: %v", R, err)
		return nil
	}
	s.lastCkpt = m
	s.report.Checkpoints++
	if s.cfg.Sink != nil {
		s.cfg.Sink.Emit(obs.Event{
			Type:      obs.EvCheckpoint,
			Job:       s.prog.Name(),
			Superstep: R,
			WireBytes: int64(totalBytes),
			Chain:     m.Chain,
		})
		if delta {
			s.cfg.Sink.Emit(obs.Event{
				Type:       obs.EvDeltaSave,
				Job:        s.prog.Name(),
				Superstep:  R,
				Chain:      m.Chain,
				DeltaBytes: int64(totalBytes),
			})
		}
	}
	return nil
}

// ClearJob removes every checkpoint object a job left in the store.
func ClearJob(store cloud.BlobStore, job string) error {
	return ckpt.Clear(store, job)
}

// LatestCheckpoint returns the superstep of the newest restorable
// checkpoint in job's namespace — the one a new session resumes from —
// or 0 when there is none.
func LatestCheckpoint(store cloud.BlobStore, job string) int {
	c, err := ckpt.Latest(store, job)
	if err != nil {
		return 0
	}
	return c.Superstep
}
