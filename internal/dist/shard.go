package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"time"

	"hourglass/internal/cloud"
	"hourglass/internal/engine"
	"hourglass/internal/graph"
)

// ShardOptions configure a shard worker.
type ShardOptions struct {
	// Store holds checkpoint blobs (required; a process shard uses a
	// cloud.FSStore rooted at the directory shared with the
	// coordinator).
	Store cloud.BlobStore
	// PeerListen is the listen address for the shard-to-shard data
	// plane ("" = 127.0.0.1:0). The bound address is announced to the
	// coordinator in the hello and redistributed to every peer.
	PeerListen string
	// PeerAdvertise overrides the announced peer address (for
	// multi-machine deployments where the bind address is not the
	// dialable one). "" announces the listener's own address.
	PeerAdvertise string
	// DieAtSuperstep, when > 0, abruptly drops the connection halfway
	// through computing that superstep's worklist — the chaos hook that
	// stands in for a spot eviction killing the process mid-superstep.
	DieAtSuperstep int
	// MuteAtSuperstep, when > 0, computes that superstep normally but
	// never sends the barrier vote, leaving the connection open. It
	// exercises the coordinator's barrier watchdog.
	MuteAtSuperstep int
	// Proc is the worker's self-declared process identity, announced in
	// the hello and attached to the coordinator's shard-loss events
	// ("" = "pid:<os pid>"). Launchers that multiplex workers inside one
	// process set it per worker ("goroutine:0.2").
	Proc string
	// PrefetchJob, when non-empty, warms a read-through blob cache with
	// the job's newest checkpoint chain before the handshake — the
	// warm-standby overlap: a standby worker pulls the restore set while
	// the primary session is still finishing, so welcome-time reload
	// pays only for blobs written after the prefetch (the final
	// in-window delta). Best effort; a failed or useless prefetch just
	// means cold reads.
	PrefetchJob string
	// DropPeersAtSuperstep, when > 0, severs every peer-mesh
	// connection halfway through that superstep's worklist — mid-flush,
	// since staged slots ship as they fill — while keeping the
	// coordinator connection. It exercises the dead-peer path: the
	// broken data plane surfaces as a shard loss and the job recovers
	// from the newest checkpoint.
	DropPeersAtSuperstep int
	// Logf receives diagnostics (nil = discard).
	Logf func(format string, args ...any)
}

// ErrShardDied is returned by RunShard when DieAtSuperstep triggered.
var ErrShardDied = errors.New("dist: shard killed by fault injection")

func (o ShardOptions) logf(format string, args ...any) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// RunShard serves one coordinator session on an established
// connection: handshake, peer-mesh wiring, state build (fresh or
// checkpoint reload), then the superstep protocol until halt or error.
// Cancelling ctx aborts the session wherever it is blocked — coordinator
// frame waits, peer dials and inbox drains all select on ctx.Done — so
// a torn-down cluster leaves no shard goroutine behind.
func RunShard(ctx context.Context, conn net.Conn, opts ShardOptions) error {
	defer conn.Close()
	if opts.Store == nil {
		return errors.New("dist: ShardOptions.Store is required")
	}
	if opts.PrefetchJob != "" {
		ps := newPrefetchStore(opts.Store)
		ps.warm(opts.PrefetchJob)
		opts.Store = ps
	}
	s := &shardSession{
		runCtx: ctx,
		conn:   conn,
		br:     bufio.NewReaderSize(conn, 1<<16),
		bw:     bufio.NewWriterSize(conn, 1<<16),
		opts:   opts,
	}
	return s.run()
}

// Dial connects to a coordinator and serves one session.
func Dial(ctx context.Context, addr string, opts ShardOptions) error {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return fmt.Errorf("dist: dialing coordinator %s: %w", addr, err)
	}
	return RunShard(ctx, conn, opts)
}

// Serve runs sessions against a coordinator address in a loop: each
// completed or broken session is followed by a reconnect, so one shard
// process can serve the successive sessions a recovering job goes
// through. Serve returns when ctx is cancelled, or when a connection
// cannot be established within the retry budget (e.g. the coordinator
// is gone for good).
func Serve(ctx context.Context, addr string, opts ShardOptions) error {
	const (
		retryEvery = 100 * time.Millisecond
		retryFor   = 30 * time.Second
	)
	for {
		var conn net.Conn
		var err error
		deadline := time.Now().Add(retryFor)
		for {
			if cerr := ctx.Err(); cerr != nil {
				return fmt.Errorf("dist: shard serve loop cancelled: %w", cerr)
			}
			var d net.Dialer
			conn, err = d.DialContext(ctx, "tcp", addr)
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("dist: coordinator %s unreachable for %v: %w", addr, retryFor, err)
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("dist: shard serve loop cancelled: %w", ctx.Err())
			case <-time.After(retryEvery):
			}
		}
		if err := RunShard(ctx, conn, opts); err != nil {
			opts.logf("dist: shard session ended: %v", err)
			if ctx.Err() != nil {
				return err
			}
			if errors.Is(err, ErrShardDied) {
				// The injected death is one-shot: the next session (the
				// recovery attempt) must be allowed to finish.
				opts.DieAtSuperstep = 0
			}
			opts.DropPeersAtSuperstep = 0
		}
	}
}

// coordFrame is one frame (or terminal error) off the coordinator
// connection, pumped by a reader goroutine so the session can wait on
// the coordinator and the peer mesh at once.
type coordFrame struct {
	typ     byte
	payload []byte
	err     error
}

// shardSession is the state of one shard over one coordinator session.
// It implements engine.ContextHost, so unmodified engine.Programs run
// against it through the regular Context API.
//
// Inboxes are double-buffered by superstep parity: a message sent
// during superstep S is consumed at S+1 and lands in buffer (S+1)&1.
// The parity index (rather than a single cur/next swap) makes batch
// ingestion independent of where the shard is in its own step
// lifecycle — a peer racing ahead mid-superstep delivers batches
// tagged S into the right buffer while this shard is still computing
// S itself. Arrival accounting (batches counted against the expected
// total announced in EndBatches) is what tells the shard when the
// superstep's inbox is complete, since no central router orders the
// frames any more.
type shardSession struct {
	runCtx context.Context
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	opts   ShardOptions

	mesh    *peerMesh
	coordIn chan coordFrame
	done    chan struct{} // closed when run() returns; unblocks coordReader

	id        int
	shards    int
	canonical bool

	g     *graph.Graph
	prog  engine.Program
	ctx   *engine.Context
	comb  engine.Combiner
	aux   engine.VertexAux // non-nil when the program carries per-vertex aux state
	owner []int32
	owned []graph.VertexID // this shard's vertices, ascending

	values []float64
	active []bool

	// Parity-indexed inbox + worklist state.
	queued [2][]bool
	work   [2][]graph.VertexID
	inVal  [2][]float64   // combiner path: dense folded inbox
	inSet  [2][]bool      //
	inMsgs [2][][]float64 // raw path: per-vertex message lists

	// Remote send staging. Combiner path: the PR 2 dense slots, with
	// the touched destinations recorded per destination shard — the
	// batching unit on the wire. Raw path: per-shard (dst, val) pairs.
	// Either path ships to the owning peer as soon as a destination's
	// staging reaches peerFlushThreshold, overlapping compute with the
	// send; sentTo counts the shipped frames per peer for the barrier
	// vote's delivery accounting. shipDst/shipVal (the combiner path's
	// gathered slots) and shipBuf (the encoded batch) are flush scratch:
	// each is copied onward — into shipBuf, then into the queued frame —
	// before ship returns, so one set serves every flush.
	accVal  []float64
	accSet  []bool
	staged  [][]graph.VertexID
	shipDst []int32
	shipVal []float64
	shipBuf []byte
	outDst  [][]int32
	outVal  [][]float64
	sentTo  []uint64

	aggNames []string // sorted; registered aggregator names
	aggSpec  map[string]engine.AggregatorSpec
	aggView  map[string]float64   // reduced values visible this superstep
	aggList  map[string][]float64 // canonical: raw contributions this step
	aggLocal map[string]float64   // non-canonical: folded partial this step
	aggSeen  map[string]bool

	superstep int
	sent      int64
	calls     int64
	combined  int64
	remote    int64

	// Delta-checkpoint diff base: a snapshot of the owned partition
	// (indexed like s.owned) as of the manifest at baseStep — the resumed
	// manifest after a reload, then each checkpoint this shard wrote.
	// baseStep = -1 means no base (fresh start): the next checkpoint is
	// necessarily full.
	baseStep int
	baseVal  []float64
	baseAct  []bool
	baseAux  [][]byte // nil for auxless programs
}

// send encodes one frame into the write buffer (no flush).
func (s *shardSession) send(typ byte, payload []byte) error {
	_, err := writeFrame(s.bw, typ, payload)
	return err
}

// flush pushes buffered frames onto the wire.
func (s *shardSession) flush() error { return s.bw.Flush() }

// sendInboxed reports the upcoming superstep's frontier plus the
// peer-plane wire counters accumulated since the last report.
func (s *shardSession) sendInboxed(superstep, frontier int) error {
	pf, pb := s.mesh.counters()
	m := inboxedMsg{
		Superstep:  uint32(superstep),
		Frontier:   uint64(frontier),
		PeerFrames: pf,
		PeerBytes:  pb,
	}
	if err := s.send(fInboxed, m.encode()); err != nil {
		return err
	}
	return s.flush()
}

func (s *shardSession) run() error {
	// The peer listener opens before the hello so the announced
	// address is already accepting by the time any peer learns it.
	mesh, err := newPeerMesh(s.opts.PeerListen)
	if err != nil {
		return err
	}
	s.mesh = mesh
	defer mesh.close()
	peerAddr := mesh.addr()
	if s.opts.PeerAdvertise != "" {
		peerAddr = s.opts.PeerAdvertise
	}
	proc := s.opts.Proc
	if proc == "" {
		proc = fmt.Sprintf("pid:%d", os.Getpid())
	}
	if err := s.send(fHello, helloMsg{Version: wireVersion, PeerAddr: peerAddr, Proc: proc}.encode()); err != nil {
		return err
	}
	if err := s.flush(); err != nil {
		return err
	}
	typ, payload, _, err := readFrame(s.br)
	if err != nil {
		return fmt.Errorf("dist: reading welcome: %w", err)
	}
	if typ != fWelcome {
		return fmt.Errorf("dist: expected welcome, got frame type %d", typ)
	}
	w, err := decodeWelcome(payload)
	if err != nil {
		return err
	}
	if w.Version != wireVersion {
		return fmt.Errorf("dist: coordinator speaks wire version %d, shard speaks %d", w.Version, wireVersion)
	}
	if err := s.init(w); err != nil {
		return err
	}
	if len(w.Peers) != s.shards {
		return fmt.Errorf("dist: welcome names %d peers for %d shards", len(w.Peers), s.shards)
	}
	if err := mesh.connect(s.runCtx, s.id, w.Peers); err != nil {
		return err
	}
	start := int(w.Start)
	if err := s.sendInboxed(start, len(s.work[start&1])); err != nil {
		return err
	}

	s.coordIn = make(chan coordFrame, 4)
	s.done = make(chan struct{})
	defer close(s.done)
	go s.coordReader()
	for {
		// Between supersteps only the coordinator drives the session;
		// peer batches for the next step wait in the mesh's arrival
		// channel until that step's drain. A peer-plane error is
		// likewise consulted only inside a superstep — after halt the
		// mesh tearing down is the normal end of a session.
		var fr coordFrame
		select {
		case fr = <-s.coordIn:
		case <-s.runCtx.Done():
			return fmt.Errorf("dist: shard %d session cancelled: %w", s.id, s.runCtx.Err())
		}
		if fr.err != nil {
			return fmt.Errorf("dist: shard %d: %w", s.id, fr.err)
		}
		switch fr.typ {
		case fCheckpoint:
			req, err := decodeCheckpoint(fr.payload)
			if err != nil {
				return err
			}
			if err := s.checkpoint(req); err != nil {
				return err
			}
		case fProceed:
			p, err := decodeProceed(fr.payload)
			if err != nil {
				return err
			}
			if p.Halt {
				return s.sendValues()
			}
			if err := s.step(p); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: shard %d: unexpected frame type %d", s.id, fr.typ)
		}
	}
}

// coordReader pumps the coordinator connection into coordIn so the
// session can select over it together with the peer mesh.
func (s *shardSession) coordReader() {
	for {
		typ, payload, _, err := readFrame(s.br)
		fr := coordFrame{typ: typ, payload: payload, err: err}
		select {
		case s.coordIn <- fr:
		case <-s.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// init builds the shard's state from the welcome: graph and program
// from their specs, then either a fresh Init pass or a parallel reload
// of the checkpoint blob set (keeping only owned vertices, so the blob
// set may come from a session with a different shard count).
func (s *shardSession) init(w welcomeMsg) error {
	pspec, err := unmarshalProgramSpec(w.Program)
	if err != nil {
		return err
	}
	gspec, err := unmarshalGraphSpec(w.Graph)
	if err != nil {
		return err
	}
	s.prog, err = pspec.New()
	if err != nil {
		return err
	}
	s.g, err = gspec.Build()
	if err != nil {
		return err
	}
	n := s.g.NumVertices()
	s.id, s.shards, s.canonical = int(w.Shard), int(w.Shards), w.Canonical
	if s.shards <= 0 || s.id < 0 || s.id >= s.shards {
		return fmt.Errorf("dist: shard id %d of %d", s.id, s.shards)
	}
	if len(w.Assign) != n {
		return fmt.Errorf("dist: assignment length %d for %d vertices", len(w.Assign), n)
	}
	s.owner = w.Assign
	for v, o := range s.owner {
		if o < 0 || int(o) >= s.shards {
			return fmt.Errorf("dist: vertex %d assigned to shard %d of %d", v, o, s.shards)
		}
		if int(o) == s.id {
			s.owned = append(s.owned, graph.VertexID(v))
		}
	}
	// Same rule as the in-process kernel: canonical keeps sender-side
	// combining only for an ExactCombiner.
	s.comb = engine.SendCombiner(s.prog, s.canonical)
	if aux, ok := s.prog.(engine.AuxState); ok {
		// Every shard initialises the whole-graph aux (it is derived
		// from the topology alone); only owned vertices' entries are
		// ever mutated or checkpointed here, per-vertex via VertexAux.
		va, ok := s.prog.(engine.VertexAux)
		if !ok {
			return fmt.Errorf("dist: program %q carries aux state without per-vertex access", s.prog.Name())
		}
		aux.InitAux(s.g)
		s.aux = va
	}

	s.values = make([]float64, n)
	s.active = make([]bool, n)
	for p := 0; p < 2; p++ {
		s.queued[p] = make([]bool, n)
		if s.comb != nil {
			s.inVal[p] = make([]float64, n)
			s.inSet[p] = make([]bool, n)
		} else {
			s.inMsgs[p] = make([][]float64, n)
		}
	}
	if s.comb != nil {
		s.accVal = make([]float64, n)
		s.accSet = make([]bool, n)
		s.staged = make([][]graph.VertexID, s.shards)
	} else {
		s.outDst = make([][]int32, s.shards)
		s.outVal = make([][]float64, s.shards)
	}
	s.sentTo = make([]uint64, s.shards)

	s.aggSpec = map[string]engine.AggregatorSpec{}
	s.aggView = map[string]float64{}
	if a, ok := s.prog.(engine.Aggregators); ok {
		for _, spec := range a.Aggregators() {
			s.aggSpec[spec.Name] = spec
			s.aggView[spec.Name] = spec.Identity
			s.aggNames = append(s.aggNames, spec.Name)
		}
		sort.Strings(s.aggNames)
	}
	if s.canonical {
		s.aggList = map[string][]float64{}
	} else {
		s.aggLocal = map[string]float64{}
		s.aggSeen = map[string]bool{}
	}
	s.setAggView(w.Aggs)
	s.ctx = engine.NewHostContext(s)

	start := int(w.Start)
	par := start & 1
	s.baseStep = -1
	if len(w.BlobKeys) == 0 {
		// Fresh start: Init every vertex (bundled programs derive values
		// from the graph alone, so non-owned values are consistent too);
		// only owned vertices join the worklist.
		for v := 0; v < n; v++ {
			val, act := s.prog.Init(s.g, graph.VertexID(v))
			s.values[v] = val
			if int(s.owner[v]) == s.id {
				s.active[v] = act
				if act {
					s.enqueue(par, graph.VertexID(v))
				}
			}
		}
		return nil
	}
	// Resume: reload the blob set and keep what we own. Every shard
	// does this concurrently — the §6 parallel micro-partition reload —
	// and because filtering is by the *current* assignment, the blob
	// set may have been written under a different shard count. The key
	// list is a whole manifest chain, oldest manifest first: fetches
	// and decodes run in parallel, application is sequential in chain
	// order so newer (delta) blobs overlay ancestor state per vertex.
	// Pending inboxes are never delta-encoded and only the resume
	// superstep's are live, so they apply only from blobs written at
	// `start`; worklist enqueues wait until the overlay has settled
	// every owned vertex's final activity.
	blobs := make([]*shardBlob, len(w.BlobKeys))
	errs := make([]error, len(w.BlobKeys))
	var wg sync.WaitGroup
	for bi, key := range w.BlobKeys {
		wg.Add(1)
		go func(bi int, key string) {
			defer wg.Done()
			data, _, err := s.opts.Store.Get(key)
			if err != nil {
				errs[bi] = fmt.Errorf("dist: shard %d loading blob %q: %w", s.id, key, err)
				return
			}
			blob, err := decodeShardBlob(data)
			if err != nil {
				errs[bi] = fmt.Errorf("dist: shard %d blob %q: %w", s.id, key, err)
				return
			}
			blobs[bi] = blob
		}(bi, key)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for bi, blob := range blobs {
		key := w.BlobKeys[bi]
		for i, vtx := range blob.Vertex {
			if vtx < 0 || int(vtx) >= n {
				return fmt.Errorf("dist: blob %q names vertex %d of %d", key, vtx, n)
			}
			s.values[vtx] = blob.Value[i]
			if int(s.owner[vtx]) == s.id {
				s.active[vtx] = blob.Active[i]
			}
		}
		if blob.Superstep == start {
			for i, d := range blob.PendDst {
				if d < 0 || int(d) >= n {
					return fmt.Errorf("dist: blob %q pending for vertex %d of %d", key, d, n)
				}
				if int(s.owner[d]) == s.id {
					s.deliverLocal(par, graph.VertexID(d), blob.PendVal[i], false)
				}
			}
		}
		if len(blob.AuxVtx) > 0 && s.aux == nil {
			return fmt.Errorf("dist: blob %q carries aux state for auxless program %q", key, s.prog.Name())
		}
		for i, vtx := range blob.AuxVtx {
			if vtx < 0 || int(vtx) >= n {
				return fmt.Errorf("dist: blob %q aux for vertex %d of %d", key, vtx, n)
			}
			if int(s.owner[vtx]) != s.id {
				continue
			}
			if err := s.aux.UnmarshalVertexAux(graph.VertexID(vtx), blob.Aux[i]); err != nil {
				return fmt.Errorf("dist: blob %q aux for vertex %d: %w", key, vtx, err)
			}
		}
	}
	for _, v := range s.owned {
		if s.active[v] {
			s.enqueue(par, v)
		}
	}
	s.snapshotBase(start)
	return nil
}

// snapshotBase records the owned partition's current state as the diff
// base for the next delta checkpoint — called after a reload (base =
// the resumed manifest) and after every blob this shard writes.
func (s *shardSession) snapshotBase(step int) {
	s.baseStep = step
	if s.baseVal == nil {
		s.baseVal = make([]float64, len(s.owned))
		s.baseAct = make([]bool, len(s.owned))
	}
	if s.aux != nil && s.baseAux == nil {
		s.baseAux = make([][]byte, len(s.owned))
	}
	for i, v := range s.owned {
		s.baseVal[i] = s.values[v]
		s.baseAct[i] = s.active[v]
		if s.aux != nil {
			s.baseAux[i] = append([]byte(nil), s.aux.MarshalVertexAux(v)...)
		}
	}
}

// enqueue adds v to the parity-par worklist once.
func (s *shardSession) enqueue(par int, v graph.VertexID) {
	if !s.queued[par][v] {
		s.queued[par][v] = true
		s.work[par] = append(s.work[par], v)
	}
}

// deliverLocal folds or appends one message for an owned vertex into
// the parity-par inbox. countCombine controls whether a slot fold
// increments the combined-before-send counter (true only for sends
// originating on this shard).
func (s *shardSession) deliverLocal(par int, dst graph.VertexID, val float64, countCombine bool) {
	if s.comb != nil {
		if s.inSet[par][dst] {
			s.inVal[par][dst] = s.comb.Combine(s.inVal[par][dst], val)
			if countCombine {
				s.combined++
			}
		} else {
			s.inSet[par][dst] = true
			s.inVal[par][dst] = val
			s.enqueue(par, dst)
		}
		return
	}
	if len(s.inMsgs[par][dst]) == 0 {
		s.enqueue(par, dst)
	}
	s.inMsgs[par][dst] = append(s.inMsgs[par][dst], val)
}

// Graph implements engine.ContextHost.
func (s *shardSession) Graph() *graph.Graph { return s.g }

// Value implements engine.ContextHost.
func (s *shardSession) Value(v graph.VertexID) float64 { return s.values[v] }

// SetValue implements engine.ContextHost.
func (s *shardSession) SetValue(v graph.VertexID, x float64) { s.values[v] = x }

// VoteToHalt implements engine.ContextHost.
func (s *shardSession) VoteToHalt(v graph.VertexID) { s.active[v] = false }

// Send implements engine.ContextHost: local messages go straight into
// the next-parity inbox; remote messages fold into the dense combining
// slot for their destination (or join the raw outbox when the program
// has no combiner the mode allows),
// and ship to the owning peer as soon as the destination's staging
// fills — compute and communication overlap instead of serialising.
// A vertex whose slot already shipped simply opens a new slot; the
// receiver folds the partials with the same Combine. Under canonical
// mode only an ExactCombiner gets slots, so the split cannot change a
// bit; raw terms are sorted at the destination regardless of how they
// were chunked.
func (s *shardSession) Send(dst graph.VertexID, val float64) {
	to := s.owner[dst]
	np := (s.superstep + 1) & 1
	if int(to) == s.id {
		s.deliverLocal(np, dst, val, true)
	} else {
		if s.comb != nil {
			if s.accSet[dst] {
				s.accVal[dst] = s.comb.Combine(s.accVal[dst], val)
				s.combined++
			} else {
				s.accSet[dst] = true
				s.accVal[dst] = val
				s.staged[to] = append(s.staged[to], dst)
				if len(s.staged[to]) >= peerFlushThreshold {
					s.shipCombined(int(to))
				}
			}
		} else {
			s.outDst[to] = append(s.outDst[to], int32(dst))
			s.outVal[to] = append(s.outVal[to], val)
			if len(s.outDst[to]) >= peerFlushThreshold {
				s.shipRaw(int(to))
			}
		}
		s.remote++
	}
	s.sent++
}

// Aggregate implements engine.ContextHost, mirroring the engine's two
// reduction modes: canonical keeps raw terms for the coordinator's
// value-sorted fold, otherwise contributions fold locally and the
// coordinator merges one partial per shard.
func (s *shardSession) Aggregate(name string, val float64) {
	spec, ok := s.aggSpec[name]
	if !ok {
		panic(fmt.Sprintf("engine: unregistered aggregator %q", name))
	}
	if s.canonical {
		s.aggList[name] = append(s.aggList[name], val)
		return
	}
	if s.aggSeen[name] {
		s.aggLocal[name] = spec.Reduce(s.aggLocal[name], val)
	} else {
		s.aggSeen[name] = true
		s.aggLocal[name] = val
	}
}

// AggregatedValue implements engine.ContextHost.
func (s *shardSession) AggregatedValue(name string) float64 {
	v, ok := s.aggView[name]
	if !ok {
		panic(fmt.Sprintf("engine: unregistered aggregator %q", name))
	}
	return v
}

// setAggView overlays coordinator-reduced aggregator values.
func (s *shardSession) setAggView(a aggPairs) {
	for i, name := range a.Names {
		if _, ok := s.aggSpec[name]; ok {
			s.aggView[name] = a.Vals[i]
		}
	}
}

// shipCombined serialises the staged combining slots for peer `to`
// into one batch frame and hands it to the peer writer. The slots are
// reset so staging continues immediately — the double buffer's
// compute-side half.
func (s *shardSession) shipCombined(to int) {
	stagedTo := s.staged[to]
	if len(stagedTo) == 0 {
		return
	}
	dsts, vals := s.shipDst[:0], s.shipVal[:0]
	for _, v := range stagedTo {
		dsts = append(dsts, int32(v))
		vals = append(vals, s.accVal[v])
		s.accSet[v] = false
	}
	s.staged[to] = stagedTo[:0]
	s.ship(to, dsts, vals)
	s.shipDst, s.shipVal = dsts, vals
}

// shipRaw serialises the staged raw message terms for peer `to`.
func (s *shardSession) shipRaw(to int) {
	if len(s.outDst[to]) == 0 {
		return
	}
	dsts, vals := s.outDst[to], s.outVal[to]
	s.ship(to, dsts, vals)
	s.outDst[to] = dsts[:0]
	s.outVal[to] = vals[:0]
}

// ship frames one batch for peer `to` and counts it for the barrier
// vote's per-peer delivery accounting.
func (s *shardSession) ship(to int, dsts []int32, vals []float64) {
	m := batchMsg{
		Superstep: uint32(s.superstep),
		From:      uint32(s.id),
		To:        uint32(to),
		Dst:       dsts,
		Val:       vals,
	}
	s.shipBuf = m.appendTo(s.shipBuf[:0])
	s.mesh.send(to, s.shipBuf)
	s.sentTo[to]++
}

// flushRemaining ships whatever is still staged for every peer — the
// tail the threshold flushes did not cover.
func (s *shardSession) flushRemaining() {
	for to := 0; to < s.shards; to++ {
		if to == s.id {
			continue
		}
		if s.comb != nil {
			s.shipCombined(to)
		} else {
			s.shipRaw(to)
		}
	}
}

// step executes one superstep: compute the sorted owned worklist with
// staged slots shipping to peers as they fill, vote at the barrier
// with per-peer batch counts, drain the peer mesh until the expected
// arrivals for S are all in, then report the next frontier.
func (s *shardSession) step(p proceedMsg) error {
	S := int(p.Superstep)
	par, npar := S&1, (S+1)&1
	s.superstep = S
	s.setAggView(p.Aggs)
	s.ctx.SetSuperstep(S)

	work := s.work[par]
	sort.Slice(work, func(i, j int) bool { return work[i] < work[j] })
	die := s.opts.DieAtSuperstep > 0 && S == s.opts.DieAtSuperstep
	drop := s.opts.DropPeersAtSuperstep > 0 && S == s.opts.DropPeersAtSuperstep
	if die && len(work) == 0 {
		s.conn.Close()
		return fmt.Errorf("%w (shard %d, superstep %d)", ErrShardDied, s.id, S)
	}
	for i, v := range work {
		if i >= (len(work)+1)/2 {
			if die {
				// Mid-superstep death: drop the connection with the worklist
				// half-consumed and batches partially shipped — exactly what
				// a spot eviction does to a worker process.
				s.conn.Close()
				return fmt.Errorf("%w (shard %d, superstep %d)", ErrShardDied, s.id, S)
			}
			if drop {
				// Mid-flush peer partition: the data plane dies under a
				// live control connection. Subsequent ships fail on the
				// writer goroutine and surface below.
				drop = false
				s.mesh.dropConns()
			}
		}
		s.queued[par][v] = false
		msgs := s.consume(par, v)
		s.active[v] = true // message receipt reactivates
		s.prog.Compute(s.ctx, v, msgs)
		s.calls++
		if s.active[v] && !s.queued[npar][v] {
			s.queued[npar][v] = true
			s.work[npar] = append(s.work[npar], v)
		}
	}
	s.work[par] = work[:0]

	if s.opts.MuteAtSuperstep > 0 && S == s.opts.MuteAtSuperstep {
		// Stop voting: hold the connection open but never send the
		// barrier. The coordinator's watchdog must declare us dead.
		for {
			select {
			case fr := <-s.coordIn:
				if fr.err != nil {
					return fmt.Errorf("dist: shard %d muted at superstep %d: %w", s.id, S, fr.err)
				}
			case <-s.mesh.in:
			case <-s.mesh.errc:
			case <-s.runCtx.Done():
				return fmt.Errorf("dist: shard %d session cancelled: %w", s.id, s.runCtx.Err())
			}
		}
	}

	s.flushRemaining()
	if err := s.sendBarrier(S); err != nil {
		return err
	}
	if err := s.flush(); err != nil {
		return err
	}

	// Drain the peer mesh until the coordinator's EndBatches names the
	// expected arrival count for S and that many batches have landed.
	// Batches may well all arrive before the barrier fold completes —
	// they flowed peer-to-peer while everyone was still computing.
	var arrived, expect uint64
	haveEnd := false
	for !haveEnd || arrived < expect {
		select {
		case fr := <-s.coordIn:
			if fr.err != nil {
				return fmt.Errorf("dist: shard %d awaiting batches: %w", s.id, fr.err)
			}
			if fr.typ != fEndBatches {
				return fmt.Errorf("dist: shard %d: unexpected frame type %d during superstep %d", s.id, fr.typ, S)
			}
			end, err := decodeEndBatches(fr.payload)
			if err != nil {
				return err
			}
			if int(end.Superstep) != S {
				return fmt.Errorf("dist: shard %d: end-of-batches for superstep %d during %d", s.id, end.Superstep, S)
			}
			expect, haveEnd = end.Expect, true
			if arrived > expect {
				return fmt.Errorf("dist: shard %d: %d batches for superstep %d, expected %d", s.id, arrived, S, expect)
			}
		case b := <-s.mesh.in:
			if int(b.Superstep) != S {
				return fmt.Errorf("dist: shard %d: batch for superstep %d during %d", s.id, b.Superstep, S)
			}
			if err := s.ingestBatch(b); err != nil {
				return err
			}
			arrived++
			if haveEnd && arrived > expect {
				return fmt.Errorf("dist: shard %d: %d batches for superstep %d, expected %d", s.id, arrived, S, expect)
			}
		case err := <-s.mesh.errc:
			return fmt.Errorf("dist: shard %d: peer plane failed during superstep %d: %w", s.id, S, err)
		case <-s.runCtx.Done():
			return fmt.Errorf("dist: shard %d inbox drain cancelled during superstep %d: %w", s.id, S, s.runCtx.Err())
		}
	}
	return s.sendInboxed(S+1, len(s.work[npar]))
}

// consume returns v's inbox for this superstep and clears it. Under
// canonical mode a raw message multiset is sorted ascending, so Compute
// folds it independently of arrival order (a combined inbox is one
// exactly folded value already) — the distributed half of the engine's
// bit-identity guarantee.
func (s *shardSession) consume(par int, v graph.VertexID) []float64 {
	if s.comb != nil {
		if s.inSet[par][v] {
			s.inSet[par][v] = false
			return s.inVal[par][v : v+1]
		}
		return nil
	}
	msgs := s.inMsgs[par][v]
	s.inMsgs[par][v] = msgs[:0]
	if s.canonical && len(msgs) > 1 {
		sort.Float64s(msgs)
	}
	return msgs
}

// ingestBatch folds a peer batch into the inbox of the superstep
// after the batch's tag.
func (s *shardSession) ingestBatch(b batchMsg) error {
	if int(b.To) != s.id {
		return fmt.Errorf("dist: shard %d received batch for shard %d", s.id, b.To)
	}
	par := (int(b.Superstep) + 1) & 1
	n := s.g.NumVertices()
	for i, d := range b.Dst {
		if d < 0 || int(d) >= n {
			return fmt.Errorf("dist: batch names vertex %d of %d", d, n)
		}
		dst := graph.VertexID(d)
		if int(s.owner[dst]) != s.id {
			return fmt.Errorf("dist: batch delivers vertex %d owned by shard %d to shard %d", d, s.owner[dst], s.id)
		}
		s.deliverLocal(par, dst, b.Val[i], false)
	}
	return nil
}

// sendBarrier votes compute-done with this step's counters, per-peer
// batch counts and aggregator contributions, then resets the per-step
// counters.
func (s *shardSession) sendBarrier(S int) error {
	m := barrierMsg{
		Superstep: uint32(S),
		Sent:      uint64(s.sent),
		Calls:     uint64(s.calls),
		Combined:  uint64(s.combined),
		Remote:    uint64(s.remote),
		SentTo:    s.sentTo,
	}
	for _, name := range s.aggNames {
		if s.canonical {
			if lst := s.aggList[name]; len(lst) > 0 {
				m.AggNames = append(m.AggNames, name)
				m.Contribs = append(m.Contribs, lst)
				s.aggList[name] = nil
			}
		} else if s.aggSeen[name] {
			m.AggNames = append(m.AggNames, name)
			m.Contribs = append(m.Contribs, []float64{s.aggLocal[name]})
			delete(s.aggSeen, name)
		}
	}
	err := s.send(fBarrier, m.encode())
	s.sent, s.calls, s.combined, s.remote = 0, 0, 0, 0
	for i := range s.sentTo {
		s.sentTo[i] = 0
	}
	return err
}

// checkpoint writes this shard's blob for a resume into req.Superstep:
// owned values and activity, the pending inbox of that superstep's
// parity buffer (delivered but unconsumed — the same snapshot boundary
// engine checkpoints use), and — for VertexAux programs — each owned
// vertex's auxiliary state. Checkpoints run in the quiescent window
// after every shard's frontier report, so no batch is in flight.
//
// A delta request with a matching diff base encodes only owned
// vertices whose value/activity/aux changed since the base (the
// pending inbox stays complete — it has no stable identity to diff);
// a stale or missing base falls back to a full blob, flagged in the
// ack. Either way the written blob becomes the next diff base.
func (s *shardSession) checkpoint(req checkpointMsg) error {
	par := int(req.Superstep) & 1
	asDelta := req.Delta && s.baseStep >= 0 && s.baseStep == int(req.Parent)
	blob := &shardBlob{
		Superstep: int(req.Superstep),
		Shard:     s.id,
		Full:      !asDelta,
		Parent:    int(req.Parent),
	}
	if !asDelta {
		blob.Vertex = make([]int32, 0, len(s.owned))
		blob.Value = make([]float64, 0, len(s.owned))
		blob.Active = make([]bool, 0, len(s.owned))
	}
	if s.comb != nil {
		// Every vertex with a folded inbox value is on the worklist.
		blob.PendDst = make([]int32, 0, len(s.work[par]))
		blob.PendVal = make([]float64, 0, len(s.work[par]))
	}
	var aux []byte
	for i, v := range s.owned {
		if s.aux != nil {
			aux = s.aux.MarshalVertexAux(v)
		}
		if asDelta {
			if s.values[v] == s.baseVal[i] && s.active[v] == s.baseAct[i] &&
				(s.aux == nil || bytes.Equal(aux, s.baseAux[i])) {
				continue
			}
		}
		blob.Vertex = append(blob.Vertex, int32(v))
		blob.Value = append(blob.Value, s.values[v])
		blob.Active = append(blob.Active, s.active[v])
		if s.aux != nil {
			blob.AuxVtx = append(blob.AuxVtx, int32(v))
			blob.Aux = append(blob.Aux, append([]byte(nil), aux...))
		}
	}
	for _, v := range s.owned {
		if s.comb != nil {
			if s.inSet[par][v] {
				blob.PendDst = append(blob.PendDst, int32(v))
				blob.PendVal = append(blob.PendVal, s.inVal[par][v])
			}
		} else {
			for _, val := range s.inMsgs[par][v] {
				blob.PendDst = append(blob.PendDst, int32(v))
				blob.PendVal = append(blob.PendVal, val)
			}
		}
	}
	data := blob.encode()
	ack := checkpointAckMsg{Superstep: req.Superstep, Bytes: uint64(len(data)), Full: req.Delta && !asDelta}
	if _, err := s.opts.Store.Put(req.Key, data); err != nil {
		ack.Err = err.Error()
		s.opts.logf("dist: shard %d checkpoint %q failed: %v", s.id, req.Key, err)
	} else {
		s.snapshotBase(int(req.Superstep))
	}
	if err := s.send(fCheckpointAck, ack.encode()); err != nil {
		return err
	}
	return s.flush()
}

// sendValues reports the owned final values and ends the session.
func (s *shardSession) sendValues() error {
	m := valuesMsg{
		Vertex: make([]int32, len(s.owned)),
		Val:    make([]float64, len(s.owned)),
	}
	for i, v := range s.owned {
		m.Vertex[i] = int32(v)
		m.Val[i] = s.values[v]
	}
	if err := s.send(fValues, m.encode()); err != nil {
		return err
	}
	return s.flush()
}
