package dist

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"hourglass/internal/ckpt"
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

// shardSession is one shard over one coordinator session: one
// engine.Partition — the BSP kernel the in-process engine runs N of —
// plus what a process adds to it: the coordinator connection, the peer
// mesh its remote slices ship over, barrier votes, the delta-checkpoint
// base and the chaos hooks.
type shardSession struct {
	runCtx context.Context
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	opts   ShardOptions

	mesh    *peerMesh
	coordIn chan coordFrame
	done    chan struct{} // closed when run() returns; unblocks coordReader

	id, shards int
	owner      []int32
	part       *engine.Partition
	superstep  int

	// sentTo counts the batch frames shipped to each peer this superstep
	// for the barrier vote's delivery accounting; shipBuf is the reused
	// encode buffer (the mesh copies it into the queued frame).
	sentTo  []uint64
	shipBuf []byte

	// base is the owned partition's full export as of the manifest at
	// base.Superstep — the resumed manifest after a reload, then each
	// checkpoint this shard wrote — the diff base of the next delta. nil
	// (a fresh start) makes the next checkpoint necessarily full.
	base *ckpt.Blob
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
	if err := s.sendInboxed(start, s.part.Frontier()); err != nil {
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
	prog, err := pspec.New()
	if err != nil {
		return err
	}
	g, err := gspec.Build()
	if err != nil {
		return err
	}
	s.id, s.shards, s.owner = int(w.Shard), int(w.Shards), w.Assign
	if s.part, err = engine.NewPartition(g, prog, w.Assign, s.id, s.shards, w.Canonical); err != nil {
		return fmt.Errorf("dist: shard %d of %d: %w", s.id, s.shards, err)
	}
	s.part.ShipVia(peerFlushThreshold, s.ship)
	s.part.Aggregates().Set(w.Aggs)
	s.sentTo = make([]uint64, s.shards)
	if len(w.BlobKeys) == 0 {
		s.part.Init()
		return nil
	}
	// Resume: reload the blob set and keep what we own. Every shard
	// does this concurrently — the §6 parallel micro-partition reload —
	// and because the kernel filters by the *current* assignment, the
	// blob set may have been written under a different shard count. The
	// key list is a whole manifest chain, oldest manifest first: fetches
	// and decodes run in parallel, the overlay runs in chain order.
	blobs := make([]*ckpt.Blob, len(w.BlobKeys))
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
			blob, err := ckpt.DecodeBlob(data)
			if err != nil {
				errs[bi] = fmt.Errorf("dist: shard %d blob %q: %w", s.id, key, err)
				return
			}
			blobs[bi] = blob
		}(bi, key)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	start := int(w.Start)
	if err := s.part.Restore(blobs, start); err != nil {
		return fmt.Errorf("dist: shard %d restoring %q: %w", s.id, w.BlobKeys, err)
	}
	s.base = s.part.Export(start)
	return nil
}

// ship frames one batch of staged messages for peer `to` — called by
// the partition as a peer's staging fills, and at the barrier for the
// tail — and counts it for the barrier vote's per-peer delivery
// accounting.
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

// step executes one superstep: compute the worklist with staged
// slices shipping to peers as they fill, vote at the barrier with
// per-peer batch counts, drain the peer mesh until the expected
// arrivals for S are all in, then report the next frontier.
func (s *shardSession) step(p proceedMsg) error {
	S := int(p.Superstep)
	s.superstep = S
	s.part.Aggregates().Set(p.Aggs)
	n := s.part.Begin(S)
	left := s.part.Compute((n + 1) / 2)
	if s.opts.DieAtSuperstep > 0 && S == s.opts.DieAtSuperstep {
		// Mid-superstep death: drop the connection with the worklist
		// half-consumed and batches partially shipped — exactly what a
		// spot eviction does to a worker process.
		s.conn.Close()
		return fmt.Errorf("%w (shard %d, superstep %d)", ErrShardDied, s.id, S)
	}
	if s.opts.DropPeersAtSuperstep > 0 && S == s.opts.DropPeersAtSuperstep {
		// Mid-flush peer partition: the data plane dies under a live
		// control connection. Subsequent ships fail on the writer
		// goroutine and surface below.
		s.mesh.dropConns()
	}
	s.part.Compute(left)

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

	for to := 0; to < s.shards; to++ {
		if to != s.id {
			s.part.Ship(to)
		}
	}
	s.part.Take(s.part) // local messages first, then the peers'
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
		case f := <-s.mesh.errc:
			return s.peerLost(S, f)
		case <-s.runCtx.Done():
			return fmt.Errorf("dist: shard %d inbox drain cancelled during superstep %d: %w", s.id, S, s.runCtx.Err())
		}
	}
	s.part.Settle()
	s.part.Release(s.id)
	return s.sendInboxed(S+1, s.part.Frontier())
}

// peerLost handles a failed peer link: the shard names the peer to the
// coordinator, which blames that peer, and keeps its own links open
// until the coordinator ends the session. Hanging up instead would
// fail this shard's other links too and race its disconnect against
// the dead peer's, leaving the coordinator to blame whichever
// disconnect it reads first. A fault that names no peer — among them
// every fault of a shard that severed its own links — hangs up, so the
// blame falls on this shard.
func (s *shardSession) peerLost(S int, f peerFault) error {
	err := fmt.Errorf("dist: shard %d: peer plane failed during superstep %d: %w", s.id, S, f.err)
	if f.peer < 0 || s.send(fPeerLost, peerLostMsg{Peer: uint32(f.peer), Err: f.err.Error()}.encode()) != nil || s.flush() != nil {
		return err
	}
	for {
		select {
		case fr := <-s.coordIn:
			if fr.err != nil {
				return err
			}
		case <-s.runCtx.Done():
			return err
		}
	}
}

// ingestBatch hands a peer batch to the partition, which owns every
// vertex it names.
func (s *shardSession) ingestBatch(b batchMsg) error {
	if int(b.To) != s.id {
		return fmt.Errorf("dist: shard %d received batch for shard %d", s.id, b.To)
	}
	for _, d := range b.Dst {
		if d < 0 || int(d) >= len(s.owner) {
			return fmt.Errorf("dist: batch names vertex %d of %d", d, len(s.owner))
		}
		if int(s.owner[d]) != s.id {
			return fmt.Errorf("dist: batch delivers vertex %d owned by shard %d to shard %d", d, s.owner[d], s.id)
		}
	}
	s.part.Deliver(b.Dst, b.Val)
	return nil
}

// sendBarrier votes compute-done with this step's tally, per-peer
// batch counts and aggregator contributions, then resets the per-peer
// counts.
func (s *shardSession) sendBarrier(S int) error {
	t := s.part.Tally()
	m := barrierMsg{
		Superstep: uint32(S),
		Sent:      uint64(t.Sent),
		Calls:     uint64(t.Calls),
		Combined:  uint64(t.Combined),
		Remote:    uint64(t.Remote),
		SentTo:    s.sentTo,
	}
	names := s.part.Aggregates().Names()
	for a, terms := range s.part.Contribs() {
		if len(terms) > 0 {
			m.AggNames = append(m.AggNames, names[a])
			m.Contribs = append(m.Contribs, terms)
		}
	}
	err := s.send(fBarrier, m.encode())
	clear(s.sentTo)
	return err
}

// checkpoint writes this shard's blob for a resume into req.Superstep:
// the partition's export — owned values, activity, aux state and the
// pending inbox (delivered but unconsumed, the snapshot boundary engine
// checkpoints use too). Checkpoints run in the quiescent window after
// every shard's frontier report, so no batch is in flight.
//
// A delta request with a matching diff base encodes only owned
// vertices whose value/activity/aux changed since the base (the
// pending inbox stays complete — it has no stable identity to diff);
// a stale or missing base falls back to a full blob, flagged in the
// ack. Either way the written state becomes the next diff base.
func (s *shardSession) checkpoint(req checkpointMsg) error {
	full := s.part.Export(int(req.Superstep))
	full.Shard, full.Parent = s.id, int(req.Parent)
	blob := full
	asDelta := req.Delta && s.base != nil && s.base.Superstep == int(req.Parent)
	if asDelta {
		blob = deltaOf(full, s.base)
	}
	data := blob.Encode()
	ack := checkpointAckMsg{Superstep: req.Superstep, Bytes: uint64(len(data)), Full: req.Delta && !asDelta}
	if _, err := s.opts.Store.Put(req.Key, data); err != nil {
		ack.Err = err.Error()
		s.opts.logf("dist: shard %d checkpoint %q failed: %v", s.id, req.Key, err)
	} else {
		s.base = full
	}
	if err := s.send(fCheckpointAck, ack.encode()); err != nil {
		return err
	}
	return s.flush()
}

// deltaOf keeps the vertices of full whose value, activity or aux
// state differ from base, an export of the same partition.
func deltaOf(full, base *ckpt.Blob) *ckpt.Blob {
	d := &ckpt.Blob{Superstep: full.Superstep, Shard: full.Shard, Parent: full.Parent,
		PendDst: full.PendDst, PendVal: full.PendVal}
	for i, v := range full.Vertex {
		if full.Value[i] == base.Value[i] && full.Active[i] == base.Active[i] &&
			(full.Aux == nil || bytes.Equal(full.Aux[i], base.Aux[i])) {
			continue
		}
		d.Vertex = append(d.Vertex, v)
		d.Value = append(d.Value, full.Value[i])
		d.Active = append(d.Active, full.Active[i])
		if full.Aux != nil {
			d.AuxVtx = append(d.AuxVtx, v)
			d.Aux = append(d.Aux, full.Aux[i])
		}
	}
	return d
}

// sendValues reports the owned final values and ends the session.
func (s *shardSession) sendValues() error {
	var m valuesMsg
	for v, o := range s.owner {
		if int(o) == s.id {
			m.Vertex = append(m.Vertex, int32(v))
			m.Val = append(m.Val, s.part.Value(graph.VertexID(v)))
		}
	}
	if err := s.send(fValues, m.encode()); err != nil {
		return err
	}
	return s.flush()
}
