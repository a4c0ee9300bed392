package dist

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hourglass/internal/cloud"
)

// peerFlushThreshold is the staged-entry count at which a shard ships
// a partial batch to its peer mid-compute (on the combiner path the
// kernel routes its staging list at this length and ships each peer
// outbox that then holds as many entries). Small enough that sends
// overlap vertex compute (the double-buffered staging: the encoded
// frame travels on the writer goroutine while the combining slots
// accept the next entries), large enough that frame overhead stays
// negligible (~96 KB of payload per frame).
const peerFlushThreshold = 8192

// peerHelloTimeout bounds how long an accepted peer connection may
// take to identify itself before the acceptor drops it.
const peerHelloTimeout = 10 * time.Second

// peerDialPolicy bounds the connect-time dial retries: a peer that is
// still binding its listener (slow process boot, standby prefetch in
// flight) gets a few jittered chances before the session gives up.
// Total worst-case backoff stays under ~4 s wall time so a genuinely
// absent peer still fails well inside the barrier watchdog.
var peerDialPolicy = cloud.RetryPolicy{Attempts: 6, Base: 0.1, Factor: 2, Jitter: 0.5}

// peerMesh is one shard's view of the shard-to-shard data plane: a
// listener accepting one inbound link per peer (batches in), one
// dialed outbound link per peer (batches out, drained by a dedicated
// writer goroutine so compute never blocks on the wire), and the
// arrival channel the session's superstep drain consumes.
//
// Incoming batches are decoded on the per-link reader goroutines and
// handed to the single consumer through in; delivery into the
// partition's inbox stays on the session goroutine, so ingestion
// needs no locks while read+decode still overlap compute.
type peerMesh struct {
	self int
	ln   net.Listener
	out  []*peerLink // by shard id, nil for self

	in   chan batchMsg
	errc chan peerFault
	quit chan struct{}
	wg   sync.WaitGroup

	// conns guards the accepted inbound connections for teardown and
	// the dropConns chaos hook.
	mu       sync.Mutex
	inbound  []net.Conn
	dropped  bool
	closed   bool
	frames   atomic.Int64 // peer-plane frames written + read
	bytes    atomic.Int64 // peer-plane bytes written + read
	reported struct{ frames, bytes int64 }
}

// peerLink is one outbound connection: frames pushed to q are written
// and flushed in bursts by a goroutine owned by the mesh.
type peerLink struct {
	to   int
	conn net.Conn
	q    *frameQueue
}

// peerFault is an asynchronous mesh error and the peer whose link
// failed (-1 when no peer is known yet, or when this shard severed its
// own links).
type peerFault struct {
	peer int
	err  error
}

// newPeerMesh opens the peer listener. It is called before the hello
// so the announced address is already accepting when any peer learns
// it from the welcome.
func newPeerMesh(listenAddr string) (*peerMesh, error) {
	if listenAddr == "" {
		listenAddr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("dist: peer listener on %s: %w", listenAddr, err)
	}
	return &peerMesh{
		ln:   ln,
		in:   make(chan batchMsg, 256),
		errc: make(chan peerFault, 1),
		quit: make(chan struct{}),
	}, nil
}

// addr is the dialable address peers are told about.
func (m *peerMesh) addr() string { return m.ln.Addr().String() }

// connect wires the mesh after the welcome named every peer: the
// accept loop starts taking inbound links, and one outbound link is
// dialed to each peer. Dial order is by ascending shard id; because
// inbound and outbound links are separate connections, no shard ever
// waits on a peer's dial to finish its own. Each dial is retried under
// peerDialPolicy — jittered exponential backoff, seeded per shard so
// concurrent dialers decorrelate — because peers boot independently
// and a slow one must not kill the whole session. Cancelling ctx
// interrupts any in-flight dial or backoff sleep (a peer that never
// comes up cannot wedge the session past its teardown).
func (m *peerMesh) connect(ctx context.Context, self int, peers []string) error {
	m.self = self
	m.out = make([]*peerLink, len(peers))
	m.wg.Add(1)
	go m.accept()
	var d net.Dialer
	policy := peerDialPolicy
	policy.Seed = int64(self + 1)
	retrier := cloud.NewRetrier(policy)
	for j, addr := range peers {
		if j == self {
			continue
		}
		var conn net.Conn
		_, err := retrier.DoCtx(ctx, func() error {
			var derr error
			conn, derr = d.DialContext(ctx, "tcp", addr)
			return derr
		})
		if err != nil {
			return fmt.Errorf("dist: shard %d dialing peer %d at %s: %w", self, j, addr, err)
		}
		if _, err := writeFrame(conn, fPeerHello, peerHelloMsg{Version: wireVersion, From: uint32(self)}.encode()); err != nil {
			conn.Close()
			return fmt.Errorf("dist: shard %d peer hello to %d: %w", self, j, err)
		}
		link := &peerLink{to: j, conn: conn, q: newFrameQueue()}
		m.out[j] = link
		m.wg.Add(1)
		go m.writer(link)
	}
	return nil
}

// accept takes inbound peer links until the listener closes. Each link
// must open with a peer hello; a reader goroutine then pumps its
// batches into the arrival channel.
func (m *peerMesh) accept() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return // listener closed: teardown
		}
		if err := conn.SetReadDeadline(time.Now().Add(peerHelloTimeout)); err != nil {
			conn.Close()
			m.fail(-1, fmt.Errorf("dist: shard %d arming peer hello deadline: %w", m.self, err))
			continue
		}
		typ, payload, _, err := readFrame(conn)
		if err != nil || typ != fPeerHello {
			conn.Close()
			m.fail(-1, fmt.Errorf("dist: shard %d inbound peer link without hello (type %d, err %v)", m.self, typ, err))
			continue
		}
		h, err := decodePeerHello(payload)
		if err != nil || h.Version != wireVersion {
			conn.Close()
			m.fail(-1, fmt.Errorf("dist: shard %d inbound peer hello version %d: %v", m.self, h.Version, err))
			continue
		}
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			conn.Close()
			m.fail(-1, fmt.Errorf("dist: shard %d clearing peer hello deadline: %w", m.self, err))
			continue
		}
		m.mu.Lock()
		if m.closed || m.dropped {
			m.mu.Unlock()
			conn.Close()
			continue
		}
		m.inbound = append(m.inbound, conn)
		m.mu.Unlock()
		m.wg.Add(1)
		go m.reader(conn, int(h.From))
	}
}

// reader pumps one inbound link: frames are decoded here (overlapping
// the session's compute) and folded later by the single consumer.
func (m *peerMesh) reader(conn net.Conn, from int) {
	defer m.wg.Done()
	br := bufio.NewReaderSize(conn, 1<<16)
	for {
		typ, payload, size, err := readFrame(br)
		if err != nil {
			m.fail(from, fmt.Errorf("dist: shard %d peer link from %d: %w", m.self, from, err))
			return
		}
		m.frames.Add(1)
		m.bytes.Add(int64(size))
		if typ != fBatch {
			m.fail(from, fmt.Errorf("dist: shard %d: frame type %d on peer link from %d", m.self, typ, from))
			return
		}
		b, err := decodeBatch(payload)
		if err != nil {
			m.fail(from, err)
			return
		}
		if int(b.From) != from {
			m.fail(from, fmt.Errorf("dist: batch claims sender %d on peer link from %d", b.From, from))
			return
		}
		select {
		case m.in <- b:
		case <-m.quit:
			return
		}
	}
}

// writer drains one outbound link's queue, writing bursts and flushing
// once per burst — the far side of the double buffer: while a frame
// burst is on the wire here, the session goroutine stages the next one.
func (m *peerMesh) writer(link *peerLink) {
	defer m.wg.Done()
	bw := bufio.NewWriterSize(link.conn, 1<<16)
	for {
		frames, ok := link.q.popAll()
		if !ok {
			return
		}
		for _, f := range frames {
			if _, err := bw.Write(f); err != nil {
				m.fail(link.to, fmt.Errorf("dist: shard %d peer write to %d: %w", m.self, link.to, err))
				return
			}
			m.frames.Add(1)
			m.bytes.Add(int64(len(f)))
		}
		if err := bw.Flush(); err != nil {
			m.fail(link.to, fmt.Errorf("dist: shard %d peer flush to %d: %w", m.self, link.to, err))
			return
		}
	}
}

// send queues one batch frame for the link to shard j. The payload is
// copied into the frame before send returns; callers may reuse it.
func (m *peerMesh) send(j int, payload []byte) {
	m.out[j].q.push(fBatch, payload)
}

// fail records the first asynchronous mesh error; errors after close()
// are dropped so a clean session end does not masquerade as a loss.
// Errors after dropConns are NOT dropped — the chaos hook exists to
// make the dead data plane surface — but they name no peer: this shard
// severed its own links, so no peer is to blame.
func (m *peerMesh) fail(peer int, err error) {
	m.mu.Lock()
	suppress, dropped := m.closed, m.dropped
	m.mu.Unlock()
	if suppress {
		return
	}
	if dropped {
		peer = -1
	}
	select {
	case m.errc <- peerFault{peer, err}:
	default:
	}
}

// counters returns the peer-plane wire totals accumulated since the
// previous call — the delta the next inboxed vote reports. Only the
// session goroutine calls it.
func (m *peerMesh) counters() (frames, bytes uint64) {
	f, b := m.frames.Load(), m.bytes.Load()
	frames = uint64(f - m.reported.frames)
	bytes = uint64(b - m.reported.bytes)
	m.reported.frames, m.reported.bytes = f, b
	return frames, bytes
}

// dropConns abruptly severs every peer connection and the listener
// while leaving the mesh bookkeeping (and the coordinator connection)
// intact — the chaos hook standing in for a network partition or a
// peer process dying mid-flush. Subsequent reads and writes fail and
// surface on errc.
func (m *peerMesh) dropConns() {
	m.mu.Lock()
	m.dropped = true
	inbound := m.inbound
	m.inbound = nil
	m.mu.Unlock()
	m.ln.Close()
	for _, c := range inbound {
		c.Close()
	}
	for _, l := range m.out {
		if l != nil {
			l.conn.Close()
		}
	}
}

// close tears the mesh down: listener, links, queues, goroutines.
func (m *peerMesh) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	inbound := m.inbound
	m.inbound = nil
	m.mu.Unlock()
	close(m.quit)
	m.ln.Close()
	for _, c := range inbound {
		c.Close()
	}
	for _, l := range m.out {
		if l != nil {
			l.q.close()
			l.conn.Close()
		}
	}
	m.wg.Wait()
}
