// Package dist shards the BSP engine across OS processes: a
// coordinator owns superstep barriers, canonical aggregator reduction
// and checkpoint manifests, while N shard workers each own a
// micro-partition of the vertex space and exchange superstep-tagged
// message batches directly over a shard-to-shard peer mesh, with the
// same length-prefixed binary frame protocol on every TCP link.
//
// The data plane never touches the coordinator: every shard opens a
// peer listener before its hello (the hello announces the address,
// the welcome distributes the full list), dials each peer once at
// cluster start, and streams batches straight to the owning shard.
// Batches overlap with compute — the sender-side combining slots
// (PR 2) flush to their peer as they fill during vertex compute, on a
// per-peer writer goroutine, instead of serialising compute → flush →
// barrier. Because no central router orders the frames, each barrier
// vote carries per-peer sent-batch counts; the coordinator folds them
// and tells every receiver in EndBatches exactly how many batches its
// superstep must deliver before it may report its frontier.
//
// Under canonical mode only an engine.ExactCombiner program ships
// folded slots (its fold gives the same bits under any split or order);
// every other program ships individual message terms that are sorted
// at the destination. Either way distributed results are bit-identical
// to the in-process engine's canonical runs regardless of shard count,
// flush timing or peer arrival order.
//
// Eviction = killing a shard process. The coordinator declares the
// shard dead (connection loss or barrier-vote timeout), emits an
// obs.EvShardEvict event and tears the session down; a fresh session
// resumes from the newest valid per-shard checkpoint set, with every
// shard reloading the micro-partition blobs in parallel from the
// shared blob store — the paper's §6 parallel reload, over real files
// when the store is a cloud.FSStore.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"hourglass/internal/ckpt"
)

// wireVersion gates the handshake: a coordinator and shard disagree
// loudly at Hello/Welcome time instead of corrupting a run later.
// Version 2 is the peer-mesh plane: hello/welcome carry peer
// addresses, barriers carry per-peer batch counts, EndBatches carries
// the expected arrival count, and batches flow shard-to-shard.
// Version 3 adds the worker's self-declared process identity to the
// hello, so shard-loss events name the actual process that died.
// Version 4 adds delta checkpoints: checkpoint requests carry the
// delta flag and parent superstep, acks report whether the shard
// wrote a full blob instead.
// Version 5 adds the peer-lost report: a shard whose peer link fails
// names that peer to the coordinator instead of hanging up.
const wireVersion = 5

// MaxFrameBytes bounds a single frame's payload. Batches are chunked
// well below this (batchChunk); the bound exists so a corrupt length
// prefix cannot make a reader allocate gigabytes.
const MaxFrameBytes = 64 << 20

// Frame types. A frame is
//
//	u32 payloadLen | u8 type | payload | u32 crc32(type ∥ payload)
//
// with all integers little-endian and the CRC using the IEEE
// polynomial (matching the engine's checkpoint trailers).
const (
	fHello         = 1  // shard → coordinator: version + peer listener address
	fWelcome       = 2  // coordinator → shard: identity, job spec, peer list, resume state
	fProceed       = 3  // coordinator → shard: run superstep S (or halt)
	fBatch         = 4  // shard → shard (peer mesh): messages sent during S
	fBarrier       = 5  // shard → coordinator: compute-done vote + stats + per-peer batch counts
	fEndBatches    = 6  // coordinator → shard: all voted; expect this many batches for S
	fInboxed       = 7  // shard → coordinator: delivery done, next frontier + peer wire counters
	fCheckpoint    = 8  // coordinator → shard: write your checkpoint blob
	fCheckpointAck = 9  // shard → coordinator: blob written (or error)
	fValues        = 10 // shard → coordinator: final owned vertex values
	fPeerHello     = 11 // shard → shard: opens a peer connection (version + dialer id)
	fPeerLost      = 12 // shard → coordinator: my link to this peer failed
)

// frameHeaderLen is the fixed per-frame overhead: u32 length, u8 type
// up front and the u32 CRC trailer.
const frameHeaderLen = 4 + 1 + 4

var (
	// ErrFrameTooLarge reports a length prefix above MaxFrameBytes.
	ErrFrameTooLarge = errors.New("dist: frame exceeds size limit")
	// ErrCorruptFrame reports a truncated payload, a CRC mismatch, or a
	// payload that does not decode as its frame type.
	ErrCorruptFrame = errors.New("dist: corrupt frame")
)

// finish ends a payload decode on the shared codec, reporting a short
// or overlong payload as a corrupt frame (the error wraps
// ckpt.ErrCorrupt too).
func finish(r *ckpt.Dec) error {
	if err := r.Finish(); err != nil {
		return fmt.Errorf("%w: %w", ErrCorruptFrame, err)
	}
	return nil
}

// appendFrame encodes one frame onto dst.
func appendFrame(dst []byte, typ byte, payload []byte) []byte {
	var hdr [5]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	hdr[4] = typ
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(hdr[4:5])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	var trailer [4]byte
	binary.LittleEndian.PutUint32(trailer[:], crc)
	return append(dst, trailer[:]...)
}

// writeFrame writes one frame, returning the bytes put on the wire.
func writeFrame(w io.Writer, typ byte, payload []byte) (int, error) {
	buf := appendFrame(make([]byte, 0, frameHeaderLen+len(payload)), typ, payload)
	n, err := w.Write(buf)
	return n, err
}

// readFrame reads one frame from a stream. The returned payload is
// freshly allocated. Size is the total wire bytes consumed.
func readFrame(r io.Reader) (typ byte, payload []byte, size int, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > MaxFrameBytes {
		return 0, nil, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	typ = hdr[4]
	payload = make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: truncated payload: %v", ErrCorruptFrame, err)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return 0, nil, 0, fmt.Errorf("%w: truncated trailer: %v", ErrCorruptFrame, err)
	}
	crc := crc32.ChecksumIEEE(hdr[4:5])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if binary.LittleEndian.Uint32(trailer[:]) != crc {
		return 0, nil, 0, fmt.Errorf("%w: CRC32 mismatch on type %d", ErrCorruptFrame, typ)
	}
	return typ, payload, frameHeaderLen + int(n), nil
}

// DecodeFrame decodes one frame from the head of b, returning the
// remainder. It is the pure-slice twin of readFrame and the fuzz
// target: it must never panic, whatever bytes it is fed.
func DecodeFrame(b []byte) (typ byte, payload []byte, rest []byte, err error) {
	if len(b) < 5 {
		return 0, nil, b, fmt.Errorf("%w: short header (%d bytes)", ErrCorruptFrame, len(b))
	}
	n := binary.LittleEndian.Uint32(b[:4])
	if n > MaxFrameBytes {
		return 0, nil, b, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	typ = b[4]
	total := frameHeaderLen + int(n)
	if len(b) < total {
		return 0, nil, b, fmt.Errorf("%w: %d of %d bytes", ErrCorruptFrame, len(b), total)
	}
	payload = b[5 : 5+n]
	crc := crc32.ChecksumIEEE(b[4:5])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if binary.LittleEndian.Uint32(b[5+n:total]) != crc {
		return 0, nil, b, fmt.Errorf("%w: CRC32 mismatch on type %d", ErrCorruptFrame, typ)
	}
	return typ, payload, b[total:], nil
}

// helloMsg opens a shard's coordinator connection. PeerAddr is the
// shard's peer-mesh listener: the coordinator collects every hello's
// address and redistributes the full list in the welcomes, which is
// how shards learn where to dial each other. Proc is the worker's
// self-declared process identity ("pid:1234", "goroutine:0.2"): shard
// ids follow accept order, so only the worker itself can tell the
// coordinator which process ended up behind which id.
type helloMsg struct {
	Version  uint32
	PeerAddr string
	Proc     string
}

func (m helloMsg) encode() []byte {
	var w ckpt.Enc
	w.U32(m.Version)
	w.Str(m.PeerAddr)
	w.Str(m.Proc)
	return w.B
}

func decodeHello(p []byte) (helloMsg, error) {
	r := ckpt.NewDec(p)
	m := helloMsg{Version: r.U32(), PeerAddr: r.Str(), Proc: r.Str()}
	return m, finish(r)
}

// peerHelloMsg opens a shard-to-shard connection: the dialer
// identifies itself so the acceptor can attribute every batch on the
// link. Version is checked like the coordinator handshake — a mesh
// must not silently mix wire dialects.
type peerHelloMsg struct {
	Version uint32
	From    uint32
}

func (m peerHelloMsg) encode() []byte {
	var w ckpt.Enc
	w.U32(m.Version)
	w.U32(m.From)
	return w.B
}

func decodePeerHello(p []byte) (peerHelloMsg, error) {
	r := ckpt.NewDec(p)
	m := peerHelloMsg{Version: r.U32(), From: r.U32()}
	return m, finish(r)
}

// welcomeMsg hands a shard everything it needs to (re)build its state:
// identity, the program and graph specs, the vertex→shard assignment,
// the peer-mesh address of every shard (index = shard id), and — when
// resuming — the checkpoint blobs to reload plus the aggregator
// values visible at the resume superstep.
type welcomeMsg struct {
	Version   uint32
	Shard     uint32
	Shards    uint32
	Canonical bool
	Start     uint32 // first superstep of this session
	Program   string // ProgramSpec JSON
	Graph     string // GraphSpec JSON
	Assign    []int32
	Aggs      ckpt.Aggs
	BlobKeys  []string // resume blobs (empty = fresh start)
	Peers     []string // peer listener address per shard id
}

func (m welcomeMsg) encode() []byte {
	var w ckpt.Enc
	w.U32(m.Version)
	w.U32(m.Shard)
	w.U32(m.Shards)
	w.Bool(m.Canonical)
	w.U32(m.Start)
	w.Str(m.Program)
	w.Str(m.Graph)
	w.I32s(m.Assign)
	w.Aggs(m.Aggs)
	w.Strs(m.BlobKeys)
	w.Strs(m.Peers)
	return w.B
}

func decodeWelcome(p []byte) (welcomeMsg, error) {
	r := ckpt.NewDec(p)
	m := welcomeMsg{
		Version:   r.U32(),
		Shard:     r.U32(),
		Shards:    r.U32(),
		Canonical: r.Bool(),
		Start:     r.U32(),
		Program:   r.Str(),
		Graph:     r.Str(),
		Assign:    r.I32s(),
		Aggs:      r.Aggs(),
		BlobKeys:  r.Strs(),
		Peers:     r.Strs(),
	}
	return m, finish(r)
}

// proceedMsg starts superstep S on every shard (or, with Halt set,
// ends the session). Aggs carries the reduced aggregator values
// visible during S.
type proceedMsg struct {
	Superstep uint32
	Halt      bool
	Aggs      ckpt.Aggs
}

func (m proceedMsg) encode() []byte {
	var w ckpt.Enc
	w.U32(m.Superstep)
	w.Bool(m.Halt)
	w.Aggs(m.Aggs)
	return w.B
}

func decodeProceed(p []byte) (proceedMsg, error) {
	r := ckpt.NewDec(p)
	m := proceedMsg{Superstep: r.U32(), Halt: r.Bool(), Aggs: r.Aggs()}
	return m, finish(r)
}

// batchMsg carries messages sent during superstep S from one shard to
// another over their direct peer link — the serialised form of the
// sender's per-destination combining slots (or raw message terms when
// the program may not combine). With the mesh, From/To are redundancy
// the receiver validates against the link's peer hello and its own id.
type batchMsg struct {
	Superstep uint32
	From      uint32
	To        uint32
	Dst       []int32
	Val       []float64
}

func (m batchMsg) encode() []byte { return m.appendTo(nil) }

// appendTo appends the encoded batch to b, so the hot path can encode
// into a reused buffer.
func (m batchMsg) appendTo(b []byte) []byte {
	w := ckpt.Enc{B: b}
	w.U32(m.Superstep)
	w.U32(m.From)
	w.U32(m.To)
	w.I32s(m.Dst)
	w.F64s(m.Val)
	return w.B
}

func decodeBatch(p []byte) (batchMsg, error) {
	r := ckpt.NewDec(p)
	m := batchMsg{
		Superstep: r.U32(),
		From:      r.U32(),
		To:        r.U32(),
		Dst:       r.I32s(),
		Val:       r.F64s(),
	}
	if err := finish(r); err != nil {
		return m, err
	}
	if len(m.Dst) != len(m.Val) {
		return m, fmt.Errorf("%w: batch with %d destinations, %d values", ErrCorruptFrame, len(m.Dst), len(m.Val))
	}
	return m, nil
}

// barrierMsg is a shard's compute-done vote for superstep S: all its
// batches are on the peer mesh, here are its counters, per-peer
// sent-batch counts and aggregator contributions. SentTo[j] is the
// number of batch frames this shard put on its link to shard j during
// S — the coordinator folds the column sums and tells each receiver
// how many arrivals complete its superstep, replacing the ordering
// guarantee the relay used to provide. Under canonical mode Contribs
// carries every raw term (the coordinator folds them value-sorted);
// otherwise at most one locally folded partial per name.
type barrierMsg struct {
	Superstep uint32
	Sent      uint64
	Calls     uint64
	Combined  uint64
	Remote    uint64
	SentTo    []uint64
	AggNames  []string
	Contribs  [][]float64
}

func (m barrierMsg) encode() []byte {
	var w ckpt.Enc
	w.U32(m.Superstep)
	w.U64(m.Sent)
	w.U64(m.Calls)
	w.U64(m.Combined)
	w.U64(m.Remote)
	w.U64s(m.SentTo)
	w.U32(uint32(len(m.AggNames)))
	for i, name := range m.AggNames {
		w.Str(name)
		w.F64s(m.Contribs[i])
	}
	return w.B
}

func decodeBarrier(p []byte) (barrierMsg, error) {
	r := ckpt.NewDec(p)
	m := barrierMsg{
		Superstep: r.U32(),
		Sent:      r.U64(),
		Calls:     r.U64(),
		Combined:  r.U64(),
		Remote:    r.U64(),
		SentTo:    r.U64s(),
	}
	n := r.U32()
	if r.Err() != nil || int(n) > r.Remaining()/8+1 {
		r.Fail("aggregator contributions")
		return m, finish(r)
	}
	m.AggNames = make([]string, 0, n)
	m.Contribs = make([][]float64, 0, n)
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		m.AggNames = append(m.AggNames, r.Str())
		m.Contribs = append(m.Contribs, r.F64s())
	}
	return m, finish(r)
}

// endBatchesMsg tells a shard every peer has voted for superstep S and
// Expect batch frames are addressed to it: the shard keeps draining
// its peer links until that many S-tagged batches have arrived. The
// payload is per-shard (the column sum of the barrier SentTo matrix),
// no longer a broadcast.
type endBatchesMsg struct {
	Superstep uint32
	Expect    uint64
}

func (m endBatchesMsg) encode() []byte {
	var w ckpt.Enc
	w.U32(m.Superstep)
	w.U64(m.Expect)
	return w.B
}

func decodeEndBatches(p []byte) (endBatchesMsg, error) {
	r := ckpt.NewDec(p)
	m := endBatchesMsg{Superstep: r.U32(), Expect: r.U64()}
	return m, finish(r)
}

// inboxedMsg reports a shard's frontier for the *upcoming* superstep
// (Superstep = the step the frontier feeds). The sum across shards
// drives the global halt decision, exactly like the engine's anyWork.
// PeerFrames/PeerBytes carry the shard's peer-plane wire counters
// (frames written + read since the last report), so the coordinator's
// session totals and EvSuperstep deltas still see the data plane it
// no longer relays.
type inboxedMsg struct {
	Superstep  uint32
	Frontier   uint64
	PeerFrames uint64
	PeerBytes  uint64
}

func (m inboxedMsg) encode() []byte {
	var w ckpt.Enc
	w.U32(m.Superstep)
	w.U64(m.Frontier)
	w.U64(m.PeerFrames)
	w.U64(m.PeerBytes)
	return w.B
}

func decodeInboxed(p []byte) (inboxedMsg, error) {
	r := ckpt.NewDec(p)
	m := inboxedMsg{Superstep: r.U32(), Frontier: r.U64(), PeerFrames: r.U64(), PeerBytes: r.U64()}
	return m, finish(r)
}

// checkpointMsg asks a shard to persist its partition state for a
// resume into superstep Superstep, under the given blob key. With
// Delta set the shard should encode only state changed since the
// parent manifest at superstep Parent — falling back to a full blob
// (flagged in the ack) if its in-memory base doesn't match.
type checkpointMsg struct {
	Superstep uint32
	Key       string
	Delta     bool
	Parent    uint32 // parent manifest superstep, meaningful when Delta
}

func (m checkpointMsg) encode() []byte {
	var w ckpt.Enc
	w.U32(m.Superstep)
	w.Str(m.Key)
	w.Bool(m.Delta)
	w.U32(m.Parent)
	return w.B
}

func decodeCheckpoint(p []byte) (checkpointMsg, error) {
	r := ckpt.NewDec(p)
	m := checkpointMsg{Superstep: r.U32(), Key: r.Str()}
	m.Delta = r.Bool()
	m.Parent = r.U32()
	return m, finish(r)
}

// checkpointAckMsg confirms (or fails) a shard's blob write. Full
// reports that the shard wrote a full blob even though a delta was
// requested (its diff base didn't match the requested parent).
type checkpointAckMsg struct {
	Superstep uint32
	Bytes     uint64
	Err       string // "" = success
	Full      bool
}

func (m checkpointAckMsg) encode() []byte {
	var w ckpt.Enc
	w.U32(m.Superstep)
	w.U64(m.Bytes)
	w.Str(m.Err)
	w.Bool(m.Full)
	return w.B
}

func decodeCheckpointAck(p []byte) (checkpointAckMsg, error) {
	r := ckpt.NewDec(p)
	m := checkpointAckMsg{Superstep: r.U32(), Bytes: r.U64(), Err: r.Str()}
	m.Full = r.Bool()
	return m, finish(r)
}

// valuesMsg returns a shard's owned final vertex values after halt.
type valuesMsg struct {
	Vertex []int32
	Val    []float64
}

func (m valuesMsg) encode() []byte {
	var w ckpt.Enc
	w.I32s(m.Vertex)
	w.F64s(m.Val)
	return w.B
}

func decodeValues(p []byte) (valuesMsg, error) {
	r := ckpt.NewDec(p)
	m := valuesMsg{Vertex: r.I32s(), Val: r.F64s()}
	if err := finish(r); err != nil {
		return m, err
	}
	if len(m.Vertex) != len(m.Val) {
		return m, fmt.Errorf("%w: values with %d vertices, %d values", ErrCorruptFrame, len(m.Vertex), len(m.Val))
	}
	return m, nil
}

// peerLostMsg is a shard's report that its link to Peer failed. The
// coordinator blames Peer rather than the reporter, whose own links
// stay up until the session ends.
type peerLostMsg struct {
	Peer uint32
	Err  string
}

func (m peerLostMsg) encode() []byte {
	var w ckpt.Enc
	w.U32(m.Peer)
	w.Str(m.Err)
	return w.B
}

func decodePeerLost(p []byte) (peerLostMsg, error) {
	r := ckpt.NewDec(p)
	m := peerLostMsg{Peer: r.U32(), Err: r.Str()}
	return m, finish(r)
}
