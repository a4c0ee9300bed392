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
	"math"
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
const wireVersion = 4

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

// wbuf appends primitive values in the wire's little-endian layout.
type wbuf struct{ b []byte }

func (w *wbuf) u8(v uint8) { w.b = append(w.b, v) }
func (w *wbuf) u32(v uint32) {
	w.b = binary.LittleEndian.AppendUint32(w.b, v)
}
func (w *wbuf) u64(v uint64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, v)
}
func (w *wbuf) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *wbuf) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *wbuf) str(s string) {
	w.u32(uint32(len(s)))
	w.b = append(w.b, s...)
}
func (w *wbuf) i32s(v []int32) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.u32(uint32(x))
	}
}
func (w *wbuf) f64s(v []float64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.f64(x)
	}
}
func (w *wbuf) u64s(v []uint64) {
	w.u32(uint32(len(v)))
	for _, x := range v {
		w.u64(x)
	}
}
func (w *wbuf) strs(v []string) {
	w.u32(uint32(len(v)))
	for _, s := range v {
		w.str(s)
	}
}

// rbuf consumes primitive values with bounds checks everywhere: a
// truncated or hostile payload latches err and yields zero values, it
// never panics and never allocates more than the remaining input could
// justify.
type rbuf struct {
	b   []byte
	off int
	err error
}

func (r *rbuf) fail(what string) {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated %s at offset %d", ErrCorruptFrame, what, r.off)
	}
}

func (r *rbuf) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail("u8")
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *rbuf) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail("u32")
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *rbuf) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail("u64")
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *rbuf) f64() float64   { return math.Float64frombits(r.u64()) }
func (r *rbuf) bool() bool     { return r.u8() != 0 }
func (r *rbuf) remaining() int { return len(r.b) - r.off }

func (r *rbuf) str() string {
	n := r.u32()
	if r.err != nil || int(n) > r.remaining() {
		r.fail("string")
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *rbuf) i32s() []int32 {
	n := r.u32()
	if r.err != nil || int(n) > r.remaining()/4 {
		r.fail("[]int32")
		return nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(r.b[r.off:]))
		r.off += 4
	}
	return out
}

func (r *rbuf) f64s() []float64 {
	n := r.u32()
	if r.err != nil || int(n) > r.remaining()/8 {
		r.fail("[]float64")
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
		r.off += 8
	}
	return out
}

func (r *rbuf) u64s() []uint64 {
	n := r.u32()
	if r.err != nil || int(n) > r.remaining()/8 {
		r.fail("[]uint64")
		return nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(r.b[r.off:])
		r.off += 8
	}
	return out
}

func (r *rbuf) strs() []string {
	n := r.u32()
	// Each entry costs at least the 4-byte length prefix.
	if r.err != nil || int(n) > r.remaining()/4+1 {
		r.fail("[]string")
		return nil
	}
	out := make([]string, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		out = append(out, r.str())
	}
	return out
}

// finish rejects payloads with trailing garbage, so a frame either
// decodes exactly or not at all.
func (r *rbuf) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorruptFrame, len(r.b)-r.off)
	}
	return nil
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
	var w wbuf
	w.u32(m.Version)
	w.str(m.PeerAddr)
	w.str(m.Proc)
	return w.b
}

func decodeHello(p []byte) (helloMsg, error) {
	r := rbuf{b: p}
	m := helloMsg{Version: r.u32(), PeerAddr: r.str(), Proc: r.str()}
	return m, r.finish()
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
	var w wbuf
	w.u32(m.Version)
	w.u32(m.From)
	return w.b
}

func decodePeerHello(p []byte) (peerHelloMsg, error) {
	r := rbuf{b: p}
	m := peerHelloMsg{Version: r.u32(), From: r.u32()}
	return m, r.finish()
}

// aggPairs is a name-parallel value list. Names are sorted by the
// sender so identical state always serialises to identical bytes.
type aggPairs struct {
	Names []string
	Vals  []float64
}

func (w *wbuf) aggs(a aggPairs) {
	w.u32(uint32(len(a.Names)))
	for i, name := range a.Names {
		w.str(name)
		w.f64(a.Vals[i])
	}
}

func (r *rbuf) aggs() aggPairs {
	n := r.u32()
	// Each entry costs at least 12 bytes (empty name + f64).
	if r.err != nil || int(n) > r.remaining()/12+1 {
		r.fail("aggregator pairs")
		return aggPairs{}
	}
	a := aggPairs{Names: make([]string, 0, n), Vals: make([]float64, 0, n)}
	for i := uint32(0); i < n && r.err == nil; i++ {
		a.Names = append(a.Names, r.str())
		a.Vals = append(a.Vals, r.f64())
	}
	return a
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
	Aggs      aggPairs
	BlobKeys  []string // resume blobs (empty = fresh start)
	Peers     []string // peer listener address per shard id
}

func (m welcomeMsg) encode() []byte {
	var w wbuf
	w.u32(m.Version)
	w.u32(m.Shard)
	w.u32(m.Shards)
	w.bool(m.Canonical)
	w.u32(m.Start)
	w.str(m.Program)
	w.str(m.Graph)
	w.i32s(m.Assign)
	w.aggs(m.Aggs)
	w.strs(m.BlobKeys)
	w.strs(m.Peers)
	return w.b
}

func decodeWelcome(p []byte) (welcomeMsg, error) {
	r := rbuf{b: p}
	m := welcomeMsg{
		Version:   r.u32(),
		Shard:     r.u32(),
		Shards:    r.u32(),
		Canonical: r.bool(),
		Start:     r.u32(),
		Program:   r.str(),
		Graph:     r.str(),
		Assign:    r.i32s(),
		Aggs:      r.aggs(),
		BlobKeys:  r.strs(),
		Peers:     r.strs(),
	}
	return m, r.finish()
}

// proceedMsg starts superstep S on every shard (or, with Halt set,
// ends the session). Aggs carries the reduced aggregator values
// visible during S.
type proceedMsg struct {
	Superstep uint32
	Halt      bool
	Aggs      aggPairs
}

func (m proceedMsg) encode() []byte {
	var w wbuf
	w.u32(m.Superstep)
	w.bool(m.Halt)
	w.aggs(m.Aggs)
	return w.b
}

func decodeProceed(p []byte) (proceedMsg, error) {
	r := rbuf{b: p}
	m := proceedMsg{Superstep: r.u32(), Halt: r.bool(), Aggs: r.aggs()}
	return m, r.finish()
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
	w := wbuf{b: b}
	w.u32(m.Superstep)
	w.u32(m.From)
	w.u32(m.To)
	w.i32s(m.Dst)
	w.f64s(m.Val)
	return w.b
}

func decodeBatch(p []byte) (batchMsg, error) {
	r := rbuf{b: p}
	m := batchMsg{
		Superstep: r.u32(),
		From:      r.u32(),
		To:        r.u32(),
		Dst:       r.i32s(),
		Val:       r.f64s(),
	}
	if err := r.finish(); err != nil {
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
	var w wbuf
	w.u32(m.Superstep)
	w.u64(m.Sent)
	w.u64(m.Calls)
	w.u64(m.Combined)
	w.u64(m.Remote)
	w.u64s(m.SentTo)
	w.u32(uint32(len(m.AggNames)))
	for i, name := range m.AggNames {
		w.str(name)
		w.f64s(m.Contribs[i])
	}
	return w.b
}

func decodeBarrier(p []byte) (barrierMsg, error) {
	r := rbuf{b: p}
	m := barrierMsg{
		Superstep: r.u32(),
		Sent:      r.u64(),
		Calls:     r.u64(),
		Combined:  r.u64(),
		Remote:    r.u64(),
		SentTo:    r.u64s(),
	}
	n := r.u32()
	if r.err != nil || int(n) > r.remaining()/8+1 {
		r.fail("aggregator contributions")
		return m, r.finish()
	}
	m.AggNames = make([]string, 0, n)
	m.Contribs = make([][]float64, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		m.AggNames = append(m.AggNames, r.str())
		m.Contribs = append(m.Contribs, r.f64s())
	}
	return m, r.finish()
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
	var w wbuf
	w.u32(m.Superstep)
	w.u64(m.Expect)
	return w.b
}

func decodeEndBatches(p []byte) (endBatchesMsg, error) {
	r := rbuf{b: p}
	m := endBatchesMsg{Superstep: r.u32(), Expect: r.u64()}
	return m, r.finish()
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
	var w wbuf
	w.u32(m.Superstep)
	w.u64(m.Frontier)
	w.u64(m.PeerFrames)
	w.u64(m.PeerBytes)
	return w.b
}

func decodeInboxed(p []byte) (inboxedMsg, error) {
	r := rbuf{b: p}
	m := inboxedMsg{Superstep: r.u32(), Frontier: r.u64(), PeerFrames: r.u64(), PeerBytes: r.u64()}
	return m, r.finish()
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
	var w wbuf
	w.u32(m.Superstep)
	w.str(m.Key)
	w.bool(m.Delta)
	w.u32(m.Parent)
	return w.b
}

func decodeCheckpoint(p []byte) (checkpointMsg, error) {
	r := rbuf{b: p}
	m := checkpointMsg{Superstep: r.u32(), Key: r.str()}
	m.Delta = r.bool()
	m.Parent = r.u32()
	return m, r.finish()
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
	var w wbuf
	w.u32(m.Superstep)
	w.u64(m.Bytes)
	w.str(m.Err)
	w.bool(m.Full)
	return w.b
}

func decodeCheckpointAck(p []byte) (checkpointAckMsg, error) {
	r := rbuf{b: p}
	m := checkpointAckMsg{Superstep: r.u32(), Bytes: r.u64(), Err: r.str()}
	m.Full = r.bool()
	return m, r.finish()
}

// valuesMsg returns a shard's owned final vertex values after halt.
type valuesMsg struct {
	Vertex []int32
	Val    []float64
}

func (m valuesMsg) encode() []byte {
	var w wbuf
	w.i32s(m.Vertex)
	w.f64s(m.Val)
	return w.b
}

func decodeValues(p []byte) (valuesMsg, error) {
	r := rbuf{b: p}
	m := valuesMsg{Vertex: r.i32s(), Val: r.f64s()}
	if err := r.finish(); err != nil {
		return m, err
	}
	if len(m.Vertex) != len(m.Val) {
		return m, fmt.Errorf("%w: values with %d vertices, %d values", ErrCorruptFrame, len(m.Vertex), len(m.Val))
	}
	return m, nil
}
