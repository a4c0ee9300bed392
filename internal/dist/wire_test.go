package dist

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hourglass/internal/ckpt"
)

// TestFrameRoundTrip drives every message type through its encoder,
// the frame layer and back.
func TestFrameRoundTrip(t *testing.T) {
	welcome := welcomeMsg{
		Version:   wireVersion,
		Shard:     2,
		Shards:    4,
		Canonical: true,
		Start:     6,
		Program:   `{"name":"pagerank","iterations":10}`,
		Graph:     `{"scale":8,"seed":7}`,
		Assign:    []int32{0, 1, 2, 3, 0, 1},
		Aggs:      ckpt.Aggs{Names: []string{"dangling"}, Vals: []float64{0.25}},
		BlobKeys:  []string{"ckpt/j/step/00000006/shard-000", "ckpt/j/step/00000006/shard-001"},
		Peers:     []string{"127.0.0.1:4001", "127.0.0.1:4002", "127.0.0.1:4003", "127.0.0.1:4004"},
	}
	var buf bytes.Buffer
	if _, err := writeFrame(&buf, fWelcome, welcome.encode()); err != nil {
		t.Fatal(err)
	}
	typ, payload, size, err := readFrame(&buf)
	if err != nil || typ != fWelcome {
		t.Fatalf("readFrame: type %d err %v", typ, err)
	}
	if size != frameHeaderLen+len(welcome.encode()) {
		t.Errorf("size %d, want %d", size, frameHeaderLen+len(welcome.encode()))
	}
	got, err := decodeWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Shard != 2 || got.Shards != 4 || !got.Canonical || got.Start != 6 ||
		got.Program != welcome.Program || len(got.Assign) != 6 || len(got.BlobKeys) != 2 ||
		got.Aggs.Names[0] != "dangling" || got.Aggs.Vals[0] != 0.25 ||
		len(got.Peers) != 4 || got.Peers[2] != "127.0.0.1:4003" {
		t.Fatalf("welcome round trip mismatch: %+v", got)
	}

	batch := batchMsg{Superstep: 3, From: 1, To: 2, Dst: []int32{5, 9}, Val: []float64{0.5, math.Inf(1)}}
	b, _, rest, err := func() (batchMsg, byte, []byte, error) {
		frame := appendFrame(nil, fBatch, batch.encode())
		typ, payload, rest, err := DecodeFrame(frame)
		if err != nil {
			return batchMsg{}, typ, rest, err
		}
		m, err := decodeBatch(payload)
		return m, typ, rest, err
	}()
	if err != nil || len(rest) != 0 {
		t.Fatalf("batch decode: %v (rest %d)", err, len(rest))
	}
	if b.To != 2 || b.Dst[1] != 9 || !math.IsInf(b.Val[1], 1) {
		t.Fatalf("batch round trip mismatch: %+v", b)
	}

	barrier := barrierMsg{Superstep: 3, Sent: 10, Calls: 7, Combined: 4, Remote: 6,
		SentTo:   []uint64{0, 3, 1, 2},
		AggNames: []string{"a", "b"}, Contribs: [][]float64{{1, 2}, {3}}}
	bb, err := decodeBarrier(barrier.encode())
	if err != nil || bb.Combined != 4 || len(bb.Contribs[0]) != 2 || bb.Contribs[1][0] != 3 ||
		len(bb.SentTo) != 4 || bb.SentTo[1] != 3 {
		t.Fatalf("barrier round trip: %+v err %v", bb, err)
	}

	hello := helloMsg{Version: wireVersion, PeerAddr: "127.0.0.1:4100"}
	hh, err := decodeHello(hello.encode())
	if err != nil || hh.PeerAddr != hello.PeerAddr || hh.Version != wireVersion {
		t.Fatalf("hello round trip: %+v err %v", hh, err)
	}

	ph := peerHelloMsg{Version: wireVersion, From: 3}
	pp, err := decodePeerHello(ph.encode())
	if err != nil || pp.From != 3 || pp.Version != wireVersion {
		t.Fatalf("peer hello round trip: %+v err %v", pp, err)
	}

	eb := endBatchesMsg{Superstep: 7, Expect: 42}
	ee, err := decodeEndBatches(eb.encode())
	if err != nil || ee.Superstep != 7 || ee.Expect != 42 {
		t.Fatalf("end-batches round trip: %+v err %v", ee, err)
	}

	ib := inboxedMsg{Superstep: 5, Frontier: 11, PeerFrames: 9, PeerBytes: 4096}
	ii, err := decodeInboxed(ib.encode())
	if err != nil || ii.Frontier != 11 || ii.PeerFrames != 9 || ii.PeerBytes != 4096 {
		t.Fatalf("inboxed round trip: %+v err %v", ii, err)
	}
}

// TestFrameCorruption checks the reader rejects (never misreads)
// damaged frames.
func TestFrameCorruption(t *testing.T) {
	frame := appendFrame(nil, fProceed, proceedMsg{Superstep: 4}.encode())

	for cut := 1; cut < len(frame); cut++ {
		if _, _, _, err := DecodeFrame(frame[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x01
		typ, payload, _, err := DecodeFrame(bad)
		if err != nil {
			continue
		}
		// A flipped bit may still frame correctly only if it kept the
		// CRC valid — impossible for a single-bit flip, except flips in
		// the length prefix that still describe a self-consistent frame;
		// those must at least fail payload decoding.
		if typ == fProceed {
			if _, derr := decodeProceed(payload); derr == nil {
				t.Fatalf("bit flip at %d yielded a decodable proceed frame", i)
			}
		}
	}

	huge := make([]byte, 8)
	huge[0], huge[1], huge[2], huge[3] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, _, _, err := DecodeFrame(huge); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length prefix: %v, want ErrFrameTooLarge", err)
	}
}

// TestPayloadDecodeErrorsAreCorruptFrames: a payload cut short or
// followed by trailing bytes fails every message decoder with
// ErrCorruptFrame.
func TestPayloadDecodeErrorsAreCorruptFrames(t *testing.T) {
	decoders := map[string]struct {
		payload []byte
		decode  func([]byte) error
	}{
		"hello":         {helloMsg{Version: wireVersion, PeerAddr: "a"}.encode(), func(p []byte) error { _, err := decodeHello(p); return err }},
		"peerHello":     {peerHelloMsg{Version: wireVersion, From: 1}.encode(), func(p []byte) error { _, err := decodePeerHello(p); return err }},
		"welcome":       {welcomeMsg{Shards: 2, Assign: []int32{0, 1}}.encode(), func(p []byte) error { _, err := decodeWelcome(p); return err }},
		"proceed":       {proceedMsg{Superstep: 3}.encode(), func(p []byte) error { _, err := decodeProceed(p); return err }},
		"batch":         {batchMsg{Dst: []int32{4}, Val: []float64{0.5}}.encode(), func(p []byte) error { _, err := decodeBatch(p); return err }},
		"barrier":       {barrierMsg{AggNames: []string{"a"}, Contribs: [][]float64{{1}}}.encode(), func(p []byte) error { _, err := decodeBarrier(p); return err }},
		"endBatches":    {endBatchesMsg{Superstep: 4, Expect: 17}.encode(), func(p []byte) error { _, err := decodeEndBatches(p); return err }},
		"inboxed":       {inboxedMsg{Superstep: 4}.encode(), func(p []byte) error { _, err := decodeInboxed(p); return err }},
		"checkpoint":    {checkpointMsg{Superstep: 2, Key: "k"}.encode(), func(p []byte) error { _, err := decodeCheckpoint(p); return err }},
		"checkpointAck": {checkpointAckMsg{Superstep: 2, Bytes: 9}.encode(), func(p []byte) error { _, err := decodeCheckpointAck(p); return err }},
		"values":        {valuesMsg{Vertex: []int32{0}, Val: []float64{3}}.encode(), func(p []byte) error { _, err := decodeValues(p); return err }},
		"peerLost":      {peerLostMsg{Peer: 3, Err: "EOF"}.encode(), func(p []byte) error { _, err := decodePeerLost(p); return err }},
	}
	for name, d := range decoders {
		if err := d.decode(d.payload); err != nil {
			t.Fatalf("%s: intact payload: %v", name, err)
		}
		for _, bad := range [][]byte{d.payload[:len(d.payload)-1], append(append([]byte(nil), d.payload...), 0)} {
			if err := d.decode(bad); !errors.Is(err, ErrCorruptFrame) {
				t.Errorf("%s: %d-byte payload: %v, want ErrCorruptFrame", name, len(bad), err)
			}
		}
	}
}

// FuzzDecodeFrame asserts the stream decoder never panics and never
// over-reads: whatever the input, it either fails or consumes exactly
// one well-formed frame. Message decoders run on every successfully
// framed payload, so their bounds checks are in the loop too.
func FuzzDecodeFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(appendFrame(nil, fHello, helloMsg{Version: wireVersion, PeerAddr: "127.0.0.1:4100"}.encode()))
	f.Add(appendFrame(nil, fPeerHello, peerHelloMsg{Version: wireVersion, From: 2}.encode()))
	f.Add(appendFrame(nil, fEndBatches, endBatchesMsg{Superstep: 4, Expect: 17}.encode()))
	f.Add(appendFrame(nil, fInboxed, inboxedMsg{Superstep: 4, Frontier: 8, PeerFrames: 3, PeerBytes: 2048}.encode()))
	f.Add(appendFrame(nil, fBarrier, barrierMsg{Superstep: 1, SentTo: []uint64{0, 2}}.encode()))
	f.Add(appendFrame(nil, fProceed, proceedMsg{Superstep: 3, Aggs: ckpt.Aggs{Names: []string{"x"}, Vals: []float64{1}}}.encode()))
	f.Add(appendFrame(nil, fBatch, batchMsg{Superstep: 1, From: 0, To: 1, Dst: []int32{4}, Val: []float64{0.5}}.encode()))
	f.Add(appendFrame(nil, fBarrier, barrierMsg{Superstep: 2, AggNames: []string{"a"}, Contribs: [][]float64{{1}}}.encode()))
	f.Add(appendFrame(nil, fWelcome, welcomeMsg{Version: 1, Shards: 2, Assign: []int32{0, 1}}.encode()))
	f.Add(appendFrame(nil, fValues, valuesMsg{Vertex: []int32{0}, Val: []float64{3}}.encode()))
	f.Add(appendFrame(nil, fCheckpoint, checkpointMsg{Superstep: 2, Key: "ckpt/j/step/00000002/shard-000"}.encode()))
	f.Add(appendFrame(nil, fPeerLost, peerLostMsg{Peer: 3, Err: "EOF"}.encode()))

	f.Fuzz(func(t *testing.T, data []byte) {
		typ, payload, rest, err := DecodeFrame(data)
		if err != nil {
			return
		}
		if consumed := len(data) - len(rest); consumed < frameHeaderLen || consumed > len(data) {
			t.Fatalf("consumed %d of %d bytes", consumed, len(data))
		}
		// Every message decoder must be panic-free on arbitrary framed
		// payloads and reject trailing garbage.
		switch typ {
		case fHello:
			_, _ = decodeHello(payload)
		case fPeerHello:
			_, _ = decodePeerHello(payload)
		case fWelcome:
			_, _ = decodeWelcome(payload)
		case fProceed:
			_, _ = decodeProceed(payload)
		case fBatch:
			if m, err := decodeBatch(payload); err == nil && len(m.Dst) != len(m.Val) {
				t.Fatal("batch decoded with mismatched lengths")
			}
		case fBarrier:
			_, _ = decodeBarrier(payload)
		case fEndBatches:
			_, _ = decodeEndBatches(payload)
		case fInboxed:
			_, _ = decodeInboxed(payload)
		case fCheckpoint:
			_, _ = decodeCheckpoint(payload)
		case fCheckpointAck:
			_, _ = decodeCheckpointAck(payload)
		case fPeerLost:
			_, _ = decodePeerLost(payload)
		case fValues:
			if m, err := decodeValues(payload); err == nil && len(m.Vertex) != len(m.Val) {
				t.Fatal("values decoded with mismatched lengths")
			}
		}
	})
}
