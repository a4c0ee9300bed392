package dist

// Checkpoint-object fuzzing: shard blobs and chained manifests come
// back from a blob store the reader does not control, so both decoders
// of the checkpoint plane must be panic-free and over-read-free on
// arbitrary bytes. They guard dist sessions and in-process
// engine.CheckpointManager restores alike, so the seeds include
// objects of both writers. Valid seeds double as round-trip
// regressions: whatever decodes from a freshly encoded object must
// re-encode to the identical sealed payload.

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/engine"
)

// fuzzBlobSeeds builds representative shard blobs: full, delta with a
// parent link, aux-carrying, and pending-only.
func fuzzBlobSeeds() [][]byte {
	return [][]byte{
		(&ckpt.Blob{Superstep: 2, Shard: 0, Full: true, Parent: 0,
			Vertex: []int32{0, 4, 8}, Value: []float64{0.1, 0.2, 0.3},
			Active:  []bool{true, false, true},
			PendDst: []int32{4}, PendVal: []float64{0.5}}).Encode(),
		(&ckpt.Blob{Superstep: 5, Shard: 1, Full: false, Parent: 4,
			Vertex: []int32{12}, Value: []float64{7}, Active: []bool{true}}).Encode(),
		(&ckpt.Blob{Superstep: 3, Shard: 2, Full: true,
			AuxVtx: []int32{1, 5}, Aux: [][]byte{{1, 2, 3}, {}}}).Encode(),
		(&ckpt.Blob{Superstep: 1, Shard: 0, Full: true}).Encode(),
	}
}

// managerSeeds saves two in-process snapshots through
// engine.CheckpointManager and returns every object it stored, blobs
// and manifests apart: a paused GraphColoring run (per-vertex aux)
// and a canonical PageRank run paused with pending messages.
func managerSeeds(f *testing.F) (blobs, manifests [][]byte) {
	g, err := GraphSpec{Scale: 6, Seed: 3, Undirected: true}.Build()
	if err != nil {
		f.Fatal(err)
	}
	store := cloud.NewDatastore()
	for _, prog := range []engine.Program{&engine.GraphColoring{}, &engine.PageRank{Iterations: 8}} {
		res, err := engine.Run(g, prog, engine.Config{Workers: 2, Canonical: true, StopAfter: 2})
		if !errors.Is(err, engine.ErrPaused) {
			f.Fatalf("%s did not pause: %v", prog.Name(), err)
		}
		m := &engine.CheckpointManager{Store: store, Job: "seed/" + prog.Name()}
		if _, err := m.Save(res.Snapshot); err != nil {
			f.Fatal(err)
		}
		data, _, _ := store.Get(ckpt.BlobKey(m.Job, res.Snapshot.Superstep, 0))
		if b, err := ckpt.DecodeBlob(data); err != nil || len(b.PendDst) == 0 && len(b.Aux) == 0 {
			f.Fatalf("%s snapshot carries neither pending messages nor aux state (%v)", prog.Name(), err)
		}
	}
	for _, k := range store.Keys() {
		data, _, _ := store.Get(k)
		switch {
		case strings.HasSuffix(k, "/manifest"):
			manifests = append(manifests, data)
		case strings.Contains(k, "/shard-"):
			blobs = append(blobs, data)
		}
	}
	return blobs, manifests
}

// FuzzDecodeShardBlob asserts the blob decoder never panics and that
// every successfully decoded blob re-encodes to the same sealed bytes
// — the canonical-form property the chain CRCs rely on.
func FuzzDecodeShardBlob(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	for _, seed := range fuzzBlobSeeds() {
		f.Add(seed)
		// A flipped mid-payload bit must be caught by the seal.
		bad := append([]byte(nil), seed...)
		bad[len(bad)/2] ^= 0x10
		f.Add(bad)
	}
	blobs, _ := managerSeeds(f)
	for _, seed := range blobs {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ckpt.DecodeBlob(data)
		if err != nil {
			return
		}
		if len(b.Value) != len(b.Vertex) || len(b.Active) != len(b.Vertex) ||
			len(b.PendVal) != len(b.PendDst) || len(b.Aux) != len(b.AuxVtx) {
			t.Fatalf("decoded blob with mismatched section lengths: %+v", b)
		}
		if !bytes.Equal(b.Encode(), data) {
			t.Fatal("decoded blob does not re-encode to the original sealed payload")
		}
	})
}

// FuzzDecodeManifest asserts the manifest decoder never panics, keeps
// the chain-link invariants (a delta's parent precedes it, a full root
// has depth 0), and round-trips to the identical sealed payload.
func FuzzDecodeManifest(f *testing.F) {
	full := &ckpt.Manifest{Job: "j", Superstep: 2, Shards: 2,
		Program: `{"Name":"pagerank","Iterations":10}`, Graph: `{"Scale":8,"Seed":7}`,
		Canonical: true,
		Aggs:      ckpt.Aggs{Names: []string{"sum"}, Vals: []float64{1.5}},
		BlobKeys:  []string{ckpt.BlobKey("j", 2, 0), ckpt.BlobKey("j", 2, 1)},
		Parent:    -1, Chain: 0}
	delta := &ckpt.Manifest{Job: "j", Superstep: 3, Shards: 2,
		Program: full.Program, Graph: full.Graph, Canonical: true,
		BlobKeys: []string{ckpt.BlobKey("j", 3, 0), ckpt.BlobKey("j", 3, 1)},
		Parent:   2, Chain: 1, ParentCRC: 0xDEADBEEF}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	for _, m := range []*ckpt.Manifest{full, delta} {
		seed := m.Encode()
		f.Add(seed)
		bad := append([]byte(nil), seed...)
		bad[len(bad)/3] ^= 0x40
		f.Add(bad)
	}
	// An inconsistent link (parent after self) must be rejected even
	// with a valid seal.
	f.Add((&ckpt.Manifest{Job: "j", Superstep: 2, Shards: 1, Parent: 5, Chain: 1}).Encode())
	_, manifests := managerSeeds(f)
	for _, seed := range manifests {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ckpt.DecodeManifest(data)
		if err != nil {
			return
		}
		if m.Parent >= 0 && (m.Parent >= m.Superstep || m.Chain < 1 || m.Chain > ckpt.MaxChainDepth) {
			t.Fatalf("decoder admitted an inconsistent chain link: parent %d chain %d superstep %d",
				m.Parent, m.Chain, m.Superstep)
		}
		if m.Parent < 0 && m.Chain != 0 {
			t.Fatalf("decoder admitted a full manifest at chain depth %d", m.Chain)
		}
		if !bytes.Equal(m.Encode(), data) {
			t.Fatal("decoded manifest does not re-encode to the original sealed payload")
		}
	})
}
