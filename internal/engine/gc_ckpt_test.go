package engine_test

import (
	"errors"
	"testing"

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/engine"
)

// TestGraphColoringAuxCheckpointBound pauses a canonical 16-worker
// Jones–Plassmann run at every barrier and measures, in the blob Save
// writes, the bytes the aux state adds. GraphColoring is the only
// shipped program with per-vertex aux state, and it is the wildcard in
// checkpoint pricing: values and active flags are a fixed 13
// bytes/vertex in the blob, but the neighbor-color sets grow as the
// run progresses.
//
// The bound is structural, read off the per-vertex aux layout of a
// checkpoint blob: per vertex a 4-byte vertex id and a 4-byte length,
// then MarshalVertexAux's 4-byte pending-higher counter, 4-byte color
// count and 4 bytes per recorded color. A vertex can record at most
// one color per neighbor, so:
//
//	aux <= 16·V + 4·A   (A = stored arcs, both directions)
//
// On the Graph500 default family (edge factor 16, undirected, so
// A <= 32·V) that caps aux at 144 bytes/vertex — 18x the plain float64
// value vector (the old whole-graph aux encoding capped it at 136).
// Measured at scale 10 the peak is 36.6 bytes/vertex of aux in a
// 50.0 bytes/vertex blob. DESIGN.md quotes these numbers; if the
// layout changes, update both.
func TestGraphColoringAuxCheckpointBound(t *testing.T) {
	g := canonicalGraph(10, 7)
	V := int64(g.NumVertices())
	arcs := g.NumEdges()
	structural := 16*V + 4*arcs

	store := cloud.NewDatastore()
	// saved is the size of the blob Save writes for snap and the share
	// of it the aux entries take.
	saved := func(snap *engine.Snapshot) (total, aux int64) {
		t.Helper()
		m := &engine.CheckpointManager{Store: store, Job: "gc/aux"}
		if _, err := m.Save(snap); err != nil {
			t.Fatal(err)
		}
		sealed, _, err := store.Get(ckpt.BlobKey(m.Job, snap.Superstep, 0))
		if err != nil {
			t.Fatal(err)
		}
		if snap.SizeBytes() != int64(len(sealed)) {
			t.Fatalf("SizeBytes %d, Save wrote %d bytes", snap.SizeBytes(), len(sealed))
		}
		b, err := ckpt.DecodeBlob(sealed)
		if err != nil {
			t.Fatal(err)
		}
		b.AuxVtx, b.Aux = nil, nil
		return int64(len(sealed)), int64(len(sealed) - len(b.Encode()))
	}

	cfg := engine.Config{Workers: 16, Canonical: true, StopAfter: 1}
	prog := &engine.GraphColoring{}
	res, err := engine.Run(g, prog, cfg)
	var maxAux, maxTotal int64
	barriers := 0
	for errors.Is(err, engine.ErrPaused) {
		snap := res.Snapshot
		if snap == nil {
			t.Fatal("paused without a snapshot")
		}
		barriers++
		total, aux := saved(snap)
		if aux > structural {
			t.Fatalf("superstep %d: aux %d bytes exceeds structural bound %d (= 16·%d + 4·%d)",
				snap.Superstep, aux, structural, V, arcs)
		}
		maxAux = max(maxAux, aux)
		maxTotal = max(maxTotal, total)
		res, err = engine.Resume(g, prog, snap, cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	if barriers < 2 {
		t.Fatalf("run paused at %d barriers, want at least 2 to see aux growth", barriers)
	}

	// The documented per-vertex factor for the default RMAT family:
	// 18x the 8-byte value vector (144 bytes/vertex).
	if factorCap := 18 * 8 * V; maxAux > factorCap {
		t.Errorf("peak aux %d bytes (%.1f B/vertex) exceeds documented 144 B/vertex cap",
			maxAux, float64(maxAux)/float64(V))
	}
	t.Logf("w=16 canonical coloring: %d barriers, peak aux %d bytes (%.1f B/vertex, structural cap %.1f), peak blob %d bytes (%.1f B/vertex)",
		barriers, maxAux, float64(maxAux)/float64(V), float64(structural)/float64(V),
		maxTotal, float64(maxTotal)/float64(V))
}
