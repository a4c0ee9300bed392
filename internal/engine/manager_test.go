package engine

import (
	"errors"
	"testing"

	"hourglass/internal/ckpt"
	"hourglass/internal/cloud"
	"hourglass/internal/faultinject"
	"hourglass/internal/units"
)

func TestCheckpointManagerSaveLoad(t *testing.T) {
	m := &CheckpointManager{Store: cloud.NewDatastore(), Job: "test/pagerank"}
	g := undirectedRMAT(8, 3)
	res, err := Run(g, &PageRank{Iterations: 8}, Config{Workers: 2, StopAfter: 3})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	// A clean store reports each transfer and no fault seconds.
	up, err := m.Save(res.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if up.Transfer <= 0 || up.Faults != 0 {
		t.Errorf("clean save reported %+v, want a transfer and no faults", up)
	}
	back, down, err := m.Load()
	if err != nil {
		t.Fatal(err)
	}
	if down.Transfer <= 0 || down.Faults != 0 {
		t.Errorf("clean load reported %+v, want a transfer and no faults", down)
	}
	if back.Superstep != res.Snapshot.Superstep || back.Program != "pagerank" {
		t.Errorf("loaded snapshot mismatch: %+v", back)
	}
}

func TestCheckpointManagerNoCheckpoint(t *testing.T) {
	m := &CheckpointManager{Store: cloud.NewDatastore(), Job: "empty"}
	if _, _, err := m.Load(); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("expected ErrNoCheckpoint, got %v", err)
	}
}

func TestSaveRetriesTransientStoreErrors(t *testing.T) {
	// A store that fails every op twice before succeeding: the manager's
	// backoff must absorb the faults and still land the checkpoint.
	store := faultinject.Wrap(cloud.NewDatastore(), faultinject.Policy{
		Seed: 11, PError: 1, MaxConsecutive: 2,
	})
	m := &CheckpointManager{Store: store, Job: "retry/pr"}
	g := undirectedRMAT(8, 3)
	res, err := Run(g, &PageRank{Iterations: 8}, Config{Workers: 2, StopAfter: 3})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	up, err := m.Save(res.Snapshot)
	if err != nil {
		t.Fatalf("save did not survive transient errors: %v", err)
	}
	if up.Transfer <= 0 || up.Faults <= 0 {
		t.Errorf("retried save reported %+v, want a transfer and the backoff as faults", up)
	}
	back, _, err := m.Load()
	if err != nil || back.Superstep != res.Snapshot.Superstep {
		t.Fatalf("load after retries: %+v, %v", back, err)
	}
	if st := store.Stats(); st.Errors == 0 {
		t.Error("fault schedule injected nothing — test is vacuous")
	}
}

// failFirstPut fails the first Put after spending latency on it.
type failFirstPut struct {
	cloud.BlobStore
	latency units.Seconds
	failed  bool
}

func (s *failFirstPut) Put(key string, data []byte) (units.Seconds, error) {
	if !s.failed {
		s.failed = true
		return s.latency, errors.New("upload timed out")
	}
	return s.BlobStore.Put(key, data)
}

// A failed attempt's transfer is billed with the backoff after it: a
// save whose first upload fails after L seconds reports at least L plus
// the shortest first backoff (0.25 s: half the 0.5 s base, the least
// the default half jitter draws).
func TestSaveBillsFailedAttempts(t *testing.T) {
	const latency = 7
	m := &CheckpointManager{Store: &failFirstPut{BlobStore: cloud.NewDatastore(), latency: latency}, Job: "slow/pr"}
	g := undirectedRMAT(8, 3)
	res, err := Run(g, &PageRank{Iterations: 8}, Config{Workers: 2, StopAfter: 3})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	took, err := m.Save(res.Snapshot)
	if err != nil {
		t.Fatal(err)
	}
	if min := units.Seconds(latency + 0.25); took.Faults < min {
		t.Errorf("save reported %v of faults, want at least %v", took.Faults, min)
	}
}

func TestLoadSkipsCorruptLatestAndFallsBack(t *testing.T) {
	// Two checkpoints; the newer one is then corrupted in place. Load
	// must detect the bad CRC and restore the older intact checkpoint
	// instead of returning garbage.
	store := cloud.NewDatastore()
	m := &CheckpointManager{Store: store, Job: "corrupt/pr"}
	g := undirectedRMAT(8, 4)

	res, err := Run(g, &PageRank{Iterations: 9}, Config{Workers: 2, StopAfter: 3})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	if _, err := m.Save(res.Snapshot); err != nil {
		t.Fatal(err)
	}
	older := res.Snapshot.Superstep

	res2, err := Resume(g, &PageRank{Iterations: 9}, res.Snapshot, Config{Workers: 2, StopAfter: 3})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	if _, err := m.Save(res2.Snapshot); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest checkpoint blob in the durable store.
	key := ckpt.BlobKey(m.Job, res2.Snapshot.Superstep, 0)
	blob, _, err := store.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0xFF
	store.Put(key, blob)

	snap, _, err := m.Load()
	if err != nil {
		t.Fatalf("load with corrupt latest: %v", err)
	}
	if snap.Superstep != older {
		t.Fatalf("restored superstep %d, want fallback to %d", snap.Superstep, older)
	}
}

func TestLoadAllCorruptReturnsNoCheckpoint(t *testing.T) {
	store := cloud.NewDatastore()
	m := &CheckpointManager{Store: store, Job: "allbad/pr"}
	g := undirectedRMAT(8, 5)
	res, err := Run(g, &PageRank{Iterations: 8}, Config{Workers: 1, StopAfter: 2})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	if _, err := m.Save(res.Snapshot); err != nil {
		t.Fatal(err)
	}
	// Truncate the only checkpoint below its trailer.
	key := ckpt.BlobKey(m.Job, res.Snapshot.Superstep, 0)
	store.Put(key, []byte{1, 2, 3})
	if _, _, err := m.Load(); !errors.Is(err, ckpt.ErrNoCheckpoint) {
		t.Fatalf("corrupt-only namespace: err = %v, want ErrNoCheckpoint", err)
	}
}

func TestLoadDanglingPointerFallsBack(t *testing.T) {
	store := cloud.NewDatastore()
	m := &CheckpointManager{Store: store, Job: "dangle/pr"}
	g := undirectedRMAT(8, 6)
	res, err := Run(g, &PageRank{Iterations: 8}, Config{Workers: 2, StopAfter: 2})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	if _, err := m.Save(res.Snapshot); err != nil {
		t.Fatal(err)
	}
	// Scribble the latest pointer so it dangles.
	store.Put(ckpt.PointerKey(m.Job), []byte(ckpt.ManifestKey(m.Job, 99999999)))
	snap, _, err := m.Load()
	if err != nil {
		t.Fatalf("dangling pointer not recovered: %v", err)
	}
	if snap.Superstep != res.Snapshot.Superstep {
		t.Fatalf("recovered superstep %d, want %d", snap.Superstep, res.Snapshot.Superstep)
	}
}

// TestFrameRoundTripAndCorruptionDetection checks the seal every
// checkpoint object carries: a saved blob decodes back exactly, and a
// truncated, shifted or bit-flipped copy is rejected as corrupt.
func TestFrameRoundTripAndCorruptionDetection(t *testing.T) {
	store := cloud.NewDatastore()
	m := &CheckpointManager{Store: store, Job: "seal/pr"}
	res, err := Run(undirectedRMAT(6, 3), &PageRank{Iterations: 8}, Config{Workers: 2, StopAfter: 2})
	if !errors.Is(err, ErrPaused) {
		t.Fatal(err)
	}
	if _, err := m.Save(res.Snapshot); err != nil {
		t.Fatal(err)
	}
	sealed, _, err := store.Get(ckpt.BlobKey(m.Job, res.Snapshot.Superstep, 0))
	if err != nil {
		t.Fatal(err)
	}
	back, err := ckpt.DecodeBlob(sealed)
	if err != nil || back.Superstep != res.Snapshot.Superstep || len(back.Value) != len(res.Snapshot.blobs[0].Vertex) {
		t.Fatalf("round trip: %+v, %v", back, err)
	}
	for _, tc := range [][]byte{
		nil,
		sealed[:3],                   // shorter than the trailer
		sealed[:len(sealed)-1],       // truncated
		append([]byte{0}, sealed...), // shifted
	} {
		if _, err := ckpt.DecodeBlob(tc); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Errorf("blob of %d bytes accepted (err=%v)", len(tc), err)
		}
	}
	flipped := append([]byte(nil), sealed...)
	flipped[5] ^= 1
	if _, err := ckpt.DecodeBlob(flipped); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Errorf("bit flip accepted (err=%v)", err)
	}
}
