// Package ckpt is the durable checkpoint plane: the one object format
// that both the in-process engine (engine.CheckpointManager) and the
// distributed coordinator and shards (internal/dist) write, and the one
// lookup, fallback scan and namespace clear that restore from it. It is
// the reproduction of the paper's §7 modification — Giraph checkpoints
// kept in S3, so a run survives the loss of every machine — with §6's
// twist that a checkpoint reloads onto any worker count.
//
// Layout in the blob store, namespaced per job:
//
//	ckpt/<job>/step/<superstep %08d>/shard-<i %03d>   per-shard state blob
//	ckpt/<job>/step/<superstep %08d>/manifest         sealed manifest
//	ckpt/<job>/latest                                 copy of the newest manifest
//
// A checkpoint is a set of shard blobs (vertex values, activity, the
// pending inbox of the resume superstep and per-vertex aux state),
// sealed by a manifest once every blob is stored; the latest pointer
// flips last. The in-process engine writes one full blob per
// checkpoint. Blobs carry only vertex ids, so a reader keeps whatever
// the current assignment gives it and a checkpoint restores under a
// different worker count.
//
// Every object ends in a magic + CRC32 trailer, so a corrupt or
// truncated object is detected and Latest falls back to the newest
// older manifest whose whole blob set validates.
//
// Delta chains (§9 warm standby): a manifest may be a delta — Parent
// names the parent manifest's superstep and ParentCRC pins the exact
// parent payload, and its blobs encode only vertices whose
// value/activity/aux changed since that parent (the pending inbox is
// always complete: it is the resume superstep's live message state and
// has no stable identity to diff against). Restoring a delta resolves
// the chain back to its full root and overlays blob sets oldest-first;
// because the root is always full and overlays are newest-wins per
// vertex, mixed full/delta blobs — and reshards mid-chain — restore
// bit-identically. A corrupt link anywhere invalidates the whole
// candidate.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"regexp"
	"sort"
	"strings"
	"sync"

	"hourglass/internal/cloud"
)

// FormatVersion is the manifest layout version. A manifest of any
// other version is treated as corrupt, so checkpoints that outlive the
// binary that wrote them are skipped instead of restored. Version 1 was
// the unversioned layout.
const FormatVersion = 2

// ErrNoCheckpoint reports a namespace with nothing restorable (a fresh
// job).
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint available")

// sealMagic ends every checkpoint object ("HGDS").
const sealMagic = uint32(0x48474453)

// sealTrailerLen is the magic + CRC32 trailer size.
const sealTrailerLen = 8

// seal appends the magic + CRC32 trailer to payload, in place when its
// capacity allows (callers hand over a buffer they just built).
func seal(payload []byte) []byte {
	crc := crc32.ChecksumIEEE(payload)
	out := binary.LittleEndian.AppendUint32(payload, sealMagic)
	return binary.LittleEndian.AppendUint32(out, crc)
}

// unseal validates and strips the trailer.
func unseal(blob []byte) ([]byte, error) {
	if len(blob) < sealTrailerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorrupt, len(blob))
	}
	payload, trailer := blob[:len(blob)-sealTrailerLen], blob[len(blob)-sealTrailerLen:]
	if binary.LittleEndian.Uint32(trailer[:4]) != sealMagic {
		return nil, fmt.Errorf("%w: bad trailer magic", ErrCorrupt)
	}
	if binary.LittleEndian.Uint32(trailer[4:]) != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: CRC32 mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Verify reports whether data is an intact sealed object. Readers that
// can afford to re-read use it to tell a damaged transfer, which a
// second read may not repeat, from a good one.
func Verify(data []byte) error {
	_, err := unseal(data)
	return err
}

// PointerKey tracks a job's newest sealed manifest.
func PointerKey(job string) string { return "ckpt/" + job + "/latest" }

// ManifestKey names the manifest for a resume superstep.
func ManifestKey(job string, superstep int) string {
	return fmt.Sprintf("ckpt/%s/step/%08d/manifest", job, superstep)
}

// BlobKey names one shard's state blob.
func BlobKey(job string, superstep, shard int) string {
	return fmt.Sprintf("ckpt/%s/step/%08d/shard-%03d", job, superstep, shard)
}

// ownKey matches what follows "ckpt/<job>/" in the keys a job owns.
// Matching the whole remainder, not a prefix, keeps job "a" away from
// the keys of job "a/b": "b/latest" and "b/step/..." do not match.
var ownKey = regexp.MustCompile(`^(latest|step/[0-9]{8,}/(manifest|shard-[0-9]{3,}))$`)

// owns reports whether key is in job's namespace.
func owns(job, key string) bool {
	rest, ok := strings.CutPrefix(key, "ckpt/"+job+"/")
	return ok && ownKey.MatchString(rest)
}

// Keys that binaries before the one-plane layout wrote, matched like
// ownKey below "ckpt/<job>/" (the engine's blobs) and "dist/<job>/"
// (the dist plane's pointer, manifests and blobs). Restores never read
// them; Clear deletes them so they do not outlive the job in a
// persistent store.
var (
	legacyEngineKey = regexp.MustCompile(`^[0-9]{8,}$`)
	legacyDistKey   = regexp.MustCompile(`^(latest|ckpt/[0-9]{8,}/(manifest|shard-[0-9]{3,}))$`)
)

// ownsLegacy reports whether key is an old-layout key of job.
func ownsLegacy(job, key string) bool {
	if rest, ok := strings.CutPrefix(key, "ckpt/"+job+"/"); ok {
		return legacyEngineKey.MatchString(rest)
	}
	rest, ok := strings.CutPrefix(key, "dist/"+job+"/")
	return ok && legacyDistKey.MatchString(rest)
}

// jobKeys returns the store keys in job's namespace.
func jobKeys(store cloud.BlobStore, job string) []string {
	var keys []string
	for _, k := range store.Keys() {
		if owns(job, k) {
			keys = append(keys, k)
		}
	}
	return keys
}

// Blob is one shard's checkpointed partition state: the values and
// activity of its vertices, the pending inbox of the superstep the
// blob resumes into, and — for engine.VertexAux programs — each
// vertex's auxiliary state, overlaid onto a fresh InitAux on restore.
//
// A delta blob (Full=false) carries only vertices whose
// value/activity/aux changed since the parent manifest at superstep
// Parent; the pending section is always complete for the resume
// superstep.
type Blob struct {
	Superstep int
	Shard     int
	Full      bool
	Parent    int // parent manifest superstep; meaningful when !Full
	Vertex    []int32
	Value     []float64
	Active    []bool
	PendDst   []int32
	PendVal   []float64
	AuxVtx    []int32
	Aux       [][]byte
}

// Size is the length of the sealed encoding.
func (b *Blob) Size() int {
	size := 13 + 4 + 13*len(b.Vertex) + 4 + 12*len(b.PendDst) + 4 + 8*len(b.AuxVtx) + sealTrailerLen
	for _, a := range b.Aux {
		size += len(a)
	}
	return size
}

// Encode seals the blob. It is sized exactly, trailer included, so a
// checkpoint blob is built in one allocation.
func (b *Blob) Encode() []byte {
	w := Enc{B: make([]byte, 0, b.Size())}
	w.U32(uint32(b.Superstep))
	w.U32(uint32(b.Shard))
	w.Bool(b.Full)
	w.U32(uint32(b.Parent))
	w.U32(uint32(len(b.Vertex)))
	for i, v := range b.Vertex {
		w.U32(uint32(v))
		w.F64(b.Value[i])
		w.Bool(b.Active[i])
	}
	w.U32(uint32(len(b.PendDst)))
	for i, d := range b.PendDst {
		w.U32(uint32(d))
		w.F64(b.PendVal[i])
	}
	w.U32(uint32(len(b.AuxVtx)))
	for i, v := range b.AuxVtx {
		w.U32(uint32(v))
		w.U32(uint32(len(b.Aux[i])))
		w.B = append(w.B, b.Aux[i]...)
	}
	return seal(w.B)
}

// DecodeBlob validates the seal and decodes a blob.
func DecodeBlob(data []byte) (*Blob, error) {
	payload, err := unseal(data)
	if err != nil {
		return nil, err
	}
	r := NewDec(payload)
	b := &Blob{Superstep: int(r.U32()), Shard: int(r.U32())}
	b.Full = r.Bool()
	b.Parent = int(r.U32())
	n := r.U32()
	if r.err != nil || int(n) > r.Remaining()/13+1 {
		return nil, fmt.Errorf("%w: vertex count", ErrCorrupt)
	}
	b.Vertex = make([]int32, 0, n)
	b.Value = make([]float64, 0, n)
	b.Active = make([]bool, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		b.Vertex = append(b.Vertex, int32(r.U32()))
		b.Value = append(b.Value, r.F64())
		b.Active = append(b.Active, r.Bool())
	}
	np := r.U32()
	if r.err != nil || int(np) > r.Remaining()/12+1 {
		return nil, fmt.Errorf("%w: pending count", ErrCorrupt)
	}
	b.PendDst = make([]int32, 0, np)
	b.PendVal = make([]float64, 0, np)
	for i := uint32(0); i < np && r.err == nil; i++ {
		b.PendDst = append(b.PendDst, int32(r.U32()))
		b.PendVal = append(b.PendVal, r.F64())
	}
	na := r.U32()
	if r.err != nil || int(na) > r.Remaining()/8+1 {
		return nil, fmt.Errorf("%w: aux count", ErrCorrupt)
	}
	if na > 0 {
		b.AuxVtx = make([]int32, 0, na)
		b.Aux = make([][]byte, 0, na)
	}
	for i := uint32(0); i < na && r.err == nil; i++ {
		b.AuxVtx = append(b.AuxVtx, int32(r.U32()))
		b.Aux = append(b.Aux, r.Bytes(r.U32()))
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return b, nil
}

// MaxChainDepth bounds parent-link walks during recovery so a cyclic
// or absurdly deep chain (corruption, a bug) fails fast instead of
// looping; writers keep real chains far shorter.
const MaxChainDepth = 64

// Manifest seals one complete checkpoint: which blobs belong to it and
// the aggregator values visible at the resume superstep. Program and
// Graph identify the computation so a resuming reader can verify it
// is restoring the same one. A delta manifest (Parent >= 0) links to
// its parent by superstep and pins the exact parent payload with
// ParentCRC (the parent's seal CRC); Chain is its distance from the
// full root.
type Manifest struct {
	Job       string
	Superstep int
	Shards    int
	Program   string
	Graph     string
	Canonical bool
	Aggs      Aggs
	BlobKeys  []string
	Parent    int // parent manifest superstep; -1 = full root
	Chain     int // delta depth from the full root (0 = full)
	ParentCRC uint32

	// CRC is the CRC32 of the sealed payload — the value a child's
	// ParentCRC must match. Encode and decoding set it; it is not
	// serialised.
	CRC uint32
}

// Encode seals the manifest and records its CRC.
func (m *Manifest) Encode() []byte {
	var w Enc
	w.U32(FormatVersion)
	w.Str(m.Job)
	w.U32(uint32(m.Superstep))
	w.U32(uint32(m.Shards))
	w.Str(m.Program)
	w.Str(m.Graph)
	w.Bool(m.Canonical)
	w.Aggs(m.Aggs)
	w.Strs(m.BlobKeys)
	w.U32(uint32(m.Parent + 1)) // 0 = full root
	w.U32(uint32(m.Chain))
	w.U32(m.ParentCRC)
	out := seal(w.B)
	m.CRC = binary.LittleEndian.Uint32(out[len(out)-4:])
	return out
}

// DecodeManifest validates the seal, the format version and the chain
// link, and decodes a manifest.
func DecodeManifest(data []byte) (*Manifest, error) {
	payload, err := unseal(data)
	if err != nil {
		return nil, err
	}
	r := NewDec(payload)
	if v := r.U32(); r.err == nil && v != FormatVersion {
		return nil, fmt.Errorf("%w: manifest format version %d, want %d", ErrCorrupt, v, FormatVersion)
	}
	m := &Manifest{
		Job:       r.Str(),
		Superstep: int(r.U32()),
		Shards:    int(r.U32()),
		Program:   r.Str(),
		Graph:     r.Str(),
		Canonical: r.Bool(),
		Aggs:      r.Aggs(),
		BlobKeys:  r.Strs(),
		Parent:    int(r.U32()) - 1,
		Chain:     int(r.U32()),
		ParentCRC: r.U32(),
		CRC:       crc32.ChecksumIEEE(payload),
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	if m.Parent >= 0 && (m.Parent >= m.Superstep || m.Chain < 1 || m.Chain > MaxChainDepth) {
		return nil, fmt.Errorf("%w: inconsistent chain link (parent %d, chain %d)", ErrCorrupt, m.Parent, m.Chain)
	}
	if m.Parent < 0 && m.Chain != 0 {
		return nil, fmt.Errorf("%w: full manifest with chain depth %d", ErrCorrupt, m.Chain)
	}
	return m, nil
}

// Commit seals a checkpoint whose blobs are all stored: it writes the
// manifest, then flips the job's latest pointer to it. The pointer is a
// second copy of the sealed manifest, not a key: a save whose manifest
// object is damaged in the store is still restored through its
// pointer, and one whose pointer is damaged through the fallback scan,
// so the manifest is not a second point of failure beside the blobs.
func Commit(store cloud.BlobStore, m *Manifest) error {
	data := m.Encode()
	if _, err := store.Put(ManifestKey(m.Job, m.Superstep), data); err != nil {
		return err
	}
	_, err := store.Put(PointerKey(m.Job), data)
	return err
}

// Checkpoint is a restorable checkpoint: its manifest and, oldest
// manifest first, the key and decoded blob of every blob in its chain
// (for a full manifest, its own blobs).
type Checkpoint struct {
	*Manifest
	Keys  []string
	Blobs []*Blob
}

// Latest resolves the newest restorable checkpoint in job's namespace,
// reading every object once on the way. The latest pointer's manifest
// wins when it and its whole chain validate; otherwise every manifest
// of the namespace is tried newest-first — the pointer's own
// checkpoint included, since a read may have been damaged in transit —
// and the first that validates is restored. A namespace without a
// pointer, or with nothing restorable, returns ErrNoCheckpoint: a
// cleanly absent pointer means a fresh (or cleared) job, whose
// leftovers must not be resurrected.
func Latest(store cloud.BlobStore, job string) (*Checkpoint, error) {
	if !store.Exists(PointerKey(job)) {
		return nil, ErrNoCheckpoint
	}
	if c, err := resolve(store, job, PointerKey(job)); err == nil {
		return c, nil
	}
	// Keys embed the zero-padded superstep, so lexicographic descending
	// order is newest-first.
	var candidates []string
	for _, k := range jobKeys(store, job) {
		if strings.HasSuffix(k, "/manifest") {
			candidates = append(candidates, k)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(candidates)))
	for _, k := range candidates {
		if c, err := resolve(store, job, k); err == nil {
			return c, nil
		}
	}
	return nil, ErrNoCheckpoint
}

// resolve loads the manifest at key (a manifest key or the latest
// pointer) and, for a delta, its whole parent chain, checking each
// link's ParentCRC against the actual parent payload and every
// referenced blob's seal and structure.
func resolve(store cloud.BlobStore, job, key string) (*Checkpoint, error) {
	m, blobs, err := loadManifest(store, job, key)
	if err != nil {
		return nil, err
	}
	chain := []*Manifest{m}
	chainBlobs := [][]*Blob{blobs}
	for child := m; child.Parent >= 0; child = chain[len(chain)-1] {
		if len(chain) > MaxChainDepth {
			return nil, fmt.Errorf("%w: manifest chain deeper than %d", ErrCorrupt, MaxChainDepth)
		}
		pkey := ManifestKey(job, child.Parent)
		p, pblobs, err := loadManifest(store, job, pkey)
		if err != nil {
			return nil, fmt.Errorf("ckpt: manifest %q chain parent %q: %w", key, pkey, err)
		}
		if p.CRC != child.ParentCRC {
			return nil, fmt.Errorf("%w: manifest %q parent CRC %08x != %08x", ErrCorrupt, pkey, p.CRC, child.ParentCRC)
		}
		chain = append(chain, p)
		chainBlobs = append(chainBlobs, pblobs)
	}
	c := &Checkpoint{Manifest: m}
	for i := len(chain) - 1; i >= 0; i-- {
		c.Keys = append(c.Keys, chain[i].BlobKeys...)
		c.Blobs = append(c.Blobs, chainBlobs[i]...)
	}
	return c, nil
}

// loadManifest fetches and validates one manifest of job and its own
// blob set, without chain resolution. Blob reads run in parallel:
// chained restores touch many blobs and the standby path is latency-
// sensitive inside the warning window.
func loadManifest(store cloud.BlobStore, job, key string) (*Manifest, []*Blob, error) {
	data, _, err := store.Get(key)
	if err != nil {
		return nil, nil, err
	}
	m, err := DecodeManifest(data)
	if err != nil {
		return nil, nil, err
	}
	// A manifest (or pointer) is trusted only for its own job's blobs.
	if m.Job != job {
		return nil, nil, fmt.Errorf("%w: manifest %q belongs to job %q", ErrCorrupt, key, m.Job)
	}
	blobs := make([]*Blob, len(m.BlobKeys))
	errs := make([]error, len(m.BlobKeys))
	var wg sync.WaitGroup
	for i, bk := range m.BlobKeys {
		wg.Add(1)
		go func(i int, bk string) {
			defer wg.Done()
			data, _, err := store.Get(bk)
			if err == nil {
				blobs[i], err = DecodeBlob(data)
			}
			if err != nil {
				errs[i] = fmt.Errorf("ckpt: manifest %q references blob %q: %w", key, bk, err)
			}
		}(i, bk)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	return m, blobs, nil
}

// Clear deletes job's latest pointer and every checkpoint object in
// its namespace, old-layout keys included — and nothing of any other
// job's. Deleting only the
// pointer is not enough for recurrent jobs: a later execution writes
// fresh checkpoints under the same namespace, and if its pointer is
// ever damaged the fallback scan would let a leftover high-superstep
// manifest of the previous execution win. Delete failures are
// collected and returned (never swallowed) so callers can log them.
func Clear(store cloud.BlobStore, job string) error {
	var errs []error
	// Keys come sorted, so the pointer ("latest" < "step/...") goes
	// first: a clear that fails halfway leaves no pointer to leftovers.
	keys := jobKeys(store, job)
	for _, k := range store.Keys() {
		if ownsLegacy(job, k) {
			keys = append(keys, k)
		}
	}
	for _, k := range keys {
		if err := store.Delete(k); err != nil {
			errs = append(errs, fmt.Errorf("ckpt: clear %q: %w", k, err))
		}
	}
	return errors.Join(errs...)
}
