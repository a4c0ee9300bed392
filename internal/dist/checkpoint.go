package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strings"
	"sync"

	"hourglass/internal/cloud"
)

// Checkpoint layout in the blob store, namespaced per job:
//
//	dist/<job>/ckpt/<superstep %08d>/shard-<i %03d>   per-shard state blob
//	dist/<job>/ckpt/<superstep %08d>/manifest         coordinator manifest
//	dist/<job>/latest                                 → newest manifest key
//
// Each shard uploads its own blob (owned vertex values + activity +
// the pending inbox of the resume superstep); the coordinator seals
// the set with a manifest once every ack is in, then flips the latest
// pointer. Recovery reads the manifest and hands every shard the full
// blob list: shards reload all blobs in parallel and keep what they
// own, so a session can resume under a different shard count — the
// paper's §6 micro-partition reload across configurations.
//
// Blobs and manifests carry the engine checkpoint CRC trailer scheme
// (magic + CRC32 over the payload), so a corrupt or truncated object
// is detected and the coordinator falls back to the next-older
// manifest whose whole blob set validates, mirroring
// engine.CheckpointManager's fallback scan.
//
// Delta chains (§9 warm standby): a manifest may be a *delta* —
// Parent names the parent manifest's superstep and ParentCRC pins the
// exact parent payload, its shard blobs encode only vertices whose
// value/activity/aux changed since that parent (the pending inbox is
// always complete: it is the resume superstep's live message state and
// has no stable identity to diff against). Restoring a delta resolves
// the chain back to its full root and overlays blob sets oldest-first;
// because the root is always full and overlays are newest-wins per
// vertex, mixed full/delta blobs — and reshards mid-chain — restore
// bit-identically. Chain depth is bounded (Config.DeltaChain forces a
// periodic full), and a corrupt link anywhere invalidates the whole
// candidate so the fallback scan lands on the newest manifest whose
// entire chain validates.

// distMagic seals dist checkpoint objects ("HGDS").
const distMagic = uint32(0x48474453)

// sealTrailerLen is the magic + CRC32 trailer size.
const sealTrailerLen = 8

// ErrCorruptObject reports a dist checkpoint object that fails CRC or
// structural validation.
var ErrCorruptObject = errors.New("dist: corrupt checkpoint object")

// ErrNoCheckpoint reports an empty namespace (fresh job).
var ErrNoCheckpoint = errors.New("dist: no checkpoint available")

// seal appends the magic + CRC32 trailer to payload, in place when its
// capacity allows (callers hand over a buffer they just built).
func seal(payload []byte) []byte {
	crc := crc32.ChecksumIEEE(payload)
	out := binary.LittleEndian.AppendUint32(payload, distMagic)
	return binary.LittleEndian.AppendUint32(out, crc)
}

// unseal validates and strips the trailer.
func unseal(blob []byte) ([]byte, error) {
	if len(blob) < sealTrailerLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrCorruptObject, len(blob))
	}
	payload, trailer := blob[:len(blob)-sealTrailerLen], blob[len(blob)-sealTrailerLen:]
	if binary.LittleEndian.Uint32(trailer[:4]) != distMagic {
		return nil, fmt.Errorf("%w: bad trailer magic", ErrCorruptObject)
	}
	if binary.LittleEndian.Uint32(trailer[4:]) != crc32.ChecksumIEEE(payload) {
		return nil, fmt.Errorf("%w: CRC32 mismatch", ErrCorruptObject)
	}
	return payload, nil
}

// namespacePrefix is the root of a job's dist keys.
func namespacePrefix(job string) string { return fmt.Sprintf("dist/%s/", job) }

// latestPointerKey tracks the newest sealed manifest.
func latestPointerKey(job string) string { return fmt.Sprintf("dist/%s/latest", job) }

// manifestKey names the manifest for a resume superstep.
func manifestKey(job string, superstep int) string {
	return fmt.Sprintf("dist/%s/ckpt/%08d/manifest", job, superstep)
}

// shardBlobKey names one shard's state blob.
func shardBlobKey(job string, superstep, shard int) string {
	return fmt.Sprintf("dist/%s/ckpt/%08d/shard-%03d", job, superstep, shard)
}

// shardBlob is one shard's checkpointed partition state: the values
// and activity of its owned vertices, the pending inbox of the
// superstep the blob resumes into, and — for engine.VertexAux
// programs — each owned vertex's auxiliary state so a resume (possibly
// under a different shard count) overlays them onto a fresh InitAux.
//
// A delta blob (Full=false) carries only owned vertices whose
// value/activity/aux changed since the parent manifest at superstep
// Parent; the pending section is always complete for the resume
// superstep. Restores overlay blobs chain-oldest-first, so absent
// vertices inherit ancestor state.
type shardBlob struct {
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

func (b *shardBlob) encode() []byte {
	// Sized exactly, trailer included: a checkpoint blob is built in one
	// allocation instead of a growth series plus a sealing copy.
	size := 13 + 4 + 13*len(b.Vertex) + 4 + 12*len(b.PendDst) + 4 + 8*len(b.AuxVtx) + sealTrailerLen
	for _, a := range b.Aux {
		size += len(a)
	}
	w := wbuf{b: make([]byte, 0, size)}
	w.u32(uint32(b.Superstep))
	w.u32(uint32(b.Shard))
	w.bool(b.Full)
	w.u32(uint32(b.Parent))
	w.u32(uint32(len(b.Vertex)))
	for i, v := range b.Vertex {
		w.u32(uint32(v))
		w.f64(b.Value[i])
		w.bool(b.Active[i])
	}
	w.u32(uint32(len(b.PendDst)))
	for i, d := range b.PendDst {
		w.u32(uint32(d))
		w.f64(b.PendVal[i])
	}
	w.u32(uint32(len(b.AuxVtx)))
	for i, v := range b.AuxVtx {
		w.u32(uint32(v))
		w.u32(uint32(len(b.Aux[i])))
		w.b = append(w.b, b.Aux[i]...)
	}
	return seal(w.b)
}

func decodeShardBlob(blob []byte) (*shardBlob, error) {
	payload, err := unseal(blob)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: payload}
	b := &shardBlob{Superstep: int(r.u32()), Shard: int(r.u32())}
	b.Full = r.bool()
	b.Parent = int(r.u32())
	n := r.u32()
	if r.err != nil || int(n) > r.remaining()/13+1 {
		return nil, fmt.Errorf("%w: vertex count", ErrCorruptObject)
	}
	b.Vertex = make([]int32, 0, n)
	b.Value = make([]float64, 0, n)
	b.Active = make([]bool, 0, n)
	for i := uint32(0); i < n && r.err == nil; i++ {
		b.Vertex = append(b.Vertex, int32(r.u32()))
		b.Value = append(b.Value, r.f64())
		b.Active = append(b.Active, r.bool())
	}
	np := r.u32()
	if r.err != nil || int(np) > r.remaining()/12+1 {
		return nil, fmt.Errorf("%w: pending count", ErrCorruptObject)
	}
	b.PendDst = make([]int32, 0, np)
	b.PendVal = make([]float64, 0, np)
	for i := uint32(0); i < np && r.err == nil; i++ {
		b.PendDst = append(b.PendDst, int32(r.u32()))
		b.PendVal = append(b.PendVal, r.f64())
	}
	na := r.u32()
	if r.err != nil || int(na) > r.remaining()/8+1 {
		return nil, fmt.Errorf("%w: aux count", ErrCorruptObject)
	}
	if na > 0 {
		b.AuxVtx = make([]int32, 0, na)
		b.Aux = make([][]byte, 0, na)
	}
	for i := uint32(0); i < na && r.err == nil; i++ {
		vtx := int32(r.u32())
		bl := r.u32()
		if r.err != nil || int(bl) > r.remaining() {
			return nil, fmt.Errorf("%w: aux blob length", ErrCorruptObject)
		}
		b.AuxVtx = append(b.AuxVtx, vtx)
		b.Aux = append(b.Aux, append([]byte(nil), r.b[r.off:r.off+int(bl)]...))
		r.off += int(bl)
	}
	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptObject, err)
	}
	return b, nil
}

// maxChainDepth bounds parent-link walks during recovery so a cyclic
// or absurdly deep chain (corruption, a bug) fails fast instead of
// looping; Config.DeltaChain keeps real chains far shorter.
const maxChainDepth = 64

// manifest seals one complete checkpoint: which blobs belong to it and
// the aggregator values visible at the resume superstep. Job/program/
// graph specs are embedded so a resuming coordinator can verify it is
// restoring the same computation. A delta manifest (Parent >= 0) links
// to its parent by superstep and pins the exact parent payload with
// ParentCRC (the parent's seal CRC); Chain is its distance from the
// full root.
type manifest struct {
	Job       string
	Superstep int
	Shards    int
	Program   string // ProgramSpec JSON
	Graph     string // GraphSpec JSON
	Canonical bool
	Aggs      aggPairs
	BlobKeys  []string
	Parent    int // parent manifest superstep; -1 = full root
	Chain     int // delta depth from the full root (0 = full)
	ParentCRC uint32

	// selfCRC is the CRC32 of this manifest's sealed payload — the value
	// a child's ParentCRC must match. Set by encodeSealed/decodeManifest,
	// never serialized.
	selfCRC uint32
	// chainKeys is the resolved restore list — every chain blob key,
	// oldest manifest first — populated by loadManifest. For a full
	// manifest it equals BlobKeys.
	chainKeys []string
}

func (m *manifest) encode() []byte {
	var w wbuf
	w.str(m.Job)
	w.u32(uint32(m.Superstep))
	w.u32(uint32(m.Shards))
	w.str(m.Program)
	w.str(m.Graph)
	w.bool(m.Canonical)
	w.aggs(m.Aggs)
	w.u32(uint32(len(m.BlobKeys)))
	for _, k := range m.BlobKeys {
		w.str(k)
	}
	w.u32(uint32(m.Parent + 1)) // 0 = full root
	w.u32(uint32(m.Chain))
	w.u32(m.ParentCRC)
	return seal(w.b)
}

// encodeSealed encodes the manifest and reports the seal CRC a child
// delta must carry as ParentCRC (also recorded in m.selfCRC).
func (m *manifest) encodeSealed() []byte {
	blob := m.encode()
	m.selfCRC = binary.LittleEndian.Uint32(blob[len(blob)-4:])
	return blob
}

func decodeManifest(blob []byte) (*manifest, error) {
	payload, err := unseal(blob)
	if err != nil {
		return nil, err
	}
	r := rbuf{b: payload}
	m := &manifest{
		Job:       r.str(),
		Superstep: int(r.u32()),
		Shards:    int(r.u32()),
		Program:   r.str(),
		Graph:     r.str(),
		Canonical: r.bool(),
		Aggs:      r.aggs(),
	}
	nk := r.u32()
	if r.err != nil || int(nk) > r.remaining()/4+1 {
		return nil, fmt.Errorf("%w: blob key count", ErrCorruptObject)
	}
	m.BlobKeys = make([]string, 0, nk)
	for i := uint32(0); i < nk && r.err == nil; i++ {
		m.BlobKeys = append(m.BlobKeys, r.str())
	}
	m.Parent = int(r.u32()) - 1
	m.Chain = int(r.u32())
	m.ParentCRC = r.u32()
	if err := r.finish(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptObject, err)
	}
	if m.Parent >= 0 && (m.Parent >= m.Superstep || m.Chain < 1 || m.Chain > maxChainDepth) {
		return nil, fmt.Errorf("%w: inconsistent chain link (parent %d, chain %d)", ErrCorruptObject, m.Parent, m.Chain)
	}
	if m.Parent < 0 && m.Chain != 0 {
		return nil, fmt.Errorf("%w: full manifest with chain depth %d", ErrCorruptObject, m.Chain)
	}
	m.selfCRC = crc32.ChecksumIEEE(payload)
	return m, nil
}

// loadManifest fetches and validates one manifest AND every blob it
// references (existence + CRC + per-blob structure), then — for a
// delta — resolves and validates the whole parent chain the same way,
// checking each link's ParentCRC against the actual parent payload.
// The coordinator pays this extra read so a resuming session never
// welcomes shards with a manifest whose blob set cannot actually
// restore; m.chainKeys comes back ready to hand out (chain blob keys,
// oldest manifest first).
func loadManifest(store cloud.BlobStore, key string) (*manifest, error) {
	m, err := loadOneManifest(store, key)
	if err != nil {
		return nil, err
	}
	chain := []*manifest{m}
	child := m
	for child.Parent >= 0 {
		if len(chain) > maxChainDepth {
			return nil, fmt.Errorf("%w: manifest chain deeper than %d", ErrCorruptObject, maxChainDepth)
		}
		pkey := manifestKey(child.Job, child.Parent)
		p, err := loadOneManifest(store, pkey)
		if err != nil {
			return nil, fmt.Errorf("dist: manifest %q chain parent %q: %w", key, pkey, err)
		}
		if p.selfCRC != child.ParentCRC {
			return nil, fmt.Errorf("%w: manifest %q parent CRC %08x != %08x", ErrCorruptObject, pkey, p.selfCRC, child.ParentCRC)
		}
		chain = append(chain, p)
		child = p
	}
	if root := chain[len(chain)-1]; root.Parent >= 0 || root.Chain != 0 {
		return nil, fmt.Errorf("%w: manifest chain for %q has no full root", ErrCorruptObject, key)
	}
	m.chainKeys = nil
	for i := len(chain) - 1; i >= 0; i-- {
		m.chainKeys = append(m.chainKeys, chain[i].BlobKeys...)
	}
	return m, nil
}

// loadOneManifest fetches and validates a single manifest and its own
// blob set, without chain resolution. Blob validation runs in parallel:
// chained restores touch many blobs and the standby path is latency-
// sensitive inside the warning window.
func loadOneManifest(store cloud.BlobStore, key string) (*manifest, error) {
	blob, _, err := store.Get(key)
	if err != nil {
		return nil, err
	}
	m, err := decodeManifest(blob)
	if err != nil {
		return nil, err
	}
	errs := make([]error, len(m.BlobKeys))
	var wg sync.WaitGroup
	for i, bk := range m.BlobKeys {
		wg.Add(1)
		go func(i int, bk string) {
			defer wg.Done()
			data, _, err := store.Get(bk)
			if err != nil {
				errs[i] = fmt.Errorf("dist: manifest %q references unreadable blob %q: %w", key, bk, err)
				return
			}
			if _, err := decodeShardBlob(data); err != nil {
				errs[i] = fmt.Errorf("dist: manifest %q references corrupt blob %q: %w", key, bk, err)
			}
		}(i, bk)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return m, nil
}

// LatestCheckpoint returns the superstep of the newest restorable
// checkpoint in job's namespace — the one a new session resumes from —
// or 0 when there is none.
func LatestCheckpoint(store cloud.BlobStore, job string) int {
	m, err := loadLatestManifest(store, job)
	if err != nil {
		return 0
	}
	return m.Superstep
}

// loadLatestManifest resolves the newest restorable checkpoint for a
// job, falling back across older manifests exactly like
// engine.CheckpointManager.Load: a corrupt pointer, manifest or blob
// set is skipped, and only a namespace with nothing restorable returns
// ErrNoCheckpoint.
func loadLatestManifest(store cloud.BlobStore, job string) (*manifest, error) {
	if !store.Exists(latestPointerKey(job)) {
		return nil, ErrNoCheckpoint
	}
	skip := ""
	if ptr, _, err := store.Get(latestPointerKey(job)); err == nil {
		skip = string(ptr)
		if m, err := loadManifest(store, skip); err == nil {
			return m, nil
		}
	}
	// Fallback scan, newest manifest first (keys embed the zero-padded
	// superstep, so lexicographic descending order is newest-first).
	prefix := namespacePrefix(job) + "ckpt/"
	var candidates []string
	for _, k := range store.Keys() {
		if strings.HasPrefix(k, prefix) && strings.HasSuffix(k, "/manifest") && k != skip {
			candidates = append(candidates, k)
		}
	}
	sort.Sort(sort.Reverse(sort.StringSlice(candidates)))
	for _, k := range candidates {
		if m, err := loadManifest(store, k); err == nil {
			return m, nil
		}
	}
	return nil, ErrNoCheckpoint
}

// clearNamespace deletes a job's latest pointer and every checkpoint
// object. Like engine.CheckpointManager.Clear, delete failures are
// collected rather than swallowed so callers can log them.
func clearNamespace(store cloud.BlobStore, job string) error {
	var errs []error
	if err := store.Delete(latestPointerKey(job)); err != nil {
		errs = append(errs, err)
	}
	prefix := namespacePrefix(job)
	for _, k := range store.Keys() {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		if err := store.Delete(k); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
