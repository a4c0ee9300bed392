package main

import (
	"sort"
	"sync"
	"time"

	"hourglass/internal/cloud"
	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/units"
)

// Layers are the repo's module names. A span belongs to the layer the
// benchmark called into (or, for spans rebuilt from sink events, the
// layer that emitted the event).
const (
	layerCloud     = "cloud"
	layerCore      = "core"
	layerEngine    = "engine"
	layerDist      = "dist"
	layerRuntime   = "runtime"
	layerScheduler = "scheduler"
)

// layerRank orders layers for attribution: where spans of one
// operation overlap (four shards writing blobs during a checkpoint,
// a decision inside a submit), the instant belongs to the innermost
// layer, so the layer shares of an operation sum to its wall time
// with nothing counted twice.
var layerRank = map[string]int{
	layerRuntime: 1, layerScheduler: 1,
	layerEngine: 2, layerDist: 2,
	layerCore:  3,
	layerCloud: 4,
}

// span is one timed call across a layer boundary. Times are
// nanoseconds since the tracer started; Parent is the index of the
// span that caused it (-1 for an operation's root) and Op the
// operation (job or HTTP request) it belongs to. Name is the call;
// Label, on a root span, says which job or request it was.
type span struct {
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory; nothing is written until the run
// ends. A nil *tracer is the untraced run: every method is a no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) stamp(at time.Time) int64 { return int64(at.Sub(t.t0)) }

// begin opens a span under parent and returns its index (-1 when
// untraced). A span with no parent (-1) is the root of a new
// operation, and its own index is the operation's id.
func (t *tracer) begin(layer, name string, parent, op int) int {
	if t == nil {
		return -1
	}
	now := t.stamp(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	if parent < 0 {
		op = id
	}
	t.spans = append(t.spans, span{Layer: layer, Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return id
}

// beginOp opens the root span of a new operation.
func (t *tracer) beginOp(layer, name, label string) int {
	id := t.begin(layer, name, -1, -1)
	if t != nil {
		t.mu.Lock()
		t.spans[id].Label = label
		t.mu.Unlock()
	}
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := t.stamp(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a span whose bounds are already known (rebuilt from a
// sink event's wall stamp).
func (t *tracer) add(layer, name string, start, end time.Time, parent, op int) {
	if t == nil {
		return
	}
	s := span{Layer: layer, Name: name, Start: t.stamp(start), End: t.stamp(end), Parent: parent, Op: op}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far, dropping any left open by
// an operation that was abandoned at its timeout.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// attribute splits the wall time of every operation among the calls
// it made: a sweep over each operation's span boundaries gives every
// instant to the open span of the highest-ranked layer, which is that
// call's self time summed over the operation (span minus the part its
// inner spans cover). The result maps span name to nanoseconds, and
// layers to the sum over their names; each map sums to the total
// root-span time.
func attribute(spans []span) (byName, byLayer map[string]int64) {
	type edge struct {
		at   int64
		span *span
		open bool
	}
	byOp := map[int][]edge{}
	for i := range spans {
		s := &spans[i]
		byOp[s.Op] = append(byOp[s.Op], edge{s.Start, s, true}, edge{s.End, s, false})
	}
	byName, byLayer = map[string]int64{}, map[string]int64{}
	for _, edges := range byOp {
		sort.Slice(edges, func(i, j int) bool { return edges[i].at < edges[j].at })
		open := map[*span]bool{}
		for i, e := range edges {
			if i > 0 && e.at > edges[i-1].at {
				var best *span
				for s := range open {
					// Ties within a layer go to the span that started last.
					if best == nil || layerRank[s.Layer] > layerRank[best.Layer] ||
						(layerRank[s.Layer] == layerRank[best.Layer] && s.Start > best.Start) {
						best = s
					}
				}
				if best != nil {
					byName[best.Name] += e.at - edges[i-1].at
					byLayer[best.Layer] += e.at - edges[i-1].at
				}
			}
			if e.open {
				open[e.span] = true
			} else {
				delete(open, e.span)
			}
		}
	}
	return byName, byLayer
}

// storeCounters totals one job's traffic through the counting store.
type storeCounters struct {
	mu                 sync.Mutex
	putNs, getNs       int64
	putBytes, getBytes int64
	ops                int64
}

// add folds a finished job's counters into a phase total.
func (c *storeCounters) add(o *storeCounters) {
	c.putNs += o.putNs
	c.getNs += o.getNs
	c.putBytes += o.putBytes
	c.getBytes += o.getBytes
	c.ops += o.ops
}

// countingStore wraps a cloud.BlobStore with spans and byte counters:
// the cloud layer as the rest of the system sees it. Shards call it
// concurrently.
type countingStore struct {
	cloud.BlobStore
	tr         *tracer
	parent, op int
	c          *storeCounters
}

func (s *countingStore) Put(key string, data []byte) (units.Seconds, error) {
	id := s.tr.begin(layerCloud, "cloud.BlobStore.Put", s.parent, s.op)
	t0 := time.Now()
	d, err := s.BlobStore.Put(key, data)
	ns := int64(time.Since(t0))
	s.tr.end(id)
	s.c.mu.Lock()
	s.c.putNs += ns
	s.c.putBytes += int64(len(data))
	s.c.ops++
	s.c.mu.Unlock()
	return d, err
}

func (s *countingStore) Get(key string) ([]byte, units.Seconds, error) {
	id := s.tr.begin(layerCloud, "cloud.BlobStore.Get", s.parent, s.op)
	t0 := time.Now()
	data, d, err := s.BlobStore.Get(key)
	ns := int64(time.Since(t0))
	s.tr.end(id)
	s.c.mu.Lock()
	s.c.getNs += ns
	s.c.getBytes += int64(len(data))
	s.c.ops++
	s.c.mu.Unlock()
	return data, d, err
}

func (s *countingStore) meta(name string) func() {
	id := s.tr.begin(layerCloud, name, s.parent, s.op)
	return func() {
		s.tr.end(id)
		s.c.mu.Lock()
		s.c.ops++
		s.c.mu.Unlock()
	}
}

func (s *countingStore) Delete(key string) error {
	defer s.meta("cloud.BlobStore.Delete")()
	return s.BlobStore.Delete(key)
}

func (s *countingStore) Exists(key string) bool {
	defer s.meta("cloud.BlobStore.Exists")()
	return s.BlobStore.Exists(key)
}

func (s *countingStore) Keys() []string {
	defer s.meta("cloud.BlobStore.Keys")()
	return s.BlobStore.Keys()
}

// timedProv wraps a provisioner so every consultation is a core span.
type timedProv struct {
	core.Provisioner
	tr         *tracer
	parent, op int
}

func (p *timedProv) Decide(s core.State) (core.Decision, error) {
	id := p.tr.begin(layerCore, "core.Provisioner.Decide", p.parent, p.op)
	dec, err := p.Provisioner.Decide(s)
	p.tr.end(id)
	return dec, err
}

// jobSink is the wall-stamping obs.Sink of one traced job. The
// in-process engine reports each superstep's own duration; the dist
// coordinator does not, so a dist superstep spans from the previous
// event of its session to its own. It also measures the recovery gap
// (loss event to the next completed superstep).
type jobSink struct {
	tr         *tracer
	layer      string // layerEngine or layerDist: who emits EvSuperstep
	parent, op int

	mu      sync.Mutex
	last    time.Time // previous event of the current session
	started bool      // the current session has completed a superstep
	lostAt  time.Time // pending loss awaiting its next superstep
	gaps    []time.Duration
}

func (s *jobSink) Emit(e obs.Event) {
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	switch e.Type {
	case obs.EvDeploy:
		s.last, s.started = now, false
	case obs.EvSuperstep:
		start := now.Add(-time.Duration(e.NsStep))
		name := "engine.superstep"
		if s.layer == layerDist {
			// A session's first interval also holds its handshake, mesh
			// dial and checkpoint restore, so it is named apart.
			name = "dist.superstep"
			if !s.started {
				name = "dist.session_start"
			}
			start, s.started = s.last, true
			if start.IsZero() {
				start = now
			}
		}
		s.tr.add(s.layer, name, start, now, s.parent, s.op)
		if !s.lostAt.IsZero() {
			s.gaps = append(s.gaps, now.Sub(s.lostAt))
			s.lostAt = time.Time{}
		}
		s.last = now
	case obs.EvCheckpoint:
		// Only the dist coordinator's checkpoint events follow the
		// superstep they seal; the in-process driver's are bare markers.
		if s.layer == layerDist && !s.last.IsZero() {
			s.tr.add(layerDist, "dist.checkpoint", s.last, now, s.parent, s.op)
			s.last = now
		}
	case obs.EvShardEvict, obs.EvEvict:
		// A shard loss is followed by the driver's own EvEvict for the
		// same interruption; the gap runs from the first of the two.
		if s.lostAt.IsZero() {
			s.lostAt = now
		}
	}
}
