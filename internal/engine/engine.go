// Package engine is a from-scratch Pregel-style BSP graph-processing
// engine — the stand-in for Apache Giraph in the paper's prototype
// (§7). Vertices hold a float64 value, exchange float64 messages in
// synchronous supersteps, and vote to halt; workers are goroutines
// that own partitions of the vertex space. The engine supports
// combiners, aggregators, per-program auxiliary state, and
// whole-computation checkpoints that can be restored under a
// *different* worker count/partitioning — the property Hourglass's
// fast-reload recovery relies on.
//
// # Message plane
//
// The superstep hot path is allocation-free after warm-up and its cost
// is proportional to the number of active vertices, not to the graph:
//
//   - Combiner programs fold messages at Send time: each worker owns a
//     dense per-destination slot (value + presence flag), so a
//     destination vertex carries at most one staged value per worker
//     and delivery is a merge of the touched slots, sharded by the
//     destination's owner. No per-message or per-vertex list is ever
//     materialised.
//   - Non-combiner programs go through pooled per-destination-worker
//     outboxes; delivery counting-sorts each worker's incoming
//     messages into a reusable flat arena, and Compute receives
//     sub-slices of that arena in the exact arrival order the old
//     append-based inboxes produced.
//   - Active worklists replace the O(V) liveness scan: a vertex is
//     enqueued for the next superstep once, either when it stays
//     active after Compute or when its first message arrives, so
//     frontier algorithms (SSSP, BFS, WCC tails) pay only for the
//     frontier.
//
// Presence flags are []bool rather than packed bit sets so that
// delivery shards can clear a sender's slots for their own vertex
// range without sharing words across goroutines.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hourglass/internal/graph"
	"hourglass/internal/obs"
)

// Message is the unit exchanged between vertices. All bundled programs
// encode their payloads (distances, ranks, colors, component ids) as
// float64.
type Message struct {
	Dst graph.VertexID
	Val float64
}

// Context is the per-superstep view a Program's Compute sees. It is
// scoped to one worker and must not be retained across supersteps.
type Context struct {
	w         *worker
	host      ContextHost
	superstep int
}

// ContextHost is an external execution substrate driving Programs
// through the Context API: the distributed shard workers
// (internal/dist) run unmodified vertex programs by implementing this
// interface. The in-process engine never sets it, so the single nil
// check it costs on each Context method is branch-predicted away on
// the hot path.
type ContextHost interface {
	Graph() *graph.Graph
	Value(v graph.VertexID) float64
	SetValue(v graph.VertexID, x float64)
	Send(dst graph.VertexID, val float64)
	VoteToHalt(v graph.VertexID)
	Aggregate(name string, val float64)
	AggregatedValue(name string) float64
}

// NewHostContext binds a Context to an external host. The caller
// advances the superstep with SetSuperstep between barriers.
func NewHostContext(h ContextHost) *Context { return &Context{host: h} }

// SetSuperstep sets the superstep a host-backed Context reports
// (hosts only; the in-process engine manages it internally).
func (c *Context) SetSuperstep(s int) { c.superstep = s }

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.superstep }

// Graph returns the input graph.
func (c *Context) Graph() *graph.Graph {
	if c.host != nil {
		return c.host.Graph()
	}
	return c.w.run.g
}

// Value returns vertex v's current value.
func (c *Context) Value(v graph.VertexID) float64 {
	if c.host != nil {
		return c.host.Value(v)
	}
	return c.w.run.values[v]
}

// SetValue updates the value of a vertex owned by this worker. Programs
// must only set values of the vertex currently being computed.
func (c *Context) SetValue(v graph.VertexID, x float64) {
	if c.host != nil {
		c.host.SetValue(v, x)
		return
	}
	c.w.run.values[v] = x
}

// Send delivers a message to dst at the next superstep. With a
// combiner the message is folded into the worker's dense slot for dst
// immediately; otherwise it is staged in the pooled outbox of dst's
// owner. Either way the logical send is counted, so Stats.MessagesSent
// (and the perfmodel calibration inputs derived from it) are
// independent of the transport.
func (c *Context) Send(dst graph.VertexID, val float64) {
	if c.host != nil {
		c.host.Send(dst, val)
		return
	}
	w := c.w
	r := w.run
	ow := r.owner[dst]
	if r.comb != nil {
		if w.accSet[dst] {
			w.accVal[dst] = r.comb.Combine(w.accVal[dst], val)
			w.comb++
		} else {
			w.accSet[dst] = true
			w.accVal[dst] = val
			w.staged[ow] = append(w.staged[ow], dst)
		}
	} else {
		w.outbox[ow] = append(w.outbox[ow], Message{dst, val})
	}
	w.sent++
	if int(ow) != w.id {
		w.remote++
	}
}

// SendToNeighbors broadcasts val to all out-neighbours of v.
func (c *Context) SendToNeighbors(v graph.VertexID, val float64) {
	for _, u := range c.Graph().Neighbors(v) {
		c.Send(u, val)
	}
}

// VoteToHalt deactivates v; an incoming message reactivates it.
func (c *Context) VoteToHalt(v graph.VertexID) {
	if c.host != nil {
		c.host.VoteToHalt(v)
		return
	}
	c.w.run.active[v] = false
}

// Aggregate contributes to a named aggregator; the reduced value is
// visible through AggregatedValue in the *next* superstep.
func (c *Context) Aggregate(name string, val float64) {
	if c.host != nil {
		c.host.Aggregate(name, val)
		return
	}
	agg, ok := c.w.run.aggs[name]
	if !ok {
		panic(fmt.Sprintf("engine: unregistered aggregator %q", name))
	}
	if c.w.run.canonical {
		// Keep the raw terms: the barrier folds them value-sorted so the
		// reduction is independent of compute order and worker count.
		c.w.aggList[name] = append(c.w.aggList[name], val)
		return
	}
	cur, seen := c.w.aggLocal[name]
	if !seen {
		c.w.aggLocal[name] = val
		return
	}
	c.w.aggLocal[name] = agg.reduce(cur, val)
}

// AggregatedValue returns the reduction of the previous superstep's
// contributions (the aggregator's identity before any contribution).
func (c *Context) AggregatedValue(name string) float64 {
	if c.host != nil {
		return c.host.AggregatedValue(name)
	}
	agg, ok := c.w.run.aggs[name]
	if !ok {
		panic(fmt.Sprintf("engine: unregistered aggregator %q", name))
	}
	return agg.value
}

// Program is a vertex-centric computation.
type Program interface {
	// Name identifies the program in logs and checkpoints.
	Name() string
	// Init returns a vertex's initial value and whether it starts active.
	Init(g *graph.Graph, v graph.VertexID) (value float64, active bool)
	// Compute processes the messages delivered to v this superstep. It
	// runs only for vertices that are active or have incoming messages.
	// The msgs slice aliases engine-owned buffers and is only valid for
	// the duration of the call.
	Compute(ctx *Context, v graph.VertexID, msgs []float64)
}

// Combiner optionally merges messages addressed to the same vertex,
// cutting memory and exchange volume (Pregel's combiner). Combine must
// be commutative and associative; programs whose Compute inspects
// individual messages (rather than a fold of them) must not implement
// it.
type Combiner interface {
	Combine(a, b float64) float64
}

// ExactCombiner marks a Combiner whose Combine is bit-exactly
// associative and commutative over the values the program sends: every
// fold order and every split into partial folds yields the same bits.
// min/max over floats qualify as they are; a float sum qualifies only
// when the program keeps every term (and every partial sum) on a grid
// where addition never rounds — see PageRank's share quantum.
//
// Declaring it lets Config.Canonical (and dist's Canonical) keep the
// sender-side combining path: results are bit-identical to the raw
// sorted path at combiner cost. A program whose Combine rounds (a plain
// float sum) must not declare it; it keeps the raw path under Canonical.
type ExactCombiner interface {
	Combiner
	// ExactCombine is a marker; it is never called.
	ExactCombine()
}

// SendCombiner returns the combiner the message plane may fold with at
// send time, or nil when every term must travel raw: any Combiner
// outside canonical mode, only an ExactCombiner inside it. Both BSP
// kernels (this package's run and internal/dist's shard session) pick
// their message path with it, so they cannot disagree.
func SendCombiner(prog Program, canonical bool) Combiner {
	if !canonical {
		c, _ := prog.(Combiner)
		return c
	}
	if c, ok := prog.(ExactCombiner); ok {
		return c
	}
	return nil
}

// AggregatorSpec declares a named aggregator a program uses.
type AggregatorSpec struct {
	Name string
	// Identity is the value seen when nothing was contributed.
	Identity float64
	// Reduce merges two contributions (must be commutative+associative).
	Reduce func(a, b float64) float64
}

// Aggregators is implemented by programs that need aggregators.
type Aggregators interface {
	Aggregators() []AggregatorSpec
}

// AuxState is implemented by programs with per-vertex state beyond the
// single float64 value; the engine includes it in checkpoints.
type AuxState interface {
	// InitAux sizes the auxiliary state for the graph.
	InitAux(g *graph.Graph)
	// MarshalAux / UnmarshalAux serialise the state for checkpoints.
	MarshalAux() ([]byte, error)
	UnmarshalAux([]byte) error
}

// VertexAux is implemented by AuxState programs whose auxiliary state
// decomposes per vertex. Distributed shards require it: each shard
// checkpoints only its owned vertices' entries, and a resume — possibly
// under a different shard count — overlays them onto a fresh InitAux.
// Marshalling must be deterministic (identical state → identical bytes)
// so checkpoints stay bit-identical across runs.
type VertexAux interface {
	AuxState
	// MarshalVertexAux serialises one vertex's auxiliary state.
	MarshalVertexAux(v graph.VertexID) []byte
	// UnmarshalVertexAux restores one vertex's auxiliary state onto
	// the InitAux baseline.
	UnmarshalVertexAux(v graph.VertexID, b []byte) error
}

// Config controls an execution.
type Config struct {
	// Workers is the number of worker goroutines (≥1).
	Workers int
	// Assign maps vertex→worker; nil means hash partitioning.
	Assign []int32
	// MaxSupersteps aborts runaway programs (0 = 10_000).
	MaxSupersteps int
	// StopAfter pauses the run after this many additional supersteps,
	// returning ErrPaused with a resumable snapshot (0 = run to
	// completion). Used to emulate evictions mid-computation.
	StopAfter int
	// CollectStepStats records per-superstep activity into
	// Result.StepStats (costs one pass of bookkeeping per step).
	CollectStepStats bool
	// Sink, when set, receives one obs.EvSuperstep event per superstep
	// (frontier size, messages sent/combined, wall ns, arena bytes).
	// A nil sink costs nothing on the hot path: no timing, no event
	// construction, no allocations.
	Sink obs.Sink
	// Canonical forces order-invariant reductions, so results are
	// bit-identical across any sequence of worker-count changes — the
	// property the eviction-aware runtime's chaos suite asserts.
	// Aggregator contributions are collected and folded in sorted order
	// at the barrier. Messages of an ExactCombiner program (PageRank,
	// SSSP, WCC, BFS) keep the sender-side combining path: their fold
	// is order-invariant by contract, so canonical costs them nothing.
	// Every other program (no combiner, or a combiner that rounds)
	// ships raw terms and each vertex's message slice is sorted
	// ascending before Compute, so its folds depend only on the
	// multiset of inputs — one sort per message-receiving vertex per
	// superstep. Messages and aggregator contributions must not be NaN
	// or -0.0 (sort order among them is unspecified).
	Canonical bool
}

// ErrPaused is returned when Config.StopAfter interrupted the run; the
// Result carries a Snapshot to resume from.
var ErrPaused = errors.New("engine: paused before completion")

// ErrInterrupted is returned by RunCtx/ResumeCtx when the context is
// cancelled: the in-flight superstep is abandoned and no snapshot is
// produced — in-memory state is treated as lost, exactly the semantics
// of a spot eviction. Recovery goes through the last durable
// checkpoint (CheckpointManager), not the returned Result.
var ErrInterrupted = errors.New("engine: interrupted mid-run")

// Stats summarise an execution. For resumed runs, Supersteps is the
// absolute superstep counter while MessagesSent/ComputeCalls cover the
// resumed portion only.
type Stats struct {
	Supersteps   int
	MessagesSent int64
	ComputeCalls int64
	// RemoteMessages counts messages that crossed workers — the
	// network traffic a real deployment would pay, and the quantity
	// good partitionings minimise (§3.2).
	RemoteMessages int64
}

// StepStats records one superstep's activity (Config.CollectStepStats).
type StepStats struct {
	Superstep int
	Active    int64 // vertices computed
	Messages  int64 // messages sent during the step
}

// Result of a run.
type Result struct {
	Values []float64
	Stats  Stats
	// StepStats is populated when Config.CollectStepStats is set.
	StepStats []StepStats
	// Snapshot is non-nil when the run was paused (ErrPaused).
	Snapshot *Snapshot
}

type aggregator struct {
	identity float64
	reduce   func(a, b float64) float64
	value    float64
}

// run is the shared state of one execution.
type run struct {
	g       *graph.Graph
	prog    Program
	values  []float64
	active  []bool
	queued  []bool  // v is already on a next-superstep worklist
	owner   []int32 // vertex -> worker
	aggs    map[string]*aggregator
	workers []*worker
	comb    Combiner

	// Combiner-path inbox: at most one folded value per vertex.
	inVal []float64
	inSet []bool

	// Non-combiner inbox: per-vertex views into the owner's arena.
	// Vertex v's messages live at arena[msgEnd[v]-msgLen[v]:msgEnd[v]].
	msgEnd []int32
	msgLen []int32

	superstep int
	sent      int64
	calls     int64
	remote    int64

	collectSteps bool
	stepStats    []StepStats
	sink         obs.Sink

	// canonical is Config.Canonical; aggScratch is the reusable merge
	// buffer for canonical aggregator reduction.
	canonical  bool
	aggScratch []float64

	// done aborts the run when closed (RunCtx/ResumeCtx); aborted is
	// set by whichever goroutine observes the cancellation first.
	done    <-chan struct{}
	aborted atomic.Bool
}

type worker struct {
	run  *run
	id   int
	ctx  *Context         // reused across supersteps
	cur  []graph.VertexID // this superstep's worklist
	next []graph.VertexID // next superstep's worklist, deduped via run.queued

	// Combiner path: dense per-destination fold slot plus the
	// destinations touched this superstep, sharded by their owner so
	// delivery shards read only their own vertices.
	accVal []float64
	accSet []bool
	staged [][]graph.VertexID

	// Non-combiner path: pooled outboxes per destination worker, and
	// the inbox arena + dirty list for this worker's own vertex range.
	outbox [][]Message
	arena  []float64
	dirty  []graph.VertexID

	aggLocal map[string]float64
	// aggList collects raw aggregator contributions under canonical
	// mode, so the barrier can fold them in a value-sorted order that
	// does not depend on compute order or worker count.
	aggList map[string][]float64
	sent    int64
	calls   int64
	remote  int64
	comb    int64 // sends folded into an occupied slot (combiner path)
}

// Run executes prog on g under cfg, starting from scratch.
func Run(g *graph.Graph, prog Program, cfg Config) (Result, error) {
	return RunCtx(context.Background(), g, prog, cfg)
}

// RunCtx is Run with cancellation: once ctx is done the engine abandons
// the in-flight superstep (workers poll between vertices, the driver
// loop polls at every barrier) and returns ErrInterrupted. The eviction
// signal of the runtime driver (internal/runtime) arrives through this
// path.
func RunCtx(ctx context.Context, g *graph.Graph, prog Program, cfg Config) (Result, error) {
	r, err := newRun(g, prog, cfg)
	if err != nil {
		return Result{}, err
	}
	r.done = ctx.Done()
	// Initialise vertex values and auxiliary state.
	for v := 0; v < g.NumVertices(); v++ {
		val, act := prog.Init(g, graph.VertexID(v))
		r.values[v] = val
		r.active[v] = act
		if act {
			r.enqueue(graph.VertexID(v))
		}
	}
	if aux, ok := prog.(AuxState); ok {
		aux.InitAux(g)
	}
	r.promote()
	return r.loop(cfg.StopAfter, cfg.MaxSupersteps)
}

// Resume continues a paused or checkpointed execution. The config may
// use a different worker count or partitioning than the one that
// produced the snapshot — vertex state is location-independent.
func Resume(g *graph.Graph, prog Program, snap *Snapshot, cfg Config) (Result, error) {
	return ResumeCtx(context.Background(), g, prog, snap, cfg)
}

// ResumeCtx is Resume with cancellation (see RunCtx).
func ResumeCtx(ctx context.Context, g *graph.Graph, prog Program, snap *Snapshot, cfg Config) (Result, error) {
	if snap == nil {
		return Result{}, errors.New("engine: nil snapshot")
	}
	if snap.NumVertices != g.NumVertices() {
		return Result{}, fmt.Errorf("engine: snapshot for %d vertices, graph has %d", snap.NumVertices, g.NumVertices())
	}
	if snap.Program != prog.Name() {
		return Result{}, fmt.Errorf("engine: snapshot of %q cannot resume %q", snap.Program, prog.Name())
	}
	r, err := newRun(g, prog, cfg)
	if err != nil {
		return Result{}, err
	}
	r.done = ctx.Done()
	copy(r.values, snap.Values)
	copy(r.active, snap.Active)
	for v, act := range r.active {
		if act {
			r.enqueue(graph.VertexID(v))
		}
	}
	r.injectPending(snap.Pending)
	for name, v := range snap.AggValues {
		if a, ok := r.aggs[name]; ok {
			a.value = v
		}
	}
	r.superstep = snap.Superstep
	if aux, ok := prog.(AuxState); ok {
		aux.InitAux(g)
		if err := aux.UnmarshalAux(snap.Aux); err != nil {
			return Result{}, fmt.Errorf("engine: aux restore: %w", err)
		}
	}
	r.promote()
	return r.loop(cfg.StopAfter, cfg.MaxSupersteps)
}

func newRun(g *graph.Graph, prog Program, cfg Config) (*run, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("engine: workers = %d", cfg.Workers)
	}
	n := g.NumVertices()
	r := &run{
		g:      g,
		prog:   prog,
		values: make([]float64, n),
		active: make([]bool, n),
		queued: make([]bool, n),
		owner:  make([]int32, n),
		aggs:   map[string]*aggregator{},
	}
	if cfg.Assign != nil {
		if len(cfg.Assign) != n {
			return nil, fmt.Errorf("engine: assignment length %d for %d vertices", len(cfg.Assign), n)
		}
		copy(r.owner, cfg.Assign)
		for v, w := range r.owner {
			if w < 0 || int(w) >= cfg.Workers {
				return nil, fmt.Errorf("engine: vertex %d assigned to worker %d of %d", v, w, cfg.Workers)
			}
		}
	} else {
		for v := range r.owner {
			r.owner[v] = int32(v % cfg.Workers)
		}
	}
	r.collectSteps = cfg.CollectStepStats
	r.sink = cfg.Sink
	r.canonical = cfg.Canonical
	// A send-time fold is arrival-ordered, so canonical mode allows it
	// only to an ExactCombiner; everything else takes the pooled-arena
	// path and is sorted per vertex.
	if c := SendCombiner(prog, r.canonical); c != nil {
		r.comb = c
		r.inVal = make([]float64, n)
		r.inSet = make([]bool, n)
	} else {
		r.msgEnd = make([]int32, n)
		r.msgLen = make([]int32, n)
	}
	if a, ok := prog.(Aggregators); ok {
		for _, spec := range a.Aggregators() {
			r.aggs[spec.Name] = &aggregator{identity: spec.Identity, reduce: spec.Reduce, value: spec.Identity}
		}
	}
	// Worklists and staged-destination lists have exact capacity bounds
	// (a worker's worklist holds at most its owned vertices; a sender
	// stages at most one slot per destination vertex), so size them up
	// front and the superstep loop never grows a buffer.
	owned := make([]int, cfg.Workers)
	for _, o := range r.owner {
		owned[o]++
	}
	r.workers = make([]*worker, cfg.Workers)
	for w := range r.workers {
		wk := &worker{run: r, id: w, aggLocal: map[string]float64{}}
		if r.canonical {
			wk.aggList = map[string][]float64{}
		}
		wk.ctx = &Context{w: wk}
		wk.cur = make([]graph.VertexID, 0, owned[w])
		wk.next = make([]graph.VertexID, 0, owned[w])
		if r.comb != nil {
			wk.accVal = make([]float64, n)
			wk.accSet = make([]bool, n)
			wk.staged = make([][]graph.VertexID, cfg.Workers)
			for d := range wk.staged {
				wk.staged[d] = make([]graph.VertexID, 0, owned[d])
			}
		} else {
			wk.outbox = make([][]Message, cfg.Workers)
			wk.dirty = make([]graph.VertexID, 0, owned[w])
		}
		r.workers[w] = wk
	}
	return r, nil
}

// enqueue puts v on its owner's next-superstep worklist if it is not
// already queued. Callers must be the goroutine owning v's range (or
// run single-threaded at init/inject time).
func (r *run) enqueue(v graph.VertexID) {
	if !r.queued[v] {
		r.queued[v] = true
		w := r.workers[r.owner[v]]
		w.next = append(w.next, v)
	}
}

// promote rotates the initial worklists into place: init/inject
// enqueue onto next, and the loop consumes cur.
func (r *run) promote() {
	for _, w := range r.workers {
		w.cur, w.next = w.next, w.cur
	}
}

// injectPending seeds a resumed run's inbox from a snapshot's pending
// messages. With a combiner, every message folds unconditionally into
// the dense slot — a checkpoint may legitimately carry several
// messages for one vertex (e.g. one written by an engine without
// sender-side combining), and Compute must still observe at most one
// folded value. Without a combiner, messages are counting-sorted into
// the owners' arenas exactly like a regular delivery.
func (r *run) injectPending(pending []Message) {
	if r.comb != nil {
		for _, m := range pending {
			if r.inSet[m.Dst] {
				r.inVal[m.Dst] = r.comb.Combine(r.inVal[m.Dst], m.Val)
			} else {
				r.inSet[m.Dst] = true
				r.inVal[m.Dst] = m.Val
				r.enqueue(m.Dst)
			}
		}
		return
	}
	for _, m := range pending {
		if r.msgLen[m.Dst] == 0 {
			w := r.workers[r.owner[m.Dst]]
			w.dirty = append(w.dirty, m.Dst)
			r.enqueue(m.Dst)
		}
		r.msgLen[m.Dst]++
	}
	for _, w := range r.workers {
		w.layoutArena()
	}
	for _, m := range pending {
		w := r.workers[r.owner[m.Dst]]
		w.arena[r.msgEnd[m.Dst]] = m.Val
		r.msgEnd[m.Dst]++
	}
}

// layoutArena sizes w.arena for the counts accumulated in run.msgLen
// over w.dirty and points msgEnd at each vertex's start offset; the
// fill pass then advances msgEnd to the end of each vertex's slice.
func (w *worker) layoutArena() {
	r := w.run
	total := 0
	for _, v := range w.dirty {
		r.msgEnd[v] = int32(total)
		total += int(r.msgLen[v])
	}
	if cap(w.arena) < total {
		w.arena = make([]float64, total, total+total/4)
	} else {
		w.arena = w.arena[:total]
	}
}

// loop drives supersteps until quiescence, pause, or the step limit.
func (r *run) loop(stopAfter, maxSupersteps int) (Result, error) {
	if maxSupersteps == 0 {
		maxSupersteps = 10_000
	}
	steps := 0
	for {
		if !r.anyWork() {
			return Result{Values: r.values, Stats: r.stats(), StepStats: r.stepStats}, nil
		}
		if r.interrupted() {
			return Result{Stats: r.stats()}, ErrInterrupted
		}
		if r.superstep >= maxSupersteps {
			return Result{}, fmt.Errorf("engine: %s exceeded %d supersteps", r.prog.Name(), maxSupersteps)
		}
		if stopAfter > 0 && steps >= stopAfter {
			snap, err := r.snapshot()
			if err != nil {
				return Result{}, err
			}
			return Result{Values: r.values, Stats: r.stats(), StepStats: r.stepStats, Snapshot: snap}, ErrPaused
		}
		r.step()
		steps++
		if r.aborted.Load() {
			// A worker saw the cancellation mid-superstep: the step's
			// partial state is inconsistent and discarded.
			return Result{Stats: r.stats()}, ErrInterrupted
		}
	}
}

// interrupted reports (and latches) whether the run's context was
// cancelled at a barrier.
func (r *run) interrupted() bool {
	if r.done == nil {
		return false
	}
	select {
	case <-r.done:
		r.aborted.Store(true)
		return true
	default:
		return false
	}
}

// anyWork reports whether any worker has queued vertices — O(workers),
// not O(vertices).
func (r *run) anyWork() bool {
	for _, w := range r.workers {
		if len(w.cur) > 0 {
			return true
		}
	}
	return false
}

// step executes one superstep: parallel compute over the active
// worklists, then sharded message delivery and aggregator reduction at
// the barrier.
func (r *run) step() {
	comb := r.comb != nil
	var stepStart time.Time
	if r.sink != nil {
		stepStart = time.Now()
	}
	var wg sync.WaitGroup
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			ctx := w.ctx
			ctx.superstep = r.superstep
			for i, v := range w.cur {
				if r.done != nil && i&255 == 0 {
					select {
					case <-r.done:
						// Abandon the in-flight superstep: the run's
						// state is now inconsistent and the caller only
						// sees ErrInterrupted.
						r.aborted.Store(true)
						return
					default:
					}
				}
				r.queued[v] = false
				var msgs []float64
				if comb {
					if r.inSet[v] {
						r.inSet[v] = false
						msgs = r.inVal[v : v+1]
					}
				} else if n := r.msgLen[v]; n > 0 {
					end := r.msgEnd[v]
					msgs = w.arena[end-n : end]
					r.msgLen[v] = 0
					if r.canonical && n > 1 {
						// The arena slice is consumed this superstep, so
						// sorting in place is safe; Compute then folds a
						// canonically ordered multiset.
						sort.Float64s(msgs)
					}
				}
				r.active[v] = true // message receipt reactivates
				r.prog.Compute(ctx, v, msgs)
				w.calls++
				if r.active[v] && !r.queued[v] {
					r.queued[v] = true
					w.next = append(w.next, v)
				}
			}
			w.cur = w.cur[:0]
		}(w)
	}
	wg.Wait()
	if r.aborted.Load() {
		return
	}

	// Barrier: deliver staged messages. Each goroutine owns one
	// destination worker's vertex range, so inbox state, worklist
	// appends, and sender slot clears never race.
	var dg sync.WaitGroup
	for _, dw := range r.workers {
		dg.Add(1)
		go func(dw *worker) {
			defer dg.Done()
			if comb {
				dw.deliverCombined()
			} else {
				dw.deliverPooled()
			}
		}(dw)
	}
	dg.Wait()

	var stepSent, stepCalls, stepComb int64
	for _, w := range r.workers {
		stepSent += w.sent
		stepCalls += w.calls
		stepComb += w.comb
		r.sent += w.sent
		r.calls += w.calls
		r.remote += w.remote
		w.sent, w.calls, w.remote, w.comb = 0, 0, 0, 0
	}
	if r.collectSteps {
		r.stepStats = append(r.stepStats, StepStats{
			Superstep: r.superstep, Active: stepCalls, Messages: stepSent,
		})
	}
	for name, agg := range r.aggs {
		if r.canonical {
			// Merge every worker's raw contributions and fold them in
			// ascending value order: the reduction becomes a function of
			// the contribution multiset alone, independent of compute
			// order and worker count.
			merged := r.aggScratch[:0]
			for _, w := range r.workers {
				if lst := w.aggList[name]; len(lst) > 0 {
					merged = append(merged, lst...)
					w.aggList[name] = lst[:0]
				}
			}
			sort.Float64s(merged)
			val := agg.identity
			for i, c := range merged {
				if i == 0 {
					val = c
				} else {
					val = agg.reduce(val, c)
				}
			}
			agg.value = val
			r.aggScratch = merged[:0]
			continue
		}
		val := agg.identity
		contributed := false
		for _, w := range r.workers {
			if c, ok := w.aggLocal[name]; ok {
				if contributed {
					val = agg.reduce(val, c)
				} else {
					val = c
					contributed = true
				}
				delete(w.aggLocal, name)
			}
		}
		agg.value = val
	}
	for _, w := range r.workers {
		w.cur, w.next = w.next, w.cur
	}
	if r.sink != nil {
		var arena int64
		for _, w := range r.workers {
			arena += int64(len(w.arena)) * 8
		}
		r.sink.Emit(obs.Event{
			Type:       obs.EvSuperstep,
			Job:        r.prog.Name(),
			Superstep:  r.superstep + 1, // 1-based, so the last event equals Stats.Supersteps
			Active:     stepCalls,
			Messages:   stepSent,
			Combined:   stepComb,
			NsStep:     time.Since(stepStart).Nanoseconds(),
			ArenaBytes: arena,
		})
	}
	r.superstep++
}

// deliverCombined merges every sender's staged slots for dw's vertex
// range into the dense inbox, folding across senders in worker order,
// and clears the sender slots (distinct bytes per destination worker,
// so concurrent shards never touch the same memory).
func (dw *worker) deliverCombined() {
	r := dw.run
	for _, sw := range r.workers {
		staged := sw.staged[dw.id]
		for _, v := range staged {
			if r.inSet[v] {
				r.inVal[v] = r.comb.Combine(r.inVal[v], sw.accVal[v])
			} else {
				r.inSet[v] = true
				r.inVal[v] = sw.accVal[v]
				if !r.queued[v] {
					r.queued[v] = true
					dw.next = append(dw.next, v)
				}
			}
			sw.accSet[v] = false
		}
		sw.staged[dw.id] = staged[:0]
	}
}

// deliverPooled counting-sorts the messages addressed to dw's vertex
// range into dw's arena, preserving the (sender worker, send order)
// arrival order of the previous append-based inboxes, and recycles the
// consumed outboxes.
func (dw *worker) deliverPooled() {
	r := dw.run
	dw.dirty = dw.dirty[:0]
	for _, sw := range r.workers {
		for _, m := range sw.outbox[dw.id] {
			if r.msgLen[m.Dst] == 0 {
				dw.dirty = append(dw.dirty, m.Dst)
				if !r.queued[m.Dst] {
					r.queued[m.Dst] = true
					dw.next = append(dw.next, m.Dst)
				}
			}
			r.msgLen[m.Dst]++
		}
	}
	dw.layoutArena()
	for _, sw := range r.workers {
		box := sw.outbox[dw.id]
		for _, m := range box {
			dw.arena[r.msgEnd[m.Dst]] = m.Val
			r.msgEnd[m.Dst]++
		}
		sw.outbox[dw.id] = box[:0]
	}
}

func (r *run) stats() Stats {
	return Stats{Supersteps: r.superstep, MessagesSent: r.sent,
		ComputeCalls: r.calls, RemoteMessages: r.remote}
}

// FloatEqual is a helper for programs/tests comparing converged values.
// Equal values (including infinities) always compare true.
func FloatEqual(a, b, eps float64) bool { return a == b || math.Abs(a-b) <= eps }
