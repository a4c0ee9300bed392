// Package engine is a from-scratch Pregel-style BSP graph-processing
// engine — the stand-in for Apache Giraph in the paper's prototype
// (§7). Vertices hold a float64 value, exchange float64 messages in
// synchronous supersteps, and vote to halt; workers are goroutines
// that each run one partition of the vertex space. The engine supports
// combiners, aggregators, per-program auxiliary state, and
// whole-computation checkpoints that can be restored under a
// *different* worker count/partitioning — the property Hourglass's
// fast-reload recovery relies on.
//
// # Message plane
//
// There is one BSP kernel, Partition. The in-process engine runs one
// partition per worker over one shared graph and one shared set of
// vertex arrays; a dist shard (internal/dist) runs one partition of
// many and ships its remote slices over the peer mesh. Either way a
// superstep is: Begin (the worklist, in the order it was queued),
// Compute, the hand-off (each partition Takes what every partition in
// memory staged for it and is Delivered what arrives on the wire, then
// Settles), and one aggregator fold (Aggregates.Fold, which the dist
// coordinator calls too). The hot path is allocation-free after warm-up
// and its cost is proportional to the number of active vertices, not to
// the graph:
//
//   - Combiner programs declare a Fold (Sum or Min) that the kernel
//     applies inline: at Send time into a counted slot per destination
//     vertex (SendToNeighbors is one loop over the neighbour list);
//     after the worklist one pass routes the slots to outboxes and
//     tallies them, and the in-memory hand-off folds each listed slot
//     straight into the receiver's dense inbox and closes it. Only a
//     shipped batch is gathered into a slice.
//   - Non-combiner programs stage raw terms; delivery keeps the slices
//     and Settle counting-sorts them into a reusable flat arena, so
//     Compute receives a sub-slice of it.
//   - Active worklists replace the O(V) liveness scan: a vertex is
//     enqueued for the next superstep once, either when it stays
//     active after Compute or when its first message arrives, so
//     frontier algorithms (SSSP, BFS, WCC tails) pay only for the
//     frontier.
//
// Presence flags are []bool rather than packed bit sets, so setting one
// is a plain byte store, never a read-modify-write of a word shared with
// another partition's vertices (cache lines are shared; DESIGN.md §5).
package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hourglass/internal/graph"
	"hourglass/internal/obs"
)

// Context is the per-superstep view a Program's Compute sees. It is
// scoped to one partition and must not be retained across supersteps.
type Context struct {
	p         *Partition
	superstep int
}

// Superstep returns the current superstep number (0-based).
func (c *Context) Superstep() int { return c.superstep }

// Graph returns the input graph.
func (c *Context) Graph() *graph.Graph { return c.p.g }

// Value returns vertex v's current value.
func (c *Context) Value(v graph.VertexID) float64 { return c.p.values[v] }

// SetValue updates the value of a vertex owned by this partition.
// Programs must only set values of the vertex currently being computed.
func (c *Context) SetValue(v graph.VertexID, x float64) { c.p.values[v] = x }

// Send delivers a message to dst at the next superstep: folded into the
// partition's slot for dst under a combiner, else a raw term. Either way
// it is counted, so Stats.MessagesSent is independent of the transport.
// A slot shipped under ShipVia reopens; the receiver folds the partials.
func (c *Context) Send(dst graph.VertexID, val float64) {
	p := c.p
	if p.fold != 0 {
		s := &p.slots[dst]
		if s.n == 0 {
			p.staged = append(p.staged, dst)
		}
		s.add(p.fold, val)
		if len(p.staged) >= p.shipAt {
			p.staged = p.route(p.staged)
		}
		return
	}
	to := p.owner[dst]
	o := &p.out[to]
	o.dst = append(o.dst, dst)
	o.val = append(o.val, val)
	p.tally.Sent++
	if int(to) != p.id {
		p.tally.Remote++
		if len(o.dst) >= p.shipAt {
			p.Ship(int(to))
		}
	}
}

// SendToNeighbors broadcasts val to all out-neighbours of v: one Send
// per neighbour, in one loop on the combiner path (Partition.stage).
func (c *Context) SendToNeighbors(v graph.VertexID, val float64) {
	if c.p.fold != 0 {
		c.p.stage(c.p.g.Neighbors(v), val)
		return
	}
	for _, u := range c.p.g.Neighbors(v) {
		c.Send(u, val)
	}
}

// VoteToHalt deactivates v; an incoming message reactivates it.
func (c *Context) VoteToHalt(v graph.VertexID) { c.p.active[v] = false }

// Aggregate contributes to a named aggregator; the reduced value is
// visible through AggregatedValue in the *next* superstep.
func (c *Context) Aggregate(name string, val float64) {
	p := c.p
	a := p.aggs.index(name)
	if lst := p.contrib[a]; p.canonical || len(lst) == 0 {
		// Canonical mode keeps the raw terms: the barrier folds them
		// value-sorted, independent of compute order and partition count.
		p.contrib[a] = append(lst, val)
	} else {
		lst[0] = p.aggs.specs[a].Reduce(lst[0], val)
	}
}

// AggregatedValue returns the reduction of the previous superstep's
// contributions (the aggregator's identity before any contribution).
func (c *Context) AggregatedValue(name string) float64 {
	return c.p.aggs.vals[c.p.aggs.index(name)]
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
// cutting memory and exchange volume (Pregel's combiner). It declares
// its Fold rather than implementing one, so the kernel folds inline on
// every send and delivery. Programs whose Compute inspects individual
// messages (rather than a fold of them) must not implement it.
type Combiner interface {
	Fold() Fold
}

// Fold is how a Combiner merges two messages for one vertex.
type Fold uint8

const (
	// Sum adds them (PageRank's partial rank sums).
	Sum Fold = iota + 1
	// Min keeps the lesser (SSSP, WCC and BFS distances and labels).
	// Messages must not be NaN or -0.
	Min
)

// apply folds x into acc.
func (f Fold) apply(acc, x float64) float64 {
	if f == Sum {
		return acc + x
	}
	if x < acc {
		return x
	}
	return acc
}

// ExactCombiner marks a Combiner whose Fold is bit-exactly
// associative and commutative over the values the program sends: every
// fold order and every split into partial folds yields the same bits.
// min/max over floats qualify as they are; a float sum qualifies only
// when the program keeps every term (and every partial sum) on a grid
// where addition never rounds — see PageRank's share quantum.
//
// Declaring it lets Config.Canonical (and dist's Canonical) keep the
// sender-side combining path: results are bit-identical to the raw
// sorted path at combiner cost. A program whose fold rounds (a plain
// float sum) must not declare it; it keeps the raw path under Canonical.
type ExactCombiner interface {
	Combiner
	// ExactCombine is a marker; it is never called.
	ExactCombine()
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

// VertexAux is implemented by programs with per-vertex state beyond
// the single float64 value. Checkpoints carry it per vertex, so a
// resume — possibly under a different worker or shard count, each
// shard checkpointing only its owned vertices — overlays the entries
// onto a fresh InitAux. Marshalling must be deterministic (identical
// state → identical bytes) so checkpoints stay bit-identical across
// runs.
type VertexAux interface {
	// InitAux sizes the auxiliary state for the graph.
	InitAux(g *graph.Graph)
	// MarshalVertexAux serialises one vertex's auxiliary state.
	MarshalVertexAux(v graph.VertexID) []byte
	// UnmarshalVertexAux restores one vertex's auxiliary state onto
	// the InitAux baseline.
	UnmarshalVertexAux(v graph.VertexID, b []byte) error
}

// MaxSupersteps is the superstep count past which an execution is
// aborted as runaway.
const MaxSupersteps = 10_000

// Config controls an execution.
type Config struct {
	// Workers is the number of worker goroutines (≥1).
	Workers int
	// Assign maps vertex→worker; nil assigns v to worker v % Workers.
	Assign []int32
	// StopAfter pauses RunCtx and Resume after this many additional
	// supersteps, returning ErrPaused with a resumable snapshot (0 = run
	// to completion). Step ignores it.
	StopAfter int
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

// ErrInterrupted is returned by RunCtx when the context is
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

// Result of a run.
type Result struct {
	Values []float64
	Stats  Stats
	// Snapshot is non-nil when the run was paused (ErrPaused).
	Snapshot *Snapshot
}

// Execution is one live in-process run — N partitions over one kernel
// — standing at a superstep barrier. Step runs it one superstep at a
// time; between Steps the caller may checkpoint it (Snapshot) or drop
// it. RunCtx and Resume step one to the end; the runtime driver keeps
// one live across its plan boundaries and checkpoints it at its
// cadence.
type Execution struct {
	*kernel
	superstep int
	stats     Stats
	sink      obs.Sink
	contribs  [][][]float64 // each partition's Contribs, for the barrier fold
	wg        sync.WaitGroup

	// done aborts the run when closed (the ctx of Start/StartFrom);
	// aborted is set by whichever goroutine observes the cancellation
	// first.
	done    <-chan struct{}
	aborted atomic.Bool
}

// Run executes prog on g under cfg, starting from scratch.
func Run(g *graph.Graph, prog Program, cfg Config) (Result, error) {
	return RunCtx(context.Background(), g, prog, cfg)
}

// RunCtx is Run with cancellation: once ctx is done the engine abandons
// the in-flight superstep (partitions poll every 256 vertices, Step
// polls at every barrier) and returns ErrInterrupted.
func RunCtx(ctx context.Context, g *graph.Graph, prog Program, cfg Config) (Result, error) {
	r, err := Start(ctx, g, prog, cfg)
	if err != nil {
		return Result{}, err
	}
	return r.finish(cfg.StopAfter)
}

// Resume continues a paused or checkpointed execution. The config may
// use a different worker count or partitioning than the one that
// produced the snapshot — vertex state is location-independent.
func Resume(g *graph.Graph, prog Program, snap *Snapshot, cfg Config) (Result, error) {
	r, err := StartFrom(context.Background(), g, prog, snap, cfg)
	if err != nil {
		return Result{}, err
	}
	return r.finish(cfg.StopAfter)
}

// Start prepares prog on g under cfg from scratch, standing at the
// barrier before superstep 0. Cancelling ctx interrupts it (see
// RunCtx).
func Start(ctx context.Context, g *graph.Graph, prog Program, cfg Config) (*Execution, error) {
	r, err := newRun(ctx, g, prog, cfg)
	if err != nil {
		return nil, err
	}
	r.init()
	return r, nil
}

// StartFrom is Start at the barrier snap was taken at (see Resume).
func StartFrom(ctx context.Context, g *graph.Graph, prog Program, snap *Snapshot, cfg Config) (*Execution, error) {
	if snap == nil {
		return nil, errors.New("engine: nil snapshot")
	}
	n, aux := snap.extent()
	if n != g.NumVertices() {
		return nil, fmt.Errorf("engine: snapshot for %d vertices, graph has %d", n, g.NumVertices())
	}
	if snap.Program != prog.Name() {
		return nil, fmt.Errorf("engine: snapshot of %q cannot resume %q", snap.Program, prog.Name())
	}
	if _, ok := prog.(VertexAux); ok && !aux {
		return nil, fmt.Errorf("engine: snapshot of %q carries no aux state", snap.Program)
	}
	r, err := newRun(ctx, g, prog, cfg)
	if err != nil {
		return nil, err
	}
	if err := r.restore(snap.blobs, snap.Superstep); err != nil {
		return nil, err
	}
	r.aggs.Set(snap.aggs)
	r.superstep = snap.Superstep
	r.stats.Supersteps = snap.Superstep
	return r, nil
}

func newRun(ctx context.Context, g *graph.Graph, prog Program, cfg Config) (*Execution, error) {
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("engine: workers = %d", cfg.Workers)
	}
	owner := cfg.Assign
	if owner == nil {
		owner = make([]int32, g.NumVertices())
		for v := range owner {
			owner[v] = int32(v % cfg.Workers)
		}
	}
	k, err := newKernel(g, prog, owner, cfg.Workers, cfg.Canonical, sequence(cfg.Workers)...)
	if err != nil {
		return nil, err
	}
	r := &Execution{kernel: k, sink: cfg.Sink, done: ctx.Done()}
	for _, p := range k.parts {
		r.contribs = append(r.contribs, p.contrib)
	}
	return r, nil
}

func sequence(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// finish steps the run until it is quiescent, fails, or has run
// stopAfter supersteps with work left (0 = no limit): then it pauses
// with a resumable snapshot.
func (r *Execution) finish(stopAfter int) (Result, error) {
	for steps := 0; ; steps++ {
		if stopAfter > 0 && steps >= stopAfter && r.anyWork() {
			return Result{Values: r.values, Stats: r.stats, Snapshot: r.Snapshot()}, ErrPaused
		}
		more, err := r.Step()
		switch {
		case err != nil:
			return Result{Stats: r.stats}, err
		case !more:
			return r.Result(), nil
		}
	}
}

// Step runs the superstep after the barrier the run stands at and
// reports whether the run goes on past the barrier it reaches. It
// returns false once the run is quiescent — Result then holds its
// output, and further Steps run nothing — or when it fails:
// ErrInterrupted once ctx is done, or the superstep limit. A superstep
// is two waves over the partitions: compute in parallel, then the
// barrier hand-off, where each goroutine takes the slices every
// partition staged for its own vertices, in partition order — so inbox
// state, worklist appends and sender slot clears never race.
func (r *Execution) Step() (bool, error) {
	switch {
	case !r.anyWork():
		return false, nil
	case r.interrupted():
		return false, ErrInterrupted
	case r.superstep >= MaxSupersteps:
		return false, fmt.Errorf("engine: %s exceeded %d supersteps", r.prog.Name(), MaxSupersteps)
	}
	var start time.Time
	if r.sink != nil {
		start = time.Now()
	}
	r.parallel((*Execution).compute)
	if r.aborted.Load() {
		// A partition saw the cancellation mid-superstep: the step's
		// partial state is inconsistent and discarded.
		return false, ErrInterrupted
	}
	r.parallel((*Execution).handOff)
	r.account(start)
	return r.anyWork(), nil
}

// Result is the run's vertex values and stats at its barrier — the
// output once Step reported it quiescent. For a run started from a
// snapshot the stats count from there (see Stats).
func (r *Execution) Result() Result { return Result{Values: r.values, Stats: r.stats} }

// parallel runs f on every partition at once and waits for them.
func (r *Execution) parallel(f func(r *Execution, p *Partition)) {
	for _, p := range r.parts {
		r.wg.Add(1)
		go func(p *Partition) {
			defer r.wg.Done()
			f(r, p)
		}(p)
	}
	r.wg.Wait()
}

// compute runs p's worklist, polling for cancellation every 256
// vertices.
func (r *Execution) compute(p *Partition) {
	for left := p.Begin(r.superstep); left > 0; left = p.Compute(256) {
		if r.done != nil && r.interrupted() {
			return
		}
	}
}

// handOff gives dp what every partition staged for it, then frees it.
func (r *Execution) handOff(dp *Partition) {
	for _, sp := range r.parts {
		dp.Take(sp)
	}
	dp.Settle()
	for _, sp := range r.parts {
		sp.Release(dp.id)
	}
}

// interrupted reports (and latches) whether the run's context was
// cancelled.
func (r *Execution) interrupted() bool {
	select {
	case <-r.done:
		r.aborted.Store(true)
		return true
	default:
		return false
	}
}

// anyWork reports whether any partition has queued vertices —
// O(partitions), not O(vertices).
func (r *Execution) anyWork() bool {
	for _, p := range r.parts {
		if p.Frontier() > 0 {
			return true
		}
	}
	return false
}

// account closes a superstep begun at start: the partitions' tallies
// join the run's stats, the aggregators fold, and the sink hears of it.
func (r *Execution) account(start time.Time) {
	var step Tally
	var arena int64
	for _, p := range r.parts {
		t := p.Tally()
		step.Calls += t.Calls
		step.Sent += t.Sent
		step.Combined += t.Combined
		r.stats.RemoteMessages += t.Remote
		arena += int64(len(p.arena)) * 8
	}
	r.stats.MessagesSent += step.Sent
	r.stats.ComputeCalls += step.Calls
	r.aggs.Fold(r.canonical, r.contribs)
	r.superstep++
	r.stats.Supersteps = r.superstep
	if r.sink != nil {
		r.sink.Emit(obs.Event{
			Type:       obs.EvSuperstep,
			Job:        r.prog.Name(),
			Superstep:  r.superstep, // 1-based, so the last event equals Stats.Supersteps
			Active:     step.Calls,
			Messages:   step.Sent,
			Combined:   step.Combined,
			NsStep:     time.Since(start).Nanoseconds(),
			ArenaBytes: arena,
		})
	}
}

// FloatEqual is a helper for programs/tests comparing converged values.
// Equal values (including infinities) always compare true.
func FloatEqual(a, b, eps float64) bool { return a == b || math.Abs(a-b) <= eps }
