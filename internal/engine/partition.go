package engine

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"hourglass/internal/ckpt"
	"hourglass/internal/graph"
)

// kernel is what the partitions of one process share: the graph, the
// program, the assignment and one set of vertex-indexed arrays, each
// entry written only by the partition that owns the vertex. parts is
// indexed by partition id and is nil where a partition runs in another
// process (a dist shard holds one partition of many).
type kernel struct {
	g         *graph.Graph
	prog      Program
	fold      Fold // 0: every term travels raw
	aux       VertexAux
	canonical bool
	owner     []int32
	parts     []*Partition
	aggs      *Aggregates

	values []float64
	active []bool
	queued []bool // v is on its partition's next worklist

	// Combiner inbox: at most one folded value per vertex.
	inVal []float64
	inSet []bool
	// Raw inbox: v's messages are arena[msgEnd[v]-msgLen[v]:msgEnd[v]]
	// in the arena of v's partition.
	msgEnd []int32
	msgLen []int32
}

// outbox is what a partition staged in one superstep for one
// destination partition: destinations and their values, one folded
// value per destination on the combiner path.
type outbox struct {
	dst []int32
	val []float64
}

// slot stages a sender's values for one destination: their fold, the
// sends route has not tallied, and whether route has listed it in its
// outbox, where a ShipVia route leaves it open. A zero slot is closed.
type slot struct {
	val    float64
	n      int32
	listed bool
}

// add folds one send of x into the slot.
func (s *slot) add(f Fold, x float64) {
	if s.n++; s.n == 1 && !s.listed {
		s.val = x
	} else {
		s.val = f.apply(s.val, x)
	}
}

// Tally counts one partition's work in one superstep.
type Tally struct {
	Calls    int64 // Compute calls
	Sent     int64 // logical sends
	Combined int64 // sends folded into a value already staged
	Remote   int64 // sends to a vertex of another partition
}

// Partition is the one BSP kernel: it computes its share of a
// superstep and exchanges messages with the other partitions at the
// barrier as slices. The in-process engine runs N of them over one
// shared kernel; a dist shard runs one and ships the slices over the
// peer mesh. Per superstep the sequence is Begin, Compute until the
// worklist is done, then the hand-off: Take what every partition in
// memory staged for this one (its own included) and Deliver what
// arrives on the wire, Settle, and Release each taken outbox.
type Partition struct {
	*kernel
	id    int
	owned int // vertices assigned to this partition
	ctx   Context

	cur  []graph.VertexID // this superstep's worklist
	pos  int              // next index of cur to compute
	next []graph.VertexID // next superstep's worklist, deduped via queued

	// Send staging per destination partition. On the combiner path v's
	// slot waits on staged until route lists v in out[owner[v]].dst.
	out    []outbox
	slots  []slot
	staged []graph.VertexID
	ship   func(to int, dst []int32, val []float64)
	shipAt int

	// Raw inbox of this partition's vertices: the delivered slices wait
	// in pend until Settle lays them out in arena.
	arena []float64
	dirty []graph.VertexID
	pend  []outbox

	// contrib holds this superstep's aggregator contributions, indexed
	// like aggs: every raw term under canonical mode (the barrier folds
	// them value-sorted), otherwise one folded partial.
	contrib [][]float64
	tally   Tally
}

// sendFold returns the fold the kernel may combine with at send time,
// or 0 when every term must travel raw: any Combiner's outside
// canonical mode, only an ExactCombiner's inside it.
func sendFold(prog Program, canonical bool) Fold {
	if c, ok := prog.(ExactCombiner); ok {
		return c.Fold()
	}
	if c, ok := prog.(Combiner); ok && !canonical {
		return c.Fold()
	}
	return 0
}

// newKernel builds the shared state of parts partitions over g under
// owner and the local partitions named by ids.
func newKernel(g *graph.Graph, prog Program, owner []int32, parts int, canonical bool, ids ...int) (*kernel, error) {
	n := g.NumVertices()
	if len(owner) != n {
		return nil, fmt.Errorf("engine: assignment length %d for %d vertices", len(owner), n)
	}
	owned := make([]int, parts)
	for v, o := range owner {
		if o < 0 || int(o) >= parts {
			return nil, fmt.Errorf("engine: vertex %d assigned to partition %d of %d", v, o, parts)
		}
		owned[o]++
	}
	k := &kernel{
		g: g, prog: prog, fold: sendFold(prog, canonical), canonical: canonical, owner: owner,
		parts:  make([]*Partition, parts),
		aggs:   NewAggregates(prog),
		values: make([]float64, n),
		active: make([]bool, n),
		queued: make([]bool, n),
	}
	if k.fold > Min {
		return nil, fmt.Errorf("engine: %s declares unknown fold %d", prog.Name(), k.fold)
	}
	if k.fold != 0 {
		k.inVal, k.inSet = make([]float64, n), make([]bool, n)
	} else {
		k.msgEnd, k.msgLen = make([]int32, n), make([]int32, n)
	}
	if aux, ok := prog.(VertexAux); ok {
		// Derived from the topology alone, so every process initialises
		// the whole graph's; only local vertices' entries ever change.
		aux.InitAux(g)
		k.aux = aux
	}
	for _, id := range ids {
		p := &Partition{kernel: k, id: id, owned: owned[id], out: make([]outbox, parts),
			shipAt: math.MaxInt, contrib: make([][]float64, len(k.aggs.specs))}
		p.ctx.p = p
		// Worklists, the staging list and outboxes are sized to what they
		// can hold, so none grows in the superstep loop.
		p.cur = make([]graph.VertexID, 0, owned[id])
		p.next = make([]graph.VertexID, 0, owned[id])
		if k.fold != 0 {
			p.slots, p.staged = make([]slot, n), make([]graph.VertexID, 0, n)
			for d := range p.out {
				p.out[d] = outbox{make([]int32, 0, owned[d]), make([]float64, 0, owned[d])}
			}
		}
		k.parts[id] = p
	}
	return k, nil
}

// NewPartition builds partition id of parts over g, owner mapping every
// vertex to its partition — the kernel of one dist shard. The other
// partitions run elsewhere; their vertices' values are only ever those
// of Init or a restored checkpoint.
func NewPartition(g *graph.Graph, prog Program, owner []int32, id, parts int, canonical bool) (*Partition, error) {
	if id < 0 || id >= parts {
		return nil, fmt.Errorf("engine: partition %d of %d", id, parts)
	}
	k, err := newKernel(g, prog, owner, parts, canonical, id)
	if err != nil {
		return nil, err
	}
	return k.parts[id], nil
}

// Init starts a fresh computation: every vertex takes its initial
// value, and the local partitions queue their initially active
// vertices.
func (p *Partition) Init() { p.kernel.init() }

func (k *kernel) init() {
	for v := range k.values {
		val, act := k.prog.Init(k.g, graph.VertexID(v))
		k.values[v] = val
		if q := k.parts[k.owner[v]]; q != nil && act {
			k.active[v] = true
			q.enqueue(graph.VertexID(v))
		}
	}
}

// Restore resumes into superstep from a checkpoint chain, oldest blob
// first, so newer (delta) blobs overlay older state. Every named
// vertex takes its value; local vertices also take activity and aux
// state, and pending messages from the blobs written at superstep.
// The chain may come from any partition count.
func (p *Partition) Restore(blobs []*ckpt.Blob, superstep int) error {
	return p.kernel.restore(blobs, superstep)
}

func (k *kernel) restore(blobs []*ckpt.Blob, superstep int) error {
	n := len(k.values)
	pend := make([]outbox, len(k.parts))
	for bi, b := range blobs {
		if !inRange(n, b.Vertex) || !inRange(n, b.PendDst) || !inRange(n, b.AuxVtx) {
			return fmt.Errorf("engine: checkpoint blob %d names a vertex outside 0..%d", bi, n-1)
		}
		if len(b.AuxVtx) > 0 && k.aux == nil {
			return fmt.Errorf("engine: checkpoint blob %d carries aux state for auxless program %q", bi, k.prog.Name())
		}
		for i, v := range b.Vertex {
			k.values[v] = b.Value[i]
			if k.parts[k.owner[v]] != nil {
				k.active[v] = b.Active[i]
			}
		}
		for i, v := range b.AuxVtx {
			if k.parts[k.owner[v]] == nil {
				continue
			}
			if err := k.aux.UnmarshalVertexAux(graph.VertexID(v), b.Aux[i]); err != nil {
				return fmt.Errorf("engine: checkpoint blob %d aux for vertex %d: %w", bi, v, err)
			}
		}
		if b.Superstep == superstep {
			for i, d := range b.PendDst {
				if o := k.owner[d]; k.parts[o] != nil {
					pend[o].dst = append(pend[o].dst, d)
					pend[o].val = append(pend[o].val, b.PendVal[i])
				}
			}
		}
	}
	for v, act := range k.active {
		if act {
			k.parts[k.owner[v]].enqueue(graph.VertexID(v))
		}
	}
	for id, q := range k.parts {
		if q != nil {
			// A checkpoint may carry several messages for one vertex
			// (e.g. one written without sender-side combining): Deliver
			// folds them all, so Compute still sees one value.
			q.Deliver(pend[id].dst, pend[id].val)
			q.Settle()
		}
	}
	return nil
}

func inRange(n int, vs []int32) bool {
	for _, v := range vs {
		if v < 0 || int(v) >= n {
			return false
		}
	}
	return true
}

// Export is the partition's barrier state before superstep as one full
// checkpoint blob: value, activity and aux state of every owned vertex,
// ascending, and each one's pending messages in arrival order. Shard
// and Parent are the caller's.
func (p *Partition) Export(superstep int) *ckpt.Blob { return p.kernel.export(superstep) }

// export is Export over every local partition.
func (k *kernel) export(superstep int) *ckpt.Blob {
	local := 0
	for _, q := range k.parts {
		if q != nil {
			local += q.owned
		}
	}
	b := &ckpt.Blob{Superstep: superstep, Full: true,
		Vertex: make([]int32, 0, local), Value: make([]float64, 0, local), Active: make([]bool, 0, local)}
	if k.aux != nil {
		b.AuxVtx, b.Aux = make([]int32, 0, local), make([][]byte, 0, local)
	}
	for v := range k.values {
		q := k.parts[k.owner[v]]
		if q == nil {
			continue
		}
		b.Vertex = append(b.Vertex, int32(v))
		b.Value = append(b.Value, k.values[v])
		b.Active = append(b.Active, k.active[v])
		if k.aux != nil {
			b.AuxVtx = append(b.AuxVtx, int32(v))
			b.Aux = append(b.Aux, append([]byte(nil), k.aux.MarshalVertexAux(graph.VertexID(v))...))
		}
		var pending []float64
		if k.fold != 0 {
			if k.inSet[v] {
				pending = k.inVal[v : v+1]
			}
		} else if n := k.msgLen[v]; n > 0 {
			pending = q.arena[k.msgEnd[v]-n : k.msgEnd[v]]
		}
		for _, x := range pending {
			b.PendDst = append(b.PendDst, int32(v))
			b.PendVal = append(b.PendVal, x)
		}
	}
	return b
}

// Aggregates is the aggregator table the partition's Context reads.
func (p *Partition) Aggregates() *Aggregates { return p.aggs }

// ShipVia hands ship a remote partition's staged messages during compute
// once they reach threshold entries; ship must not retain the slices.
func (p *Partition) ShipVia(threshold int, ship func(to int, dst []int32, val []float64)) {
	p.shipAt, p.ship = threshold, ship
}

// route moves the staged slots to their outboxes in staging order and
// tallies them, on the partition's goroutine, then ships full outboxes.
func (p *Partition) route(staged []graph.VertexID) []graph.VertexID {
	for _, d := range staged {
		s, to := &p.slots[d], p.owner[d]
		if !s.listed {
			p.out[to].dst = append(p.out[to].dst, d)
			p.tally.Combined-- // the send that opened the slot
		}
		n := int64(s.n)
		s.n, s.listed = 0, true
		p.tally.Sent, p.tally.Combined = p.tally.Sent+n, p.tally.Combined+n
		if int(to) != p.id {
			p.tally.Remote += n
		}
	}
	for to := range p.out { // after the loop: shipping closes slots still staged
		if to != p.id && len(p.out[to].dst) >= p.shipAt {
			p.Ship(to)
		}
	}
	return staged[:0]
}

// stage is Send to every vertex of dsts on the combiner path, with the
// slot state in locals. It checks the ShipVia threshold after every
// send, as Send does, so batches split at the same send.
func (p *Partition) stage(dsts []graph.VertexID, val float64) {
	slots, staged, fold, shipAt := p.slots, p.staged, p.fold, p.shipAt
	for _, d := range dsts {
		s := &slots[d]
		if s.n == 0 {
			staged = append(staged, d)
		}
		s.add(fold, val)
		if len(staged) >= shipAt {
			staged = p.route(staged)
		}
	}
	p.staged = staged
}

// Ship hands whatever is staged for partition to to the ShipVia hook.
func (p *Partition) Ship(to int) {
	if len(p.out[to].dst) > 0 {
		dst, val := p.Outbox(to)
		p.ship(to, dst, val)
		p.Release(to)
	}
}

// Outbox is what the partition staged this superstep for partition to:
// destinations and their values, ready to Deliver or ship. Call it once
// per hand-off, then Release.
func (p *Partition) Outbox(to int) ([]int32, []float64) {
	o := &p.out[to]
	if p.slots != nil {
		o.val = o.val[:0]
		for _, d := range o.dst {
			o.val = append(o.val, p.slots[d].val)
		}
	}
	return o.dst, o.val
}

// Release empties the outbox for partition to once it is shipped, or
// delivered and settled. The slots it frees belong to vertices of to,
// so the goroutines settling different partitions never share one.
func (p *Partition) Release(to int) {
	o := &p.out[to]
	if p.slots != nil {
		for _, d := range o.dst {
			p.slots[d].listed = false
		}
	}
	o.dst, o.val = o.dst[:0], o.val[:0]
}

// enqueue puts v on the next worklist once.
func (p *Partition) enqueue(v graph.VertexID) {
	if !p.queued[v] {
		p.queued[v] = true
		p.next = append(p.next, v)
	}
}

// Begin opens superstep s: the queued vertices become the worklist, in
// the order they were queued, and the tally and aggregator
// contributions restart. It reports the worklist length.
func (p *Partition) Begin(s int) int {
	p.cur, p.next, p.pos = p.next, p.cur[:0], 0
	p.ctx.superstep = s
	p.tally = Tally{}
	for a := range p.contrib {
		p.contrib[a] = p.contrib[a][:0]
	}
	return len(p.cur)
}

// Compute runs the program on up to n more vertices of the worklist and
// reports how many remain; when none do, it routes the staged sends.
func (p *Partition) Compute(n int) int {
	k, comb := p.kernel, p.fold != 0
	end := min(p.pos+n, len(p.cur))
	for _, v := range p.cur[p.pos:end] {
		k.queued[v] = false
		var msgs []float64
		if comb {
			if k.inSet[v] {
				k.inSet[v] = false
				msgs = k.inVal[v : v+1]
			}
		} else if n := k.msgLen[v]; n > 0 {
			end := k.msgEnd[v]
			msgs = p.arena[end-n : end]
			k.msgLen[v] = 0
			if k.canonical && n > 1 {
				// The inbox is consumed this superstep, so sorting in
				// place is safe; Compute then folds a canonically
				// ordered multiset.
				sort.Float64s(msgs)
			}
		}
		k.active[v] = true // message receipt reactivates
		k.prog.Compute(&p.ctx, v, msgs)
		if k.active[v] && !k.queued[v] {
			k.queued[v] = true
			p.next = append(p.next, v)
		}
	}
	p.tally.Calls += int64(end - p.pos)
	p.pos = end
	if end == len(p.cur) && len(p.staged) > 0 {
		p.staged = p.route(p.staged)
	}
	return len(p.cur) - end
}

// Tally is the superstep's work so far.
func (p *Partition) Tally() Tally { return p.tally }

// Contribs are the superstep's aggregator contributions, indexed like
// Aggregates: every raw term under canonical mode, otherwise at most
// one folded partial. They are valid until the next Begin.
func (p *Partition) Contribs() [][]float64 { return p.contrib }

// Deliver hands the partition messages for its vertices at the
// barrier, queueing each vertex on its first message. A combiner folds
// them at once; raw slices are kept, not copied, until Settle.
func (p *Partition) Deliver(dst []int32, val []float64) {
	if p.fold != 0 {
		for i, d := range dst {
			p.receive(d, val[i])
		}
		return
	}
	for _, d := range dst {
		if p.msgLen[d] == 0 {
			p.dirty = append(p.dirty, graph.VertexID(d))
			p.enqueue(graph.VertexID(d))
		}
		p.msgLen[d]++
	}
	p.pend = append(p.pend, outbox{dst, val})
}

// receive folds x into d's combiner inbox, queueing d on its first
// message.
func (p *Partition) receive(d int32, x float64) {
	if p.inSet[d] {
		p.inVal[d] = p.fold.apply(p.inVal[d], x)
	} else {
		p.inSet[d], p.inVal[d] = true, x
		p.enqueue(graph.VertexID(d))
	}
}

// Take is the in-memory hand-off of what from staged for the partition:
// Deliver of from.Outbox(p.id). On the combiner path it folds each
// listed slot straight into the inbox and closes it, leaving the outbox
// empty; raw slices wait for Settle, and from.Release(p.id) after it.
func (p *Partition) Take(from *Partition) {
	o := &from.out[p.id]
	if p.fold == 0 {
		p.Deliver(o.dst, o.val)
		return
	}
	for _, d := range o.dst {
		s := &from.slots[d]
		p.receive(d, s.val)
		s.listed = false
	}
	o.dst = o.dst[:0]
}

// Settle ends the barrier: raw messages are counting-sorted into the
// arena, each vertex's in delivery order.
func (p *Partition) Settle() {
	if p.fold == 0 {
		total := int32(0)
		for _, v := range p.dirty {
			p.msgEnd[v] = total
			total += p.msgLen[v]
		}
		if cap(p.arena) < int(total) {
			p.arena = make([]float64, total, total+total/4)
		}
		p.arena = p.arena[:total]
		for _, o := range p.pend {
			for i, d := range o.dst {
				p.arena[p.msgEnd[d]] = o.val[i]
				p.msgEnd[d]++
			}
		}
		p.dirty, p.pend = p.dirty[:0], p.pend[:0]
	}
}

// Value is vertex v's current value.
func (p *Partition) Value(v graph.VertexID) float64 { return p.values[v] }

// Frontier is the length of the next superstep's worklist.
func (p *Partition) Frontier() int { return len(p.next) }

// Aggregates is a program's aggregator table: the specs in name order
// and the reduced values the current superstep reads.
type Aggregates struct {
	specs  []AggregatorSpec
	names  []string
	vals   []float64
	merged []float64 // canonical fold scratch
}

// NewAggregates registers prog's aggregators at their identities.
func NewAggregates(prog Program) *Aggregates {
	a := &Aggregates{}
	if ag, ok := prog.(Aggregators); ok {
		a.specs = slices.Clone(ag.Aggregators())
	}
	slices.SortFunc(a.specs, func(x, y AggregatorSpec) int { return cmp.Compare(x.Name, y.Name) })
	for _, s := range a.specs {
		a.names = append(a.names, s.Name)
		a.vals = append(a.vals, s.Identity)
	}
	return a
}

// Index is the position of the named aggregator, or -1.
func (a *Aggregates) Index(name string) int { return slices.Index(a.names, name) }

// index is Index for a Context, which may only name registered
// aggregators.
func (a *Aggregates) index(name string) int {
	i := a.Index(name)
	if i < 0 {
		panic(fmt.Sprintf("engine: unregistered aggregator %q", name))
	}
	return i
}

// Names lists the aggregators in name order.
func (a *Aggregates) Names() []string { return a.names }

// Values snapshots the reduced values, name-sorted.
func (a *Aggregates) Values() ckpt.Aggs {
	return ckpt.Aggs{Names: a.names, Vals: slices.Clone(a.vals)}
}

// Set overlays reduced values; unregistered names are ignored.
func (a *Aggregates) Set(v ckpt.Aggs) {
	for i, name := range v.Names {
		if j := a.Index(name); j >= 0 {
			a.vals[j] = v.Vals[i]
		}
	}
}

// Fold is the one barrier reduction, run by the in-process engine and
// the dist coordinator alike: contribs[i][a] are partition i's
// contributions to aggregator a. Canonical mode merges every raw term
// and folds them value-sorted, so the result is a function of the
// multiset alone; otherwise the partials fold in partition order. A
// value is recomputed each superstep (the identity when nothing was
// contributed), never carried over.
func (a *Aggregates) Fold(canonical bool, contribs [][][]float64) {
	for j, spec := range a.specs {
		terms := a.merged[:0]
		for _, c := range contribs {
			terms = append(terms, c[j]...)
		}
		if canonical {
			sort.Float64s(terms)
		}
		val := spec.Identity
		for i, t := range terms {
			if i == 0 {
				val = t
			} else {
				val = spec.Reduce(val, t)
			}
		}
		a.vals[j] = val
		a.merged = terms[:0]
	}
}
