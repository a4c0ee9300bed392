// Package obs is Hourglass's shared observability layer: a metrics
// Registry (counters, gauges, histograms, labeled series, Prometheus
// text exposition) and a structured trace plane (typed Events, a
// ring-buffered Tracer, JSONL sinks, and a fold that summarises a
// trace back into the paper's Table-2-style cost/evictions/misses
// numbers).
//
// The package is dependency-free by design — the engine, simulator,
// scheduler and cloud substrates all publish through it, so it must
// not pull client libraries into the hot path. Publishers hold a Sink
// behind a nil check: a disabled sink costs nothing (no allocations,
// no calls) and an enabled one costs one Emit per event.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// Event is one structured trace record. A single flat schema covers
// every event type; unused fields marshal away under omitempty, so a
// JSONL line carries only the fields its type populates.
type Event struct {
	// Type discriminates the record (Ev* constants).
	Type string `json:"type"`
	// T is the event's virtual timestamp in seconds (sim events) or is
	// omitted for purely mechanical events (engine supersteps).
	T float64 `json:"t,omitempty"`
	// Job labels the emitting job or run ("pagerank", "job-3").
	Job string `json:"job,omitempty"`
	// Config is the deployment configuration id involved.
	Config string `json:"config,omitempty"`

	// Decision fields (EvDecision).
	ECUSD      float64 `json:"ec_usd,omitempty"`  // provisioner's expected cost estimate
	SlackSec   float64 `json:"slack_s,omitempty"` // slack remaining at the decision point
	WorkLeft   float64 `json:"work_left,omitempty"`
	Keep       bool    `json:"keep,omitempty"`        // keep the current deployment
	LastResort bool    `json:"last_resort,omitempty"` // chose the last-resort configuration

	// Lifecycle fields (EvDeploy/EvEvict/EvCheckpoint/EvDone/EvSpend).
	USD    float64 `json:"usd,omitempty"`   // spend delta (EvSpend) or total (EvDone)
	DurSec float64 `json:"dur_s,omitempty"` // span length (deploy: wait+boot+load, from T to the ready instant)
	Reload bool    `json:"reload,omitempty"`
	Missed bool    `json:"missed,omitempty"`
	Done   bool    `json:"done,omitempty"` // job finished (EvDone with Done=false = abandoned)

	// Engine superstep fields (EvSuperstep).
	Superstep  int   `json:"superstep,omitempty"`
	Active     int64 `json:"active,omitempty"`      // frontier size (compute calls)
	Messages   int64 `json:"messages,omitempty"`    // logical sends this step
	Combined   int64 `json:"combined,omitempty"`    // sends folded at the sender
	NsStep     int64 `json:"ns,omitempty"`          // wall nanoseconds for the step
	ArenaBytes int64 `json:"arena_bytes,omitempty"` // pooled inbox arena footprint

	// Distributed message-plane fields (EvSuperstep from a dist
	// coordinator, EvShardEvict on shard loss).
	Shard      int    `json:"shard,omitempty"`       // shard id (EvShardEvict)
	Proc       string `json:"proc,omitempty"`        // process identity: the worker set (EvDeploy) or the lost worker (EvShardEvict)
	WireFrames int64  `json:"wire_frames,omitempty"` // frames in+out this step
	WireBytes  int64  `json:"wire_bytes,omitempty"`  // bytes in+out this step

	// Retry fields (EvRetry).
	Attempts int    `json:"attempts,omitempty"`
	Err      string `json:"err,omitempty"`

	// Warm-standby recovery fields (EvWarning/EvStandby/EvCutover/
	// EvDeltaSave). Ready reports whether a standby set was projected
	// to boot inside the warning window; Chain is a delta checkpoint's
	// distance from its full ancestor (0 = full blob); DeltaBytes is
	// the delta-encoded footprint of a checkpoint whose full encoding
	// would have cost WireBytes.
	Ready      bool  `json:"ready,omitempty"`
	Chain      int   `json:"chain,omitempty"`
	DeltaBytes int64 `json:"delta_bytes,omitempty"`

	// Admission-control fields (EvAdmit/EvQueue/EvReject/EvPack/
	// EvRelease). Tenant labels the submitting tenant; Deployment is
	// the shared deployment a job was packed onto or released from;
	// QueuePos is the 1-based wait-queue position at enqueue time;
	// GapSec is how far an infeasible deadline falls short of the
	// minimum feasible one. EvAdmit reuses DurSec for the queue wait
	// of a promoted job (0 for jobs admitted immediately).
	Tenant     string  `json:"tenant,omitempty"`
	Deployment string  `json:"deployment,omitempty"`
	QueuePos   int     `json:"queue_pos,omitempty"`
	GapSec     float64 `json:"gap_s,omitempty"`
}

// Event types. The sim lifecycle mirrors Figure 2's execution flow;
// spend records are emitted once per billing charge so folding them in
// file order reproduces the run's cost accumulation bit-for-bit.
const (
	EvDecision   = "decision"
	EvDeploy     = "deploy"
	EvSpend      = "spend"
	EvEvict      = "evict"
	EvCheckpoint = "checkpoint"
	EvDone       = "done"
	EvSuperstep  = "superstep"
	EvRun        = "run"
	EvRetry      = "retry"
	// EvShardEvict marks a distributed shard worker declared dead by
	// the coordinator (connection loss or barrier-vote timeout).
	EvShardEvict = "shard_evict"
	// Warm-standby lifecycle (internal/runtime): an eviction warning
	// fires WarningWindow seconds ahead of the reclaim boundary; a
	// standby set is launched (or judged infeasible) in response; a
	// ready standby takes over at the boundary with near-zero boot.
	EvWarning = "warning"
	EvStandby = "standby"
	EvCutover = "cutover"
	// EvDeltaSave marks a checkpoint sealed as a delta manifest: only
	// changed vertices were encoded, Chain deep in the parent chain.
	EvDeltaSave = "delta_save"
	// Admission-control lifecycle (internal/admission): a submission is
	// admitted (and packed onto a deployment), parked in the wait
	// queue, or rejected; a placed job releases its deployment share
	// when it completes or is deleted.
	EvAdmit   = "admit"
	EvQueue   = "queue"
	EvReject  = "reject"
	EvPack    = "pack"
	EvRelease = "release"
)

// Sink receives events. Implementations must be safe for concurrent
// Emit calls; publishers guard every Emit behind a nil check so a nil
// Sink disables tracing for free.
type Sink interface {
	Emit(e Event)
}

// Finite sanitises a float for JSON encoding: NaN and ±Inf (legal
// sentinel costs inside the provisioner) marshal as 0.
func Finite(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return 0
	}
	return v
}

// Tracer is a fixed-capacity ring buffer of recent events with an
// optional downstream sink. It backs /debug/trace in the daemon: the
// ring answers "what just happened" without unbounded growth, while
// the downstream sink (a JSONL writer, say) keeps the full stream.
type Tracer struct {
	mu   sync.Mutex
	buf  []Event
	next int
	full bool
	out  Sink
}

// NewTracer builds a ring of the given capacity (min 1) forwarding
// every event to out when non-nil.
func NewTracer(capacity int, out Sink) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Event, capacity), out: out}
}

// Emit implements Sink.
func (t *Tracer) Emit(e Event) {
	t.mu.Lock()
	t.buf[t.next] = e
	t.next++
	if t.next == len(t.buf) {
		t.next = 0
		t.full = true
	}
	t.mu.Unlock()
	if t.out != nil {
		t.out.Emit(e)
	}
}

// Recent returns the ring's contents, oldest first.
func (t *Tracer) Recent() []Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.full {
		return append([]Event(nil), t.buf[:t.next]...)
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	return append(out, t.buf[:t.next]...)
}

// JSONL streams events as one JSON object per line. Safe for
// concurrent use; the first encoding error latches and suppresses
// further writes (check Err before trusting the output).
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL wraps w in a line-per-event sink.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit implements Sink.
func (j *JSONL) Emit(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.err = j.enc.Encode(e)
}

// Err returns the first write/encode error, if any.
func (j *JSONL) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// WriteJSONL writes events to w, one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for _, e := range events {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a JSONL trace. Blank lines are skipped; a malformed
// line fails with its line number so truncated traces are diagnosable.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(b, &e); err != nil {
			return events, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return events, fmt.Errorf("obs: reading trace: %w", err)
	}
	return events, nil
}

// Tee fans an event out to several sinks.
type Tee []Sink

// Emit implements Sink.
func (t Tee) Emit(e Event) {
	for _, s := range t {
		if s != nil {
			s.Emit(e)
		}
	}
}
