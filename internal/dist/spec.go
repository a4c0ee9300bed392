package dist

import (
	"encoding/json"
	"fmt"
	"sync"

	"hourglass/internal/engine"
	"hourglass/internal/graph"
)

// ProgramSpec names a bundled vertex program in a form that survives
// the wire: the coordinator and every shard instantiate their own copy
// from the same spec, so program state never has to be serialised.
//
// Programs with engine.VertexAux state are supported: each shard
// initialises the whole-graph aux from the topology, and the owned
// vertices' entries travel per-vertex in the checkpoint blobs
// (GraphColoring).
type ProgramSpec struct {
	Name       string  `json:"name"`
	Iterations int     `json:"iterations,omitempty"` // pagerank
	Damping    float64 `json:"damping,omitempty"`    // pagerank
	Source     int64   `json:"source,omitempty"`     // sssp, bfs
}

// New instantiates the named program.
func (s ProgramSpec) New() (engine.Program, error) {
	var p engine.Program
	switch s.Name {
	case "pagerank":
		it := s.Iterations
		if it <= 0 {
			it = 10
		}
		p = &engine.PageRank{Iterations: it, Damping: s.Damping}
	case "sssp":
		p = &engine.SSSP{Source: graph.VertexID(s.Source)}
	case "wcc":
		p = engine.WCC{}
	case "bfs":
		p = &engine.BFS{Source: graph.VertexID(s.Source)}
	case "graphcoloring":
		p = &engine.GraphColoring{}
	default:
		return nil, fmt.Errorf("dist: unknown program %q", s.Name)
	}
	return p, nil
}

// GraphSpec describes a deterministic RMAT input: the same spec builds
// the same graph on every process, so the topology never crosses the
// wire (the paper's workers likewise load their partitions from shared
// storage, not from the master).
type GraphSpec struct {
	Scale      int   `json:"scale"`
	Seed       int64 `json:"seed"`
	EdgeFactor int   `json:"edge_factor,omitempty"` // 0 = 16 (Graph500)
	Undirected bool  `json:"undirected,omitempty"`
	Weighted   bool  `json:"weighted,omitempty"`
}

// buildCache memoizes materialised graphs by spec. The topology is
// immutable (CSR with read-only accessors; vertex values live outside
// it), so every shard in a process — and every successive session of a
// recovering job — shares one build instead of regenerating the RMAT
// edge list per handshake. Generating scale 12 costs ~60 ms, an order
// of magnitude more than a mesh superstep, so the rebuild-per-session
// tax dominated both recovery latency and the dist benchmarks. The
// cache is never evicted: a process serves a handful of specs at most.
var buildCache sync.Map // GraphSpec → *graph.Graph

// Build materialises the graph (memoized per spec).
func (s GraphSpec) Build() (*graph.Graph, error) {
	if g, ok := buildCache.Load(s); ok {
		return g.(*graph.Graph), nil
	}
	if s.Scale <= 0 || s.Scale > 30 {
		return nil, fmt.Errorf("dist: graph scale %d out of range", s.Scale)
	}
	p := graph.DefaultRMAT(s.Scale, s.Seed)
	if s.EdgeFactor > 0 {
		p.EdgeFactor = s.EdgeFactor
	}
	p.Undirected = s.Undirected
	p.Weighted = s.Weighted
	g, _ := buildCache.LoadOrStore(s, graph.RMAT(p))
	return g.(*graph.Graph), nil
}

// marshalSpec / unmarshal helpers keep the JSON encoding in one place.
func marshalSpec(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("dist: encoding spec: %w", err)
	}
	return string(b), nil
}

func unmarshalProgramSpec(s string) (ProgramSpec, error) {
	var p ProgramSpec
	if err := json.Unmarshal([]byte(s), &p); err != nil {
		return p, fmt.Errorf("dist: decoding program spec: %w", err)
	}
	return p, nil
}

func unmarshalGraphSpec(s string) (GraphSpec, error) {
	var g GraphSpec
	if err := json.Unmarshal([]byte(s), &g); err != nil {
		return g, fmt.Errorf("dist: decoding graph spec: %w", err)
	}
	return g, nil
}
