package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph as whitespace-separated "src dst
// [weight]" lines, the format of SNAP / network-repository datasets
// referenced by the paper. Mirrored arcs of undirected graphs are
// written once (src < dst).
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var err error
	g.ForEachEdge(func(src, dst VertexID, weight float32) {
		if err != nil {
			return
		}
		if g.Undirected() && src > dst {
			return
		}
		if g.Weighted() {
			_, err = fmt.Fprintf(bw, "%d %d %g\n", src, dst, weight)
		} else {
			_, err = fmt.Fprintf(bw, "%d %d\n", src, dst)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadEdgeList parses an edge-list stream. Lines starting with '#' or
// '%' are comments. Vertex ids may be sparse; they are compacted to a
// dense [0, n) range preserving first-appearance order.
func ReadEdgeList(r io.Reader, opts ...BuilderOption) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	type rawEdge struct {
		src, dst int64
		w        float32
	}
	var raw []rawEdge
	remap := make(map[int64]VertexID)
	next := VertexID(0)
	intern := func(id int64) VertexID {
		if v, ok := remap[id]; ok {
			return v
		}
		v := next
		remap[id] = v
		next++
		return v
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected at least 2 fields, got %q", lineNo, line)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad src: %w", lineNo, err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: bad dst: %w", lineNo, err)
		}
		w := float32(1)
		if len(fields) >= 3 {
			f, err := strconv.ParseFloat(fields[2], 32)
			if err != nil {
				return nil, fmt.Errorf("graph: line %d: bad weight: %w", lineNo, err)
			}
			w = float32(f)
		}
		raw = append(raw, rawEdge{src, dst, w})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for _, e := range raw {
		intern(e.src)
		intern(e.dst)
	}
	b := NewBuilder(int(next), opts...)
	for _, e := range raw {
		b.AddEdge(remap[e.src], remap[e.dst], e.w)
	}
	return b.Build(), nil
}
