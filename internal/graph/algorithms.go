package graph

// Induced builds the subgraph induced by the given vertex set and
// returns it with the local→global mapping. Edge weights are carried
// over; edges leaving the set are dropped. The input order defines the
// local ids.
func (g *Graph) Induced(vertices []VertexID) (*Graph, []VertexID) {
	local := make(map[VertexID]VertexID, len(vertices))
	for i, v := range vertices {
		local[v] = VertexID(i)
	}
	opts := []BuilderOption{}
	if g.Weighted() {
		opts = append(opts, Weighted())
	}
	b := NewBuilder(len(vertices), opts...)
	for _, v := range vertices {
		lv := local[v]
		weights := g.EdgeWeights(v)
		for i, u := range g.Neighbors(v) {
			lu, ok := local[u]
			if !ok {
				continue
			}
			w := float32(1)
			if weights != nil {
				w = weights[i]
			}
			b.AddEdge(lv, lu, w)
		}
	}
	sub := b.Build()
	sub.undirected = g.undirected
	mapping := append([]VertexID(nil), vertices...)
	return sub, mapping
}
