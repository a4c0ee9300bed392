// Command graphgen writes the synthetic benchmark datasets as edge
// lists. Table 2 (their sizes) is `hourglass-sim -fig table2`.
//
// Usage:
//
//	graphgen -dataset twitter -scale 0.25 -out twitter.el
//	graphgen -rmat 18 -out rmat18.el
package main

import (
	"flag"
	"fmt"
	"os"

	"hourglass/internal/graph"
)

func main() {
	var (
		dataset = flag.String("dataset", "", "dataset to generate (human-gene, hollywood, orkut, wiki, twitter)")
		rmat    = flag.Int("rmat", 0, "generate RMAT-N instead of a named dataset")
		scale   = flag.Float64("scale", 1.0, "scale factor for the synthetic stand-in")
		out     = flag.String("out", "", "write edge list to this file (default stdout)")
	)
	flag.Parse()

	switch {
	case *rmat > 0:
		d := graph.RMATDataset(*rmat)
		emit(d, *scale, *out)
	case *dataset != "":
		d, err := graph.ByName(*dataset)
		if err != nil {
			fatal(err)
		}
		emit(d, *scale, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func emit(d graph.Dataset, scale float64, out string) {
	g := d.Generate(scale)
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteEdgeList(w, g); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: %d vertices, %d edges\n", d.Name, g.NumVertices(), g.NumLogicalEdges())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
