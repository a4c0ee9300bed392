// Package exhibit defines each table and figure of the paper's
// evaluation (§8), the ablations beyond it and the zero-miss guarantee
// sweep, once: an Exhibit computes its tables from a run count and a
// dataset scale. cmd/hourglass-sim prints them, and the shape tests
// check them against the claims of EXPERIMENTS.md.
package exhibit

import (
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"
	"unicode/utf8"

	"hourglass"
	"hourglass/internal/graph"
	"hourglass/internal/perfmodel"
)

// Seed is the market trace seed of every published exhibit.
const Seed = 42

// days is the length of the synthetic price months the paper's
// figures simulate; the ablations keep their own 8-day months.
const days = 10

// Params are what an exhibit varies between a quick check and the
// published run.
type Params struct {
	Runs  int     // simulations per cell
	Scale float64 // dataset scale factor
	Seed  int64   // market trace seed
}

// An Exhibit is one table or figure. Runs and Scale are the values of
// its EXPERIMENTS.md command line; 0 marks a parameter it does not use.
// Build's error may come with tables: the guarantee sweep returns both
// when a run misses its deadline.
type Exhibit struct {
	Name  string
	Runs  int
	Scale float64
	Build func(Params) ([]Table, error)
}

// All lists the exhibits in the order of the paper.
var All = []Exhibit{
	{"table2", 0, 0.1, table2},
	{"1", 200, 0, figure1},
	{"5", 100, 0, figure5},
	{"6", 0, 0.25, figure6},
	{"7", 100, 0, figure7},
	{"8", 0, 0.15, figure8},
	{"9", 0, 0, figure9},
	{"ablations", 30, 0.15, ablations},
	{"verify", 60, 0, guarantee},
}

// ByName returns the named exhibit.
func ByName(name string) (Exhibit, error) {
	var names []string
	for _, e := range All {
		if e.Name == name {
			return e, nil
		}
		names = append(names, e.Name)
	}
	return Exhibit{}, fmt.Errorf("exhibit: unknown exhibit %q (one of %s)", name, strings.Join(names, ", "))
}

// Params returns the exhibit's published parameters, with runs and
// scale in their place where nonzero.
func (e Exhibit) Params(runs int, scale float64, seed int64) Params {
	if runs == 0 {
		runs = e.Runs
	}
	if scale == 0 {
		scale = e.Scale
	}
	return Params{Runs: runs, Scale: scale, Seed: seed}
}

// A Table is one panel of an exhibit: rows of numbers under named
// columns, and free-text notes printed under them.
type Table struct {
	Title string
	Stub  string // heading of the row-label column
	Cols  []Col
	Rows  []Row
	Notes []string
}

// A Col names a column and formats its cells; a NaN cell prints as NA.
type Col struct{ Name, Fmt, NA string }

// A Row is one labelled line of values, one per column.
type Row struct {
	Label string
	Vals  []float64
}

func cols(format string, names ...string) []Col {
	cs := make([]Col, len(names))
	for i, n := range names {
		cs[i] = Col{Name: n, Fmt: format, NA: "-"}
	}
	return cs
}

// Render prints the tables, separated by blank lines: row labels
// left-aligned, cells right-aligned under their column names.
func Render(w io.Writer, tables []Table) error {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(tw)
		}
		width := utf8.RuneCountInString(t.Stub)
		for _, r := range t.Rows {
			width = max(width, utf8.RuneCountInString(r.Label))
		}
		fmt.Fprintf(tw, "%s\n%-*s\t", t.Title, width, t.Stub)
		for _, c := range t.Cols {
			fmt.Fprint(tw, c.Name, "\t")
		}
		for _, r := range t.Rows {
			fmt.Fprintf(tw, "\n%-*s\t", width, r.Label)
			for c, v := range r.Vals {
				cell := fmt.Sprintf(t.Cols[c].Fmt, v)
				if math.IsNaN(v) {
					cell = t.Cols[c].NA
				}
				fmt.Fprint(tw, cell, "\t")
			}
		}
		fmt.Fprintln(tw)
		for _, n := range t.Notes {
			fmt.Fprintln(tw, n)
		}
	}
	return tw.Flush()
}

func system(p Params, traceDays float64, model *perfmodel.Model) (*hourglass.System, error) {
	return hourglass.New(hourglass.Options{Seed: p.Seed, TraceDays: traceDays, Model: model})
}

// dataset returns a Table 2 dataset by a name the exhibits spell out.
func dataset(name string) graph.Dataset {
	d, err := graph.ByName(name)
	if err != nil {
		panic(err)
	}
	return d
}
