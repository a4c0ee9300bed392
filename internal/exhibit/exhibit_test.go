package exhibit

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hourglass"
)

// The shape tests check each claim EXPERIMENTS.md makes of an exhibit.
// By default they run at reduced counts and scales so that go test ./...
// stays quick; -exhibit-full runs them at the published values:
//
//	go test ./internal/exhibit/ -exhibit-full -timeout 60m
//
// A claim that only holds for a sample of the published size is marked
// full-only below and checked under -exhibit-full alone.
var full = flag.Bool("exhibit-full", false, "check the shape claims at EXPERIMENTS.md's run counts and scales")

// The simulated exhibits at the reduced counts below are also pinned
// byte for byte under testdata/, so a change to the simulator shows
// every cell it moves. After an intended change, regenerate them with
//
//	go test ./internal/exhibit/ -run 'Figure1|Figure5|Ablations' -update-golden
//
// and name each moved cell and its cause.
var updateGolden = flag.Bool("update-golden", false, "rewrite the exhibit goldens under testdata/")

// checkGolden compares the rendered tables with testdata/<name>.golden.
// Columns named "time" hold wall-clock measurements and render blank.
// Under -exhibit-full the tables are not the pinned reduced ones, so
// nothing is compared.
func checkGolden(t *testing.T, name string, tables []Table) {
	t.Helper()
	if *full {
		return
	}
	blanked := make([]Table, len(tables))
	for i, tab := range tables {
		tab.Rows = append([]Row(nil), tab.Rows...)
		for r := range tab.Rows {
			vals := append([]float64(nil), tab.Rows[r].Vals...)
			for c, col := range tab.Cols {
				if col.Name == "time" {
					vals[c] = math.NaN()
				}
			}
			tab.Rows[r].Vals = vals
		}
		blanked[i] = tab
	}
	var b bytes.Buffer
	if err := Render(&b, blanked); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("%s drifted from %s:\n%s\nwant:\n%s", name, path, b.Bytes(), want)
	}
}

// build computes an exhibit at the given reduced runs and scale, or at
// its published values under -exhibit-full.
func build(t *testing.T, name string, runs int, scale float64) []Table {
	t.Helper()
	ex, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p := ex.Params(runs, scale, Seed)
	if *full {
		p = ex.Params(0, 0, Seed)
	}
	tables, err := ex.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return tables
}

// Table 2: every stand-in is non-empty, and RMAT-N has exactly 2^N
// vertices.
func TestTable2Shape(t *testing.T) {
	t.Parallel()
	for _, r := range build(t, "table2", 0, 0.02)[0].Rows {
		paperV, genV, genE := r.Vals[0], r.Vals[2], r.Vals[3]
		if genV == 0 || genE == 0 {
			t.Errorf("%s: generated %v vertices, %v edges", r.Label, genV, genE)
		}
		if strings.HasPrefix(r.Label, "rmat") && genV != paperV {
			t.Errorf("%s: generated %v vertices, want exactly %v", r.Label, genV, paperV)
		}
	}
}

// Figure 1: eager misses deadlines, the three Hourglass bars miss none,
// and each Hourglass step (slack-aware, then fast reload) costs less.
func TestFigure1Shape(t *testing.T) {
	t.Parallel()
	tabs := build(t, "1", 2, 0)
	checkGolden(t, "figure1", tabs)
	rows := tabs[0].Rows
	if rows[0].Vals[1] == 0 {
		t.Errorf("eager misses no deadline")
	}
	for _, r := range rows[1:] {
		if r.Vals[1] != 0 {
			t.Errorf("%s misses %.0f%% of deadlines", r.Label, r.Vals[1])
		}
	}
	if naive, sa, fast := rows[1].Vals[0], rows[2].Vals[0], rows[3].Vals[0]; !(naive > sa && sa > fast) {
		t.Errorf("cost not naive > slack-aware > fast reload: %.2f, %.2f, %.2f", naive, sa, fast)
	}
}

// Figure 5: Hourglass and the +DP wrappers miss nothing in any cell.
// Full-only: Proteus and SpotOn miss at every slack up to 30% (a one-run
// cell of a 39% miss rate can read 0).
func TestFigure5Shape(t *testing.T) {
	t.Parallel()
	tabs := build(t, "5", 1, 0)
	checkGolden(t, "figure5", tabs)
	for _, tab := range tabs {
		for _, r := range tab.Rows {
			greedy := r.Label == string(hourglass.StrategyProteus) || r.Label == string(hourglass.StrategySpotOn)
			for s := 0; s < 10; s++ {
				missed := r.Vals[2*s+1]
				if !greedy && missed > 0 {
					t.Errorf("%s: %s misses %.0f%% at %s slack", tab.Title, r.Label, missed, tab.Cols[2*s].Name)
				}
				if greedy && *full && s < 3 && missed == 0 {
					t.Errorf("%s: %s misses nothing at %s slack", tab.Title, r.Label, tab.Cols[2*s].Name)
				}
			}
		}
	}
}

// Figure 6: the Micro loader is the fastest at every point and never
// slows down as machines are added. Full-only: the exhibit's RMAT
// graphs are fixed-size, so it cannot shrink below ~10 s.
func TestFigure6Shape(t *testing.T) {
	if !*full {
		t.Skip("full-only: run with -exhibit-full")
	}
	t.Parallel()
	for _, tab := range build(t, "6", 0, 0) {
		stream, hash, micro := tab.Rows[0].Vals, tab.Rows[1].Vals, tab.Rows[2].Vals
		for k := range micro {
			if micro[k] >= stream[k] || micro[k] >= hash[k] || (k > 0 && micro[k] > micro[k-1]) {
				t.Errorf("%s: Micro Loader %.3fs at %s machines", tab.Title, micro[k], tab.Cols[k].Name)
			}
		}
	}
}

// Figure 7: micro-partitioning costs less than per-config METIS at
// every slack, and slack-aware beats SpotOn+DP at 10% slack.
func TestFigure7Shape(t *testing.T) {
	t.Parallel()
	tab := build(t, "7", 1, 0)[0]
	metis, micro, spoton := tab.Rows[0].Vals, tab.Rows[1].Vals, tab.Rows[2].Vals
	for s := range metis {
		if micro[s] >= metis[s] {
			t.Errorf("µMETIS %.2f ≥ METIS %.2f at %s slack", micro[s], metis[s], tab.Cols[s].Name)
		}
	}
	if micro[0] >= spoton[0] {
		t.Errorf("slack-aware %.2f ≥ SpotOn+DP %.2f at 10%% slack", micro[0], spoton[0])
	}
}

// Figure 8: clustering costs M-MICRO at most 5 and F-MICRO at most 8
// points of edge cut on average over k = 2…32 (the paper: 1.7–4.4 and
// 4.2–7.7), and both stay below random assignment at every k.
func TestFigure8Shape(t *testing.T) {
	t.Parallel()
	for _, tab := range build(t, "8", 0, 0.03) {
		direct, clustered, random := tab.Rows[0].Vals, tab.Rows[1].Vals, tab.Rows[2].Vals
		bound := 5.0
		if tab.Rows[0].Label == "FENNEL" {
			bound = 8
		}
		if d := degradation(direct, clustered); d > bound {
			t.Errorf("%s: degradation %.1f pts above %.0f", tab.Title, d, bound)
		}
		for k := range clustered {
			if clustered[k] >= random[k] {
				t.Errorf("%s: %s cut %.1f%% not below random at k = %s", tab.Title, tab.Rows[1].Label, clustered[k], tab.Cols[k].Name)
			}
		}
	}
}

// Figure 9: wherever the exact solver finishes, the approximation is
// within 3% of its cost; it finishes for SSSP at every slack and for
// GC at none.
func TestFigure9Shape(t *testing.T) {
	t.Parallel()
	tabs := build(t, "9", 0, 0)
	for _, tab := range tabs {
		for _, r := range tab.Rows {
			if r.Vals[2] > 3 {
				t.Errorf("%s: DFO %.1f%% at %s slack", tab.Title, r.Vals[2], r.Label)
			}
		}
	}
	for _, r := range tabs[0].Rows {
		if math.IsNaN(r.Vals[0]) {
			t.Errorf("sssp: exact solver does not finish at %s slack", r.Label)
		}
	}
	for _, r := range tabs[2].Rows {
		if !math.IsNaN(r.Vals[0]) {
			t.Errorf("graphcoloring: exact solver finishes at %s slack", r.Label)
		}
	}
}

// The ablations' stated directions: the Daly interval is the cheapest;
// a warning lowers cost and neither setting misses; relaxed Hourglass
// saves at the price of misses while strict misses none; bisection cuts
// within 2 points of k-way; a 2× bid trades fewer evictions for a
// higher cost. Full-only: the Daly and warning cost orderings, which
// differ by under 3% and need the published 30 runs.
func TestAblationsShape(t *testing.T) {
	t.Parallel()
	tabs := build(t, "ablations", 3, 0.05)
	checkGolden(t, "ablations", tabs)
	daly, warn, relaxed, bisect, bid := tabs[0].Rows, tabs[1].Rows, tabs[2].Rows, tabs[3].Rows, tabs[4].Rows
	if *full && (daly[1].Vals[0] > daly[0].Vals[0] || daly[1].Vals[0] > daly[2].Vals[0]) {
		t.Errorf("Daly ×1 costs %.4f, ×0.25 %.4f, ×4 %.4f", daly[1].Vals[0], daly[0].Vals[0], daly[2].Vals[0])
	}
	if *full && warn[1].Vals[0] >= warn[0].Vals[0] {
		t.Errorf("a 120 s warning costs %.4f, none %.4f", warn[1].Vals[0], warn[0].Vals[0])
	}
	if warn[0].Vals[1]+warn[1].Vals[1] != 0 {
		t.Errorf("warning ablation misses %.0f%% / %.0f%%", warn[0].Vals[1], warn[1].Vals[1])
	}
	if relaxed[1].Vals[0] >= relaxed[0].Vals[0] || relaxed[1].Vals[1] == 0 || relaxed[0].Vals[1] != 0 {
		t.Errorf("relaxed costs %.4f (missed %.0f%%), strict %.4f (missed %.0f%%)",
			relaxed[1].Vals[0], relaxed[1].Vals[1], relaxed[0].Vals[0], relaxed[0].Vals[1])
	}
	if bisect[1].Vals[0]-bisect[0].Vals[0] > 2 {
		t.Errorf("bisection cuts %.1f%%, k-way %.1f%%", bisect[1].Vals[0], bisect[0].Vals[0])
	}
	if bid[1].Vals[1] >= bid[0].Vals[1] || bid[1].Vals[0] <= bid[0].Vals[0] {
		t.Errorf("bid ×2 costs %.4f with %.2f evictions, ×1 %.4f with %.2f",
			bid[1].Vals[0], bid[1].Vals[1], bid[0].Vals[0], bid[0].Vals[1])
	}
}

// The guarantee sweep: no never-miss strategy misses a deadline.
// Full-only: at reduced counts Figure 5's test checks the same
// strategies, and CI runs hourglass-sim -fig verify -runs 5.
func TestGuaranteeShape(t *testing.T) {
	if !*full {
		t.Skip("full-only: run with -exhibit-full")
	}
	t.Parallel()
	build(t, "verify", 0, 0)
}

// The guarantee sweep fails, listing the misses, for plain Proteus,
// which misses at small slacks.
func TestSweepReportsMisses(t *testing.T) {
	t.Parallel()
	tabs, err := Sweep(Params{Runs: 1, Seed: Seed}, hourglass.StrategyProteus)
	if err == nil {
		t.Fatal("a sweep over plain Proteus reports no failure")
	}
	if tabs[0].Rows[0].Vals[0] == 0 || !strings.HasPrefix(tabs[0].Notes[0], "MISS proteus sssp") {
		t.Errorf("sweep over Proteus: %v, notes %q", tabs[0].Rows[0].Vals, tabs[0].Notes[0])
	}
}

func TestRender(t *testing.T) {
	var b bytes.Buffer
	err := Render(&b, []Table{{
		Title: "T", Stub: "k", Cols: []Col{{Name: "cut", Fmt: "%.1f%%", NA: "-"}, {Name: "n", Fmt: "%.0f", NA: "DNF"}},
		Rows:  []Row{{"a", []float64{1.25, math.NaN()}}, {"bb", []float64{math.NaN(), 12}}},
		Notes: []string{"note"},
	}, {Title: "U", Stub: "x"}})
	if err != nil {
		t.Fatal(err)
	}
	want := "T\n" +
		"  k    cut    n\n" +
		"  a   1.2%  DNF\n" +
		"  bb     -   12\n" +
		"note\n" +
		"\n" +
		"U\n  x\n"
	if b.String() != want {
		t.Errorf("Render:\n%s\nwant:\n%s", b.String(), want)
	}
}
