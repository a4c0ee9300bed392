package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryScalars(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("hg_runs_total", "Runs.")
	r.Add("hg_runs_total", 0) // pre-register
	r.Inc("hg_runs_total")
	r.Add("hg_runs_total", 2)
	r.SetGauge("hg_active", 7)
	if v := r.Value("hg_runs_total"); v != 3 {
		t.Errorf("counter = %v, want 3", v)
	}
	if v := r.Value("hg_active"); v != 7 {
		t.Errorf("gauge = %v, want 7", v)
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP hg_runs_total Runs.",
		"# TYPE hg_runs_total counter",
		"hg_runs_total 3",
		"# TYPE hg_active gauge",
		"hg_active 7",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryLabeledSeries(t *testing.T) {
	r := NewRegistry()
	r.AddLabeled("hg_job_cost_usd_total", "job", "job-1", 1.5)
	r.AddLabeled("hg_job_cost_usd_total", "job", "job-2", 2.0)
	r.AddLabeled("hg_job_cost_usd_total", "job", "job-1", 0.5)
	if v := r.LabeledValue("hg_job_cost_usd_total", "job-1"); v != 2 {
		t.Errorf("job-1 = %v, want 2", v)
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	i1 := strings.Index(out, `hg_job_cost_usd_total{job="job-1"} 2`)
	i2 := strings.Index(out, `hg_job_cost_usd_total{job="job-2"} 2`)
	if i1 < 0 || i2 < 0 || i2 < i1 {
		t.Errorf("labeled series missing or unsorted:\n%s", out)
	}
}

// parseHistogram extracts the rendered le buckets, _sum and _count for
// one histogram family.
func parseHistogram(t *testing.T, out, name string) (les []string, cums []uint64, count uint64) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, name+"_bucket{le=\"") {
			rest := strings.TrimPrefix(line, name+"_bucket{le=\"")
			q := strings.Index(rest, "\"}")
			if q < 0 {
				t.Fatalf("malformed bucket line %q", line)
			}
			les = append(les, rest[:q])
			v, err := strconv.ParseUint(strings.TrimSpace(rest[q+2:]), 10, 64)
			if err != nil {
				t.Fatalf("bucket value in %q: %v", line, err)
			}
			cums = append(cums, v)
		}
		if strings.HasPrefix(line, name+"_count ") {
			v, err := strconv.ParseUint(strings.TrimPrefix(line, name+"_count "), 10, 64)
			if err != nil {
				t.Fatalf("count line %q: %v", line, err)
			}
			count = v
		}
	}
	return les, cums, count
}

func TestRegistryHistogramCumulativeRender(t *testing.T) {
	r := NewRegistry()
	r.RegisterHistogram("hg_lat_seconds", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50, 500} {
		r.Observe("hg_lat_seconds", v)
	}
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	les, cums, count := parseHistogram(t, b.String(), "hg_lat_seconds")
	wantLes := []string{"0.1", "1", "10", "+Inf"}
	wantCums := []uint64{1, 3, 4, 6}
	if len(les) != len(wantLes) {
		t.Fatalf("les = %v, want %v", les, wantLes)
	}
	for i := range wantLes {
		if les[i] != wantLes[i] || cums[i] != wantCums[i] {
			t.Errorf("bucket %d: le=%s cum=%d, want le=%s cum=%d",
				i, les[i], cums[i], wantLes[i], wantCums[i])
		}
	}
	// Buckets must be monotonically non-decreasing and +Inf == _count.
	for i := 1; i < len(cums); i++ {
		if cums[i] < cums[i-1] {
			t.Errorf("bucket %d not cumulative: %d < %d", i, cums[i], cums[i-1])
		}
	}
	if cums[len(cums)-1] != count {
		t.Errorf("+Inf bucket %d != _count %d", cums[len(cums)-1], count)
	}
	if got := r.HistogramCount("hg_lat_seconds"); got != 6 {
		t.Errorf("HistogramCount = %d, want 6", got)
	}
}

func TestRegistryObserveUnregisteredDropped(t *testing.T) {
	r := NewRegistry()
	r.Observe("nope", 1) // must not panic or register
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "nope") {
		t.Errorf("unregistered histogram leaked into exposition")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	r.RegisterHistogram("hg_h", []float64{1, 2, 3})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Inc("hg_c")
				r.SetGauge("hg_g", float64(i))
				r.Observe("hg_h", float64(i%5))
				r.AddLabeled("hg_f", "k", "v"+strconv.Itoa(g%2), 1)
				var b strings.Builder
				if _, err := r.WriteTo(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if v := r.Value("hg_c"); v != 4000 {
		t.Errorf("counter = %v, want 4000", v)
	}
	if n := r.HistogramCount("hg_h"); n != 4000 {
		t.Errorf("histogram count = %d, want 4000", n)
	}
}

// TestRegistryExpositionGolden pins the rendered text byte for byte:
// HELP and TYPE lines, scalars interleaved by name, a counter family
// whose label value needs escaping, and a cumulative histogram.
func TestRegistryExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.SetHelp("hg_b_total", `Runs "done".`)
	r.Add("hg_b_total", 3)
	r.SetGauge("hg_a", 0.25)
	r.Add("hg_big_total", 1e21)
	r.SetHelp("hg_job_cost_usd_total", "Spend by job.")
	r.AddLabeled("hg_job_cost_usd_total", "job", "job-1", 1.5)
	r.AddLabeled("hg_job_cost_usd_total", "job", "we\"ird\\back\nline", 2)
	r.SetHelp("hg_lat_seconds", "Latency.")
	r.RegisterHistogram("hg_lat_seconds", []float64{0.5, 1})
	for _, v := range []float64{0.25, 0.5, 4} {
		r.Observe("hg_lat_seconds", v)
	}
	const want = `# TYPE hg_a gauge
hg_a 0.25
# HELP hg_b_total Runs "done".
# TYPE hg_b_total counter
hg_b_total 3
# TYPE hg_big_total counter
hg_big_total 1e+21
# HELP hg_job_cost_usd_total Spend by job.
# TYPE hg_job_cost_usd_total counter
hg_job_cost_usd_total{job="job-1"} 1.5
hg_job_cost_usd_total{job="we\"ird\\back\nline"} 2
# HELP hg_lat_seconds Latency.
# TYPE hg_lat_seconds histogram
hg_lat_seconds_bucket{le="0.5"} 2
hg_lat_seconds_bucket{le="1"} 2
hg_lat_seconds_bucket{le="+Inf"} 3
hg_lat_seconds_sum 4.75
hg_lat_seconds_count 3
`
	var b strings.Builder
	n, err := r.WriteTo(&b)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if n != int64(len(want)) {
		t.Errorf("WriteTo returned %d bytes, wrote %d", n, len(want))
	}
}
