package cloud

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"hourglass/internal/units"
)

func TestCatalogueLookup(t *testing.T) {
	if len(Catalogue()) != 3 {
		t.Fatalf("catalogue size = %d, want 3", len(Catalogue()))
	}
	it, err := InstanceByName("r4.4xlarge")
	if err != nil || it.VCPUs != 16 {
		t.Errorf("lookup r4.4xlarge: %+v, %v", it, err)
	}
	if _, err := InstanceByName("m1.tiny"); err == nil {
		t.Error("unknown instance accepted")
	}
}

func TestConfigAccessors(t *testing.T) {
	c := Config{Instance: R4Large2, Count: 16, Transient: true}
	if c.ID() != "spot/r4.2xlarge x16" {
		t.Errorf("ID = %q", c.ID())
	}
	if c.TotalMemoryGiB() != 16*61 {
		t.Errorf("memory = %v", c.TotalMemoryGiB())
	}
	wantRate := units.USD(0.532 / 3600 * 16)
	if math.Abs(float64(c.OnDemandRate()-wantRate)) > 1e-12 {
		t.Errorf("rate = %v, want %v", c.OnDemandRate(), wantRate)
	}
}

func TestDefaultConfigs(t *testing.T) {
	all := DefaultConfigs()
	if len(all) != 12 {
		t.Fatalf("configs = %d, want 12 (6 spot + 6 on-demand under the vCPU cap)", len(all))
	}
	if len(SpotConfigs(all)) != 6 || len(OnDemandConfigs(all)) != 6 {
		t.Fatalf("spot/od split wrong")
	}
	for _, c := range all {
		if c.Instance.VCPUs*c.Count > MaxTotalVCPUs {
			t.Errorf("%s exceeds the capacity cap", c.ID())
		}
	}
}

func TestGenerateDeterministicAndDiscounted(t *testing.T) {
	p := GenParams{Days: 3, Seed: 42}
	a := Generate(R4Large2, p)
	b := Generate(R4Large2, p)
	for i := range a.Prices {
		if a.Prices[i] != b.Prices[i] {
			t.Fatalf("trace not deterministic at %d", i)
		}
	}
	// Median price should be well below on-demand (deep discount).
	below := 0
	for _, pr := range a.Prices {
		if pr < float64(R4Large2.OnDemand)*0.5 {
			below++
		}
	}
	if frac := float64(below) / float64(len(a.Prices)); frac < 0.7 {
		t.Errorf("only %.0f%% of samples deeply discounted", frac*100)
	}
	// But spikes must exist: some samples above on-demand.
	above := 0
	for _, pr := range a.Prices {
		if pr > float64(R4Large2.OnDemand) {
			above++
		}
	}
	if above == 0 {
		t.Error("trace never crosses on-demand: no evictions possible")
	}
}

func TestPriceAtWrapsAround(t *testing.T) {
	tr := &PriceTrace{Instance: "x", Step: 60, Prices: []float64{1, 2, 3}}
	if tr.PriceAt(0) != 1 || tr.PriceAt(61) != 2 || tr.PriceAt(180) != 1 {
		t.Errorf("PriceAt wrap broken: %v %v %v", tr.PriceAt(0), tr.PriceAt(61), tr.PriceAt(180))
	}
}

func TestCostBetweenIntegrates(t *testing.T) {
	tr := &PriceTrace{Instance: "x", Step: units.Seconds(units.Hour), Prices: []float64{1, 3}}
	// 1 hour at $1/h + 30 min at $3/h = 2.5.
	got := tr.CostBetween(0, units.Seconds(1.5*float64(units.Hour)))
	if math.Abs(float64(got)-2.5) > 1e-9 {
		t.Errorf("cost = %v, want 2.5", got)
	}
	if tr.CostBetween(10, 10) != 0 {
		t.Error("empty interval must cost 0")
	}
}

func TestNextCrossing(t *testing.T) {
	tr := &PriceTrace{Instance: "x", Step: 60, Prices: []float64{0.1, 0.1, 0.9, 0.1}}
	at, ok := tr.NextCrossing(0, 0.5)
	if !ok || at != 120 {
		t.Errorf("crossing = %v,%v, want 120,true", at, ok)
	}
	// From inside the spike sample, crossing is immediate.
	at, ok = tr.NextCrossing(130, 0.5)
	if !ok || at != 130 {
		t.Errorf("crossing from 130 = %v,%v, want 130,true", at, ok)
	}
	flat := &PriceTrace{Instance: "x", Step: 60, Prices: []float64{0.1, 0.2}}
	if _, ok := flat.NextCrossing(0, 0.5); ok {
		t.Error("crossing found in flat trace")
	}
}

func newTestMarket(t *testing.T) (*Market, TraceSet) {
	t.Helper()
	set := GenerateSet(Catalogue(), GenParams{Days: 5, Seed: 7})
	return NewMarket(set), set
}

func TestMarketRateAndCost(t *testing.T) {
	m, _ := newTestMarket(t)
	od := Config{Instance: R4Large8, Count: 4, Transient: false}
	rate, err := m.Rate(od, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(rate)-2.128/3600*4) > 1e-12 {
		t.Errorf("on-demand rate = %v", rate)
	}
	cost, err := m.Cost(od, 0, units.Seconds(units.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(cost)-2.128*4) > 1e-9 {
		t.Errorf("on-demand hour cost = %v, want %v", cost, 2.128*4)
	}
	spot := Config{Instance: R4Large8, Count: 4, Transient: true}
	sc, err := m.Cost(spot, 0, units.Seconds(units.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if sc <= 0 || sc >= cost {
		t.Errorf("spot hour cost = %v, want within (0, %v)", sc, cost)
	}
}

func TestMarketEvictionOnlyForTransient(t *testing.T) {
	m, _ := newTestMarket(t)
	od := Config{Instance: R4Large2, Count: 4, Transient: false}
	if _, ok, err := m.NextEviction(od, 0); err != nil || ok {
		t.Errorf("on-demand evicted: ok=%v err=%v", ok, err)
	}
	spot := Config{Instance: R4Large2, Count: 4, Transient: true}
	at, ok, err := m.NextEviction(spot, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("trace has no spike for this seed — regenerate with another seed")
	}
	if at < 0 {
		t.Errorf("eviction at %v", at)
	}
	// At the eviction time the price must exceed the bid.
	p, err := m.SpotPrice(spot.Instance, at)
	if err != nil {
		t.Fatal(err)
	}
	if p <= float64(spot.Instance.OnDemand) {
		t.Errorf("price at eviction %v not above bid", p)
	}
}

func TestMarketAvailability(t *testing.T) {
	m, _ := newTestMarket(t)
	spot := Config{Instance: R4Large4, Count: 8, Transient: true}
	at, ok, err := m.NextEviction(spot, 0)
	if err != nil || !ok {
		t.Skip("no eviction in trace")
	}
	avail, err := m.Available(spot, at)
	if err != nil {
		t.Fatal(err)
	}
	if avail {
		t.Error("config available during spike")
	}
	next, err := m.NextAvailable(spot, at)
	if err != nil {
		t.Fatal(err)
	}
	if next < at {
		t.Errorf("NextAvailable %v before eviction %v", next, at)
	}
	avail, _ = m.Available(spot, next)
	if !avail {
		t.Error("NextAvailable returned unavailable moment")
	}
}

func TestEvictionModel(t *testing.T) {
	set := GenerateSet(Catalogue(), GenParams{Days: 10, Seed: 99})
	em, err := BuildEvictionModel(set, 128)
	if err != nil {
		t.Fatal(err)
	}
	name := R4Large2.Name
	// CDF is monotone in uptime, within [0,1].
	prev := -1.0
	for _, u := range []units.Seconds{0, units.Hour, 4 * units.Hour, units.Day, 10 * units.Day} {
		c := em.CDF(name, u)
		if c < prev || c < 0 || c > 1 {
			t.Fatalf("CDF not monotone: %v at %v after %v", c, u, prev)
		}
		if r := em.CDFFor(name)(u); r != c {
			t.Errorf("CDFFor at %v = %v, CDF = %v", u, r, c)
		}
		prev = c
	}
	mttf, err := em.MTTF(name)
	if err != nil || mttf <= 0 {
		t.Errorf("MTTF = %v, %v", mttf, err)
	}
	avg, err := em.AvgSpotPrice(name)
	if err != nil || avg <= 0 || avg >= float64(R4Large2.OnDemand) {
		t.Errorf("avg spot = %v, %v", avg, err)
	}
	if _, err := em.MTTF("nope"); err == nil {
		t.Error("missing instance accepted")
	}
}

func TestSurvivalBetween(t *testing.T) {
	set := GenerateSet(Catalogue(), GenParams{Days: 10, Seed: 99})
	em, err := BuildEvictionModel(set, 128)
	if err != nil {
		t.Fatal(err)
	}
	s := em.SurvivalBetween(R4Large2.Name, units.Hour, 2*units.Hour)
	if s < 0 || s > 1 {
		t.Errorf("survival = %v", s)
	}
	if em.SurvivalBetween(R4Large2.Name, 0, 0) != 1 {
		t.Error("survival over empty interval must be 1")
	}
}

func TestDatastorePutGet(t *testing.T) {
	d := NewDatastore()
	up, err := d.Put("a", []byte("hello"))
	if err != nil || up <= 0 {
		t.Errorf("upload time = %v, err = %v", up, err)
	}
	data, down, err := d.Get("a")
	if err != nil || string(data) != "hello" || down <= 0 {
		t.Errorf("get = %q %v %v", data, down, err)
	}
	if _, _, err := d.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing key: err = %v, want ErrNotFound", err)
	}
	if !d.Exists("a") || d.Exists("b") {
		t.Error("Exists wrong")
	}
	d.Delete("a")
	if d.Exists("a") {
		t.Error("Delete failed")
	}
}

func TestDatastoreParallelTransferTime(t *testing.T) {
	d := NewDatastore()
	// 4 nodes: per-conn 250 MB/s, aggregate 4 GB/s → per-node 250 MB/s.
	t4 := d.ParallelTransferTime(4, 250_000_000)
	if math.Abs(float64(t4)-1.0) > 1e-9 {
		t.Errorf("4-node transfer = %v, want 1s", t4)
	}
	// 32 nodes: aggregate-bound at 125 MB/s each.
	t32 := d.ParallelTransferTime(32, 250_000_000)
	if math.Abs(float64(t32)-2.0) > 1e-9 {
		t.Errorf("32-node transfer = %v, want 2s", t32)
	}
	if d.ParallelTransferTime(0, 100) != 0 || d.ParallelTransferTime(4, 0) != 0 {
		t.Error("degenerate transfers must be free")
	}
}

// Property: cost integration is additive over adjacent intervals.
func TestQuickCostAdditivity(t *testing.T) {
	tr := Generate(R4Large4, GenParams{Days: 2, Seed: 5})
	f := func(rawA, rawB, rawC uint32) bool {
		horizon := float64(tr.Duration())
		a := float64(rawA%100000) / 100000 * horizon / 2
		b := a + float64(rawB%100000)/100000*horizon/4
		c := b + float64(rawC%100000)/100000*horizon/4
		whole := float64(tr.CostBetween(units.Seconds(a), units.Seconds(c)))
		split := float64(tr.CostBetween(units.Seconds(a), units.Seconds(b))) +
			float64(tr.CostBetween(units.Seconds(b), units.Seconds(c)))
		return math.Abs(whole-split) < 1e-9*(1+math.Abs(whole))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: NextCrossing returns a time whose price exceeds the bid.
func TestQuickNextCrossingConsistent(t *testing.T) {
	tr := Generate(R4Large8, GenParams{Days: 3, Seed: 11})
	bid := float64(R4Large8.OnDemand)
	f := func(raw uint32) bool {
		from := units.Seconds(float64(raw%1000) / 1000 * float64(tr.Duration()))
		at, ok := tr.NextCrossing(from, bid)
		if !ok {
			return true
		}
		return at >= from && tr.PriceAt(at) > bid
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBidFactorChangesEvictions(t *testing.T) {
	set := GenerateSet(Catalogue(), GenParams{Days: 5, Seed: 7})
	spot := Config{Instance: R4Large2, Count: 4, Transient: true}
	normal := NewMarket(set)
	generous := NewMarket(set)
	generous.BidFactor = 3.0 // bid 3× on-demand: far fewer crossings
	atN, okN, err := normal.NextEviction(spot, 0)
	if err != nil {
		t.Fatal(err)
	}
	atG, okG, err := generous.NextEviction(spot, 0)
	if err != nil {
		t.Fatal(err)
	}
	if okN && okG && atG < atN {
		t.Errorf("higher bid evicted earlier: %v vs %v", atG, atN)
	}
	if okN && !okG {
		t.Log("generous bid eliminated evictions entirely — acceptable")
	}
}

func TestDatastoreKeys(t *testing.T) {
	d := NewDatastore()
	if got := d.Keys(); len(got) != 0 {
		t.Fatalf("fresh store has keys %v", got)
	}
	d.Put("b", []byte("2"))
	d.Put("a", []byte("1"))
	d.Put("c", []byte("3"))
	got := d.Keys()
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("keys %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("keys %v not sorted as %v", got, want)
		}
	}
	d.Delete("b")
	if got := d.Keys(); len(got) != 2 {
		t.Fatalf("after delete: %v", got)
	}
}

func TestDatastoreGetReturnsDefensiveCopy(t *testing.T) {
	// Regression: Get used to return the internal slice, so a caller
	// mutating the bytes corrupted the "durable" object and a later
	// reload restored the corrupted state.
	d := NewDatastore()
	d.Put("ckpt", []byte("pristine"))

	data, _, err := d.Get("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'X' // caller scribbles over its copy
	}
	back, _, err := d.Get("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	if string(back) != "pristine" {
		t.Fatalf("durable object corrupted through Get aliasing: %q", back)
	}

	r, _, err := d.GetReader("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := r.Read(buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'Y'
	}
	back, _, _ = d.Get("ckpt")
	if string(back) != "pristine" {
		t.Fatalf("durable object corrupted through GetReader aliasing: %q", back)
	}
}

func TestRetrierSucceedsAfterTransientFailures(t *testing.T) {
	r := NewRetrier(RetryPolicy{Attempts: 5, Base: 1, Seed: 7})
	calls := 0
	delay, err := r.Do(func() error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
	// Two backoffs: 1s and 2s, each jittered into [0.5·b, b).
	if delay < 1.5 || delay >= 3 {
		t.Errorf("accumulated backoff %v outside [1.5, 3)", delay)
	}
}

func TestRetrierGivesUpAfterAttempts(t *testing.T) {
	r := NewRetrier(RetryPolicy{Attempts: 3, Base: 1, Seed: 1})
	calls := 0
	_, err := r.Do(func() error { calls++; return fmt.Errorf("always down") })
	if err == nil || calls != 3 {
		t.Fatalf("calls=%d err=%v", calls, err)
	}
}

func TestRetrierStopsOnNotFound(t *testing.T) {
	r := NewRetrier(RetryPolicy{Attempts: 5, Base: 1, Seed: 1})
	calls := 0
	delay, err := r.Do(func() error {
		calls++
		return fmt.Errorf("wrapped: %w", ErrNotFound)
	})
	if !errors.Is(err, ErrNotFound) || calls != 1 || delay != 0 {
		t.Fatalf("not-found retried: calls=%d delay=%v err=%v", calls, delay, err)
	}
}

func TestRetrierJitterDeterministic(t *testing.T) {
	run := func() units.Seconds {
		r := NewRetrier(RetryPolicy{Attempts: 4, Base: 1, Seed: 99})
		d, _ := r.Do(func() error { return fmt.Errorf("down") })
		return d
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed produced different backoff: %v vs %v", a, b)
	}
}
