package cloud

import (
	"fmt"
	"sort"

	"hourglass/internal/units"
)

// EvictionModel is the empirical uptime→eviction-probability model of
// §5.1: for each instance type, a CDF of the probability of being
// revoked before reaching a given uptime, estimated from a *historical*
// trace (the paper derives statistics from October 2016 and simulates
// on November 2016; we mirror that with two differently-seeded
// synthetic months).
type EvictionModel struct {
	// samples[name] holds sorted observed uptimes-until-eviction.
	samples map[string][]units.Seconds
	mttf    map[string]units.Seconds
	// avgSpot[name] is the historical average spot price ($/h).
	avgSpot map[string]float64
}

// BuildEvictionModel samples the historical trace set at evenly spaced
// start offsets, measures time-to-first-crossing for each instance
// type, and assembles per-type CDFs and MTTFs. samplesPerType controls
// resolution (0 = 512).
func BuildEvictionModel(traces TraceSet, samplesPerType int) (*EvictionModel, error) {
	if samplesPerType <= 0 {
		samplesPerType = 512
	}
	m := &EvictionModel{
		samples: map[string][]units.Seconds{},
		mttf:    map[string]units.Seconds{},
		avgSpot: map[string]float64{},
	}
	for name, tr := range traces {
		it, err := InstanceByName(name)
		if err != nil {
			return nil, err
		}
		bid := float64(it.OnDemand)
		horizon := tr.Duration()
		stride := horizon / units.Seconds(samplesPerType)
		var ups []units.Seconds
		var total units.Seconds
		for i := 0; i < samplesPerType; i++ {
			start := units.Seconds(i) * stride
			// Begin measuring from the first moment the instance could
			// actually be acquired (price at or below bid).
			for tr.PriceAt(start) > bid && start < horizon {
				start += tr.Step
			}
			at, ok := tr.NextCrossing(start, bid)
			up := horizon // censored: no eviction within horizon
			if ok {
				up = at - start
			}
			ups = append(ups, up)
			total += up
		}
		sort.Slice(ups, func(i, j int) bool { return ups[i] < ups[j] })
		m.samples[name] = ups
		m.mttf[name] = total / units.Seconds(samplesPerType)
		var sum float64
		for _, p := range tr.Prices {
			sum += p
		}
		m.avgSpot[name] = sum / float64(len(tr.Prices))
	}
	return m, nil
}

// CDFFor returns the instance type's eviction CDF: CDFFor(name)(u) is
// P(evicted before uptime u), the fraction of historical samples with
// uptime-until-eviction ≤ u.
func (m *EvictionModel) CDFFor(name string) func(units.Seconds) float64 {
	ups := m.samples[name]
	return func(u units.Seconds) float64 { return sampleCDF(ups, u) }
}

// sampleCDF is the fraction of the sorted samples ups that are ≤ u.
func sampleCDF(ups []units.Seconds, u units.Seconds) float64 {
	if len(ups) == 0 {
		return 0
	}
	// Binary search for the first sample > u.
	i := sort.Search(len(ups), func(i int) bool { return ups[i] > u })
	return float64(i) / float64(len(ups))
}

// MTTF returns the mean time to eviction for the instance type.
func (m *EvictionModel) MTTF(name string) (units.Seconds, error) {
	v, ok := m.mttf[name]
	if !ok {
		return 0, fmt.Errorf("cloud: no eviction stats for %q", name)
	}
	return v, nil
}

// AvgSpotPrice returns the historical mean spot price ($/hour), the
// price estimate provisioners use for configurations they are not
// currently running.
func (m *EvictionModel) AvgSpotPrice(name string) (float64, error) {
	v, ok := m.avgSpot[name]
	if !ok {
		return 0, fmt.Errorf("cloud: no price stats for %q", name)
	}
	return v, nil
}
