// Package cloud models the IaaS environment Hourglass provisions
// from: the instance catalogue (the paper's r4 memory-optimized
// family), deployment configurations, spot-price traces with
// price-crossing evictions (the AWS post-2017 model where the bid is
// effectively the on-demand price, §7), an empirical eviction model
// derived from historical traces, and an S3-like blob datastore.
//
// The real AWS price traces used by the paper ([44], us-east-1
// Oct/Nov 2016) are not available offline; Generate produces seeded
// synthetic traces with the same structure — deep discounts punctured
// by demand spikes that cross the on-demand price and evict — so the
// provisioning code paths are exercised identically (see DESIGN.md).
package cloud

import (
	"fmt"

	"hourglass/internal/units"
)

// InstanceType describes a machine type in the catalogue.
type InstanceType struct {
	Name      string
	VCPUs     int
	MemoryGiB float64
	// OnDemand is the hourly on-demand price, which is also the bid
	// used for spot requests (§7).
	OnDemand units.PerHour
}

// R4 family, us-east-1 prices of the paper's era.
var (
	R4Large2 = InstanceType{Name: "r4.2xlarge", VCPUs: 8, MemoryGiB: 61, OnDemand: 0.532}
	R4Large4 = InstanceType{Name: "r4.4xlarge", VCPUs: 16, MemoryGiB: 122, OnDemand: 1.064}
	R4Large8 = InstanceType{Name: "r4.8xlarge", VCPUs: 32, MemoryGiB: 244, OnDemand: 2.128}
)

// Catalogue returns the instance types available to configurations.
func Catalogue() []InstanceType { return []InstanceType{R4Large2, R4Large4, R4Large8} }

// InstanceByName looks up a catalogue entry.
func InstanceByName(name string) (InstanceType, error) {
	for _, it := range Catalogue() {
		if it.Name == name {
			return it, nil
		}
	}
	return InstanceType{}, fmt.Errorf("cloud: unknown instance type %q", name)
}

// Config is a deployment configuration: a homogeneous set of machines
// (§8.1 justifies homogeneity by Giraph's synchronous model), either
// all transient (spot) or all on-demand.
type Config struct {
	Instance  InstanceType
	Count     int
	Transient bool
}

// ID renders a stable identifier, e.g. "spot/r4.4xlarge x8".
func (c Config) ID() string {
	kind := "ondemand"
	if c.Transient {
		kind = "spot"
	}
	return fmt.Sprintf("%s/%s x%d", kind, c.Instance.Name, c.Count)
}

// OnDemandRate is the configuration's full on-demand price per second.
func (c Config) OnDemandRate() units.USD {
	return units.USD(float64(c.Instance.OnDemand.PerSecond()) * float64(c.Count))
}

// TotalMemoryGiB is the aggregate memory, the feasibility gate for a
// given graph size.
func (c Config) TotalMemoryGiB() float64 {
	return c.Instance.MemoryGiB * float64(c.Count)
}

// DefaultWorkerCounts are the deployment sizes used in the paper's
// evaluation (§8.1: 16, 8, and 4 worker machines).
var DefaultWorkerCounts = []int{4, 8, 16}

// MaxTotalVCPUs bounds a deployment's aggregate compute so that the
// configuration grid spans the paper's ~2.5× execution-time spread
// (§2: 4 h on the fastest configuration, up to 10 h on others). The
// paper's deployments pair instance size with worker count
// (r4.2xlarge×16, r4.4xlarge×8, r4.8xlarge×4 — all 128 vCPUs).
const MaxTotalVCPUs = 128

// DefaultConfigs builds the paper's transient deployment
// configurations (instance types × sizes, capped at MaxTotalVCPUs)
// plus their on-demand counterparts.
func DefaultConfigs() []Config {
	var out []Config
	for _, transient := range []bool{true, false} {
		for _, it := range Catalogue() {
			for _, n := range DefaultWorkerCounts {
				if it.VCPUs*n > MaxTotalVCPUs {
					continue
				}
				out = append(out, Config{Instance: it, Count: n, Transient: transient})
			}
		}
	}
	return out
}
