package admission

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// DeploymentCapacity is the utilization budget of one shared
// deployment. Each resident job occupies the EDF share
// perfmodel.DeadlineUtilization computes for it on the deployment's
// configuration; as long as the shares sum to at most 1 the worker
// set can be time-multiplexed deadline-first with every resident's
// deadline met, so 1.0 is the principled bin capacity rather than a
// tunable.
const DeploymentCapacity = 1.0

// capacityEps absorbs float noise when shares sum to exactly 1.
const capacityEps = 1e-9

// Deployment is one shared live worker set: a bin of utilization
// shares keyed by the configuration the market chose for its
// residents.
type Deployment struct {
	// ID is the packer-assigned identity ("dep-3"), stable across
	// snapshot/restore.
	ID string
	// ConfigID is the deployment configuration class (cloud.Config ID)
	// every resident of this deployment shares.
	ConfigID string
	// used is the summed utilization shares of the residents.
	used float64
	// residents maps job ID to its share.
	residents map[string]float64
}

// Used returns the occupied share of the deployment.
func (d *Deployment) Used() float64 { return d.used }

// Residents returns the resident job IDs, sorted.
func (d *Deployment) Residents() []string {
	out := make([]string, 0, len(d.residents))
	for id := range d.residents {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Packer assigns jobs to shared deployments by first-fit bin-packing,
// one job at a time, bounded by a live-deployment pool limit. It is
// not safe for concurrent use; the Gate serializes access.
type Packer struct {
	maxDeployments int
	seq            int
	deps           []*Deployment // creation order = first-fit scan order
	byJob          map[string]*Deployment
}

// NewPacker builds a packer bounded to at most maxDeployments live
// deployments (<=0 means 16).
func NewPacker(maxDeployments int) *Packer {
	if maxDeployments <= 0 {
		maxDeployments = 16
	}
	return &Packer{maxDeployments: maxDeployments, byJob: map[string]*Deployment{}}
}

// Live returns the number of live (non-empty) deployments.
func (p *Packer) Live() int { return len(p.deps) }

// Deployments returns the live deployments in first-fit scan order.
func (p *Packer) Deployments() []*Deployment {
	return append([]*Deployment(nil), p.deps...)
}

// DeploymentFor returns the deployment hosting a job.
func (p *Packer) DeploymentFor(jobID string) (*Deployment, bool) {
	d, ok := p.byJob[jobID]
	return d, ok
}

// Place seats one job by first-fit: the oldest deployment of the same
// configuration with room takes it; otherwise a new deployment boots
// if the pool has headroom. The boolean reports success (false = the
// pool is saturated). A demand above the bin capacity is clamped to a
// full bin — the job simply never shares.
func (p *Packer) Place(jobID, configID string, demand float64) (*Deployment, bool) {
	if _, dup := p.byJob[jobID]; dup {
		return nil, false
	}
	if demand > DeploymentCapacity {
		demand = DeploymentCapacity
	}
	if demand <= 0 {
		demand = capacityEps
	}
	for _, d := range p.deps {
		if d.ConfigID == configID && d.used+demand <= DeploymentCapacity+capacityEps {
			p.seat(d, jobID, demand)
			return d, true
		}
	}
	if len(p.deps) >= p.maxDeployments {
		return nil, false
	}
	d := p.boot(configID)
	p.seat(d, jobID, demand)
	return d, true
}

// Release removes a job from its deployment, tearing the deployment
// down once empty (the pool slot frees). Returns the deployment the
// job occupied (nil if the job was not placed) and whether the
// deployment is now gone.
func (p *Packer) Release(jobID string) (*Deployment, bool) {
	d, ok := p.byJob[jobID]
	if !ok {
		return nil, false
	}
	delete(p.byJob, jobID)
	d.used -= d.residents[jobID]
	if d.used < 0 {
		d.used = 0
	}
	delete(d.residents, jobID)
	if len(d.residents) > 0 {
		return d, false
	}
	for i, dd := range p.deps {
		if dd == d {
			p.deps = append(p.deps[:i], p.deps[i+1:]...)
			break
		}
	}
	return d, true
}

// Seat force-places a job into a named deployment, creating it on
// first reference — the snapshot-restore path, which must reproduce
// the pre-restart placement exactly rather than re-pack. The pool
// bound is not enforced here: a snapshot is trusted.
func (p *Packer) Seat(jobID, configID, deploymentID string, demand float64) *Deployment {
	var d *Deployment
	for _, dd := range p.deps {
		if dd.ID == deploymentID {
			d = dd
			break
		}
	}
	if d == nil {
		d = &Deployment{ID: deploymentID, ConfigID: configID, residents: map[string]float64{}}
		p.deps = append(p.deps, d)
		if n, err := strconv.Atoi(strings.TrimPrefix(deploymentID, "dep-")); err == nil && n >= p.seq {
			p.seq = n + 1
		}
	}
	p.seat(d, jobID, demand)
	return d
}

func (p *Packer) boot(configID string) *Deployment {
	d := &Deployment{
		ID:        fmt.Sprintf("dep-%d", p.seq),
		ConfigID:  configID,
		residents: map[string]float64{},
	}
	p.seq++
	p.deps = append(p.deps, d)
	return d
}

func (p *Packer) seat(d *Deployment, jobID string, demand float64) {
	d.residents[jobID] = demand
	d.used += demand
	p.byJob[jobID] = d
}
