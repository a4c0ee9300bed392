package admission

import (
	"errors"
	"sync"
	"testing"
	"time"

	"hourglass/internal/obs"
)

// collector is a thread-safe event sink for assertions.
type collector struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *collector) Emit(e obs.Event) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collector) byType(typ string) []obs.Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []obs.Event
	for _, e := range c.events {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

var t0 = time.Date(2025, 6, 1, 0, 0, 0, 0, time.UTC)

func feasible(deadline, demand float64) Estimate {
	return Estimate{
		DeadlineSeconds: deadline,
		RequiredSeconds: 600,
		ConfigID:        "spot/r4.4xlarge x8",
		Demand:          demand,
	}
}

func TestPackerConfigClassesNeverShare(t *testing.T) {
	p := NewPacker(8)
	d1, ok1 := p.Place("a", "c1", 0.2)
	d2, ok2 := p.Place("b", "c2", 0.2)
	if !ok1 || !ok2 {
		t.Fatal("placements failed")
	}
	if d1.ID == d2.ID {
		t.Fatal("different config classes packed onto one deployment")
	}
}

func TestPackerPoolBoundAndRelease(t *testing.T) {
	p := NewPacker(2)
	p.Place("a", "c1", 1.0)
	p.Place("b", "c1", 1.0)
	if _, ok := p.Place("c", "c1", 0.5); ok {
		t.Fatal("placed past the pool bound")
	}
	// Oversized demand is clamped to a full bin, so "a" never shared.
	if _, ok := p.Place("big", "c1", 3.0); ok {
		t.Fatal("oversized job placed with a saturated pool")
	}
	if d, gone := p.Release("a"); d == nil || !gone {
		t.Fatalf("releasing sole resident should tear down: d=%v gone=%v", d, gone)
	}
	if _, ok := p.Place("c", "c1", 0.5); !ok {
		t.Fatal("release did not free a pool slot")
	}
}

func TestPackerSeatRecoversSequence(t *testing.T) {
	p := NewPacker(4)
	p.Seat("a", "c1", "dep-7", 0.5)
	d, ok := p.Place("b", "c2", 0.5)
	if !ok {
		t.Fatal("place failed")
	}
	if d.ID != "dep-8" {
		t.Fatalf("sequence not recovered from seat: got %s, want dep-8", d.ID)
	}
	if got, _ := p.DeploymentFor("a"); got.ID != "dep-7" {
		t.Fatalf("seated job on %s, want dep-7", got.ID)
	}
}

func TestGateInfeasibleReject(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &collector{}
	g := NewGate(Config{}, reg, sink)
	est := feasible(400, 0.5) // required 600 > deadline 400
	_, err := g.Submit(Request{JobID: "j1", Tenant: "t1", Est: est, Now: t0})
	var inf *InfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("want InfeasibleError, got %v", err)
	}
	if inf.GapSeconds() != 200 {
		t.Errorf("gap = %f, want 200", inf.GapSeconds())
	}
	if v := reg.Value(MetricRejectedInfeasible); v != 1 {
		t.Errorf("%s = %f, want 1", MetricRejectedInfeasible, v)
	}
	if v := reg.LabeledValue(MetricRejected, "t1"); v != 1 {
		t.Errorf("%s{t1} = %f, want 1", MetricRejected, v)
	}
	rejects := sink.byType(obs.EvReject)
	if len(rejects) != 1 || rejects[0].GapSec != 200 {
		t.Errorf("reject events = %+v", rejects)
	}
}

func TestGateQueuePromoteEDF(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &collector{}
	g := NewGate(Config{MaxDeployments: 1, QueueDepth: 8}, reg, sink)

	out, err := g.Submit(Request{JobID: "a", Tenant: "t1", Est: feasible(3600, 1.0), Now: t0})
	if err != nil || out.Queued {
		t.Fatalf("a: out=%+v err=%v", out, err)
	}
	// b (late deadline) queues first, c (early deadline) jumps ahead.
	outB, err := g.Submit(Request{JobID: "b", Tenant: "t1", Est: feasible(7200, 1.0), Now: t0})
	if err != nil || !outB.Queued || outB.QueuePos != 1 {
		t.Fatalf("b: out=%+v err=%v", outB, err)
	}
	outC, err := g.Submit(Request{JobID: "c", Tenant: "t2", Est: feasible(1800, 1.0), Now: t0})
	if err != nil || !outC.Queued || outC.QueuePos != 1 {
		t.Fatalf("c should queue at position 1: out=%+v err=%v", outC, err)
	}
	if pos := g.Position("b"); pos != 2 {
		t.Fatalf("b pushed to position %d, want 2", pos)
	}

	promos := g.Release("a", t0.Add(30*time.Second))
	if len(promos) != 1 || promos[0].JobID != "c" {
		t.Fatalf("EDF promotion order wrong: %+v", promos)
	}
	if promos[0].WaitSeconds != 30 {
		t.Errorf("wait = %f, want 30", promos[0].WaitSeconds)
	}
	if g.QueueDepth() != 1 {
		t.Errorf("queue depth = %d, want 1 (b still waiting)", g.QueueDepth())
	}
	if got := reg.HistogramCount(MetricQueueWait); got != 1 {
		t.Errorf("queue-wait observations = %d, want 1", got)
	}
}

func TestGatePromotionBackfill(t *testing.T) {
	g := NewGate(Config{MaxDeployments: 1, QueueDepth: 8}, nil, nil)
	g.Submit(Request{JobID: "a", Tenant: "t1", Est: feasible(3600, 1.0), Now: t0})
	// Head waiter needs a full bin; the two behind it fit in one.
	g.Submit(Request{JobID: "big", Tenant: "t1", Est: feasible(1800, 1.0), Now: t0})
	g.Submit(Request{JobID: "s1", Tenant: "t1", Est: feasible(3600, 0.4), Now: t0})
	g.Submit(Request{JobID: "s2", Tenant: "t1", Est: feasible(3600, 0.4), Now: t0})

	promos := g.Release("a", t0.Add(time.Minute))
	if len(promos) != 1 || promos[0].JobID != "big" {
		t.Fatalf("head should promote first: %+v", promos)
	}
	promos = g.Release("big", t0.Add(2*time.Minute))
	if len(promos) != 2 {
		t.Fatalf("backfill should seat both small waiters: %+v", promos)
	}
	if promos[0].Deployment != promos[1].Deployment {
		t.Errorf("small waiters should share one deployment: %+v", promos)
	}
}

func TestGateOverflow(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(Config{MaxDeployments: 1, QueueDepth: 1}, reg, nil)
	g.Submit(Request{JobID: "a", Tenant: "t1", Est: feasible(3600, 1.0), Now: t0})
	g.Submit(Request{JobID: "b", Tenant: "t1", Est: feasible(3600, 1.0), Now: t0})
	_, err := g.Submit(Request{JobID: "c", Tenant: "t2", Est: feasible(3600, 1.0), Now: t0})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if v := reg.Value(MetricRejectedOverflow); v != 1 {
		t.Errorf("%s = %f, want 1", MetricRejectedOverflow, v)
	}
}

func TestGateReleaseRemovesQueued(t *testing.T) {
	g := NewGate(Config{MaxDeployments: 1, QueueDepth: 8}, nil, nil)
	g.Submit(Request{JobID: "a", Tenant: "t1", Est: feasible(3600, 1.0), Now: t0})
	g.Submit(Request{JobID: "b", Tenant: "t1", Est: feasible(3600, 1.0), Now: t0})
	if promos := g.Release("b", t0); promos != nil {
		t.Fatalf("removing a waiter must not promote: %+v", promos)
	}
	if g.QueueDepth() != 0 {
		t.Errorf("queue depth = %d, want 0", g.QueueDepth())
	}
	// Releasing an unknown job is a no-op promotion attempt.
	if promos := g.Release("ghost", t0); promos != nil {
		t.Errorf("ghost release promoted: %+v", promos)
	}
}

func TestGateFairnessGauge(t *testing.T) {
	reg := obs.NewRegistry()
	g := NewGate(Config{}, reg, nil)
	g.ObserveCost("t1", 3)
	g.ObserveCost("t2", 1)
	g.ObserveCost("t2", 0.5)
	if v := reg.Value(MetricFairness); v != 2 {
		t.Errorf("fairness = %f, want 2 (3 / 1.5)", v)
	}
	if v := reg.LabeledValue(MetricTenantCost, "t1"); v != 3 {
		t.Errorf("%s{t1} = %f, want 3", MetricTenantCost, v)
	}
	view := g.Snapshot()
	if view.Fairness != 2 || view.TenantCosts["t2"] != 1.5 {
		t.Errorf("view = %+v", view)
	}
}

func TestGateSharedPlacementEvents(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &collector{}
	g := NewGate(Config{}, reg, sink)
	out1, _ := g.Submit(Request{JobID: "a", Tenant: "t1", Est: feasible(3600, 0.4), Now: t0})
	out2, _ := g.Submit(Request{JobID: "b", Tenant: "t2", Est: feasible(3600, 0.4), Now: t0})
	if out1.Deployment != out2.Deployment {
		t.Fatalf("expected shared deployment: %+v vs %+v", out1, out2)
	}
	if !out2.Shared {
		t.Error("second placement not marked shared")
	}
	if v := reg.Value(MetricSharedPlacements); v != 1 {
		t.Errorf("%s = %f, want 1", MetricSharedPlacements, v)
	}
	packs := sink.byType(obs.EvPack)
	if len(packs) != 2 || packs[1].Active != 2 {
		t.Fatalf("pack events = %+v", packs)
	}
	g.Release("a", t0)
	g.Release("b", t0)
	rels := sink.byType(obs.EvRelease)
	if len(rels) != 2 || rels[0].Done || !rels[1].Done {
		t.Fatalf("release events = %+v", rels)
	}
}

func TestGateRequeueAndReseat(t *testing.T) {
	g := NewGate(Config{MaxDeployments: 2}, nil, nil)
	g.Reseat("a", "c1", "dep-3", 0.7)
	g.Requeue("w", "t1", feasible(3600, 0.7), t0)
	if g.Position("w") != 1 {
		t.Fatalf("requeued waiter position = %d", g.Position("w"))
	}
	if at, ok := g.QueuedAt("w"); !ok || !at.Equal(t0) {
		t.Fatalf("queuedAt = %v %v", at, ok)
	}
	// Releasing the reseated job promotes the restored waiter.
	promos := g.Release("a", t0.Add(time.Hour))
	if len(promos) != 1 || promos[0].JobID != "w" || promos[0].WaitSeconds != 3600 {
		t.Fatalf("promotions = %+v", promos)
	}
	view := g.Snapshot()
	if len(view.Deployments) != 1 || view.Deployments[0].Residents[0] != "w" {
		t.Fatalf("view = %+v", view)
	}
}
