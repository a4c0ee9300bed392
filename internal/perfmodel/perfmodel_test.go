package perfmodel

import (
	"math"
	"testing"

	"hourglass/internal/cloud"
	"hourglass/internal/units"
)

func TestLRCIsFastestFeasibleOnDemand(t *testing.T) {
	m := Default()
	configs := cloud.DefaultConfigs()
	lrc, err := m.LRC(JobGC, configs)
	if err != nil {
		t.Fatal(err)
	}
	if lrc.Transient {
		t.Fatal("LRC must be on-demand")
	}
	if !m.Feasible(JobGC, lrc) {
		t.Fatal("LRC infeasible")
	}
	for _, c := range configs {
		if c.Transient || !m.Feasible(JobGC, c) {
			continue
		}
		if m.Capacity(c) > m.Capacity(lrc) {
			t.Errorf("config %s faster than LRC %s", c.ID(), lrc.ID())
		}
	}
}

func TestExecTimeCalibration(t *testing.T) {
	m := Default()
	configs := cloud.DefaultConfigs()
	lrc, err := m.LRC(JobGC, configs)
	if err != nil {
		t.Fatal(err)
	}
	// On the LRC itself the exec time equals the calibrated value.
	if got := m.ExecTime(JobGC, lrc, lrc); got != JobGC.LRCExecTime {
		t.Errorf("LRC exec = %v, want %v", got, JobGC.LRCExecTime)
	}
	// Paper §2: other configurations take up to ~2.5× longer (4h → 10h).
	worst := units.Seconds(0)
	for _, c := range configs {
		if !m.Feasible(JobGC, c) {
			continue
		}
		te := m.ExecTime(JobGC, c, lrc)
		if te < JobGC.LRCExecTime-1e-9 {
			t.Errorf("%s faster than LRC: %v", c.ID(), te)
		}
		if te > worst {
			worst = te
		}
	}
	if ratio := float64(worst) / float64(JobGC.LRCExecTime); ratio < 1.5 || ratio > 8 {
		t.Errorf("worst/LRC exec ratio = %.2f, want within [1.5, 8]", ratio)
	}
}

func TestInfeasibleConfigs(t *testing.T) {
	m := Default()
	small := cloud.Config{Instance: cloud.R4Large2, Count: 4, Transient: true} // 244 GiB < 350
	if m.Feasible(JobGC, small) {
		t.Fatal("244 GiB config should be infeasible for a 350 GiB job")
	}
	lrc := cloud.Config{Instance: cloud.R4Large8, Count: 4}
	if !math.IsInf(float64(m.ExecTime(JobGC, small, lrc)), 1) {
		t.Error("infeasible exec time should be +Inf")
	}
	if m.NormalizedCapacity(JobGC, small, lrc) != 0 {
		t.Error("infeasible ω should be 0")
	}
}

func TestNormalizedCapacityBounds(t *testing.T) {
	m := Default()
	configs := cloud.DefaultConfigs()
	lrc, _ := m.LRC(JobPageRank, configs)
	for _, c := range configs {
		if !m.Feasible(JobPageRank, c) {
			continue
		}
		w := m.NormalizedCapacity(JobPageRank, c, lrc)
		if w <= 0 || w > 1+1e-9 {
			t.Errorf("%s: ω = %v outside (0,1]", c.ID(), w)
		}
	}
}

func TestLoadTimeOrdering(t *testing.T) {
	m := Default()
	c := cloud.Config{Instance: cloud.R4Large4, Count: 8, Transient: true}
	micro := m.WithLoading(LoadMicro).LoadTime(JobGC, c)
	hash := m.WithLoading(LoadHash).LoadTime(JobGC, c)
	metis := m.WithLoading(LoadMETIS).LoadTime(JobGC, c)
	stream := m.WithLoading(LoadStream).LoadTime(JobGC, c)
	if !(micro < hash && micro < stream) {
		t.Errorf("want micro fastest, got micro=%v hash=%v stream=%v", micro, hash, stream)
	}
	if metis != hash {
		t.Errorf("METIS reload should pay the same shuffle as hash: %v vs %v", metis, hash)
	}
	// Figure 6 magnitude: micro should be ≥5× faster than the
	// alternatives at 8 nodes.
	if ratio := float64(stream) / float64(micro); ratio < 5 {
		t.Errorf("stream/micro = %.1f, want ≥ 5", ratio)
	}
	if ratio := float64(hash) / float64(micro); ratio < 5 {
		t.Errorf("hash/micro = %.1f, want ≥ 5", ratio)
	}
}

func TestOfflinePartitioningCosts(t *testing.T) {
	m := Default()
	if m.WithLoading(LoadHash).OfflinePartitionRuns() != 0 ||
		m.WithLoading(LoadStream).OfflinePartitionRuns() != 0 {
		t.Error("hash/stream must have no offline phase")
	}
	if m.WithLoading(LoadMicro).OfflinePartitionRuns() != 0 {
		t.Error("micro with a hash base needs no offline phase (§7)")
	}
	if m.WithLoading(LoadMicro).WithMetisBase().OfflinePartitionRuns() != 1 {
		t.Error("microMETIS runs METIS exactly once")
	}
	if runs := m.WithLoading(LoadMETIS).OfflinePartitionRuns(); runs != 3 {
		t.Errorf("plain METIS runs = %d, want one per worker count (3)", runs)
	}
	metis := m.WithLoading(LoadMETIS).OfflineTime(JobGC)
	micro := m.WithLoading(LoadMicro).WithMetisBase().OfflineTime(JobGC)
	if metis != 3*micro {
		t.Errorf("offline time METIS %v, micro %v; want 3×", metis, micro)
	}
	if micro <= 0 {
		t.Error("offline time must be positive for micro")
	}
}

func TestLoadTimeScalesDown(t *testing.T) {
	m := Default()
	c4 := cloud.Config{Instance: cloud.R4Large8, Count: 4, Transient: true}
	c16 := cloud.Config{Instance: cloud.R4Large8, Count: 16, Transient: true}
	if m.LoadTime(JobGC, c16) >= m.LoadTime(JobGC, c4) {
		t.Error("micro loading should speed up with machines")
	}
}

func TestSaveAndBootAndFixed(t *testing.T) {
	m := Default()
	spot := cloud.Config{Instance: cloud.R4Large8, Count: 4, Transient: true}
	od := cloud.Config{Instance: cloud.R4Large8, Count: 4, Transient: false}
	if m.Boot(spot) <= m.Boot(od) {
		t.Error("spot boot should include the transient penalty")
	}
	if m.SaveTime(JobGC, spot) <= 0 {
		t.Error("save time must be positive")
	}
}

func TestJobsRegistry(t *testing.T) {
	jobs := Jobs()
	if len(jobs) != 3 {
		t.Fatalf("jobs = %d, want 3", len(jobs))
	}
	if jobs[0].LRCExecTime != 3*units.Minute || jobs[2].LRCExecTime != 4*units.Hour {
		t.Error("job calibration drifted from the paper values")
	}
}

func TestLoadStrategyString(t *testing.T) {
	if LoadHash.String() != "hash" || LoadMicro.String() != "micro" || LoadStream.String() != "stream" {
		t.Error("LoadStrategy names wrong")
	}
	if LoadStrategy(42).String() == "" {
		t.Error("unknown strategy should still render")
	}
}
