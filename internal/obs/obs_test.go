package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestTracerRingWrapsOldestFirst(t *testing.T) {
	tr := NewTracer(4, nil)
	for i := 0; i < 7; i++ {
		tr.Emit(Event{Type: EvSuperstep, Superstep: i})
	}
	got := tr.Recent()
	if len(got) != 4 {
		t.Fatalf("ring holds %d events, want 4", len(got))
	}
	for i, e := range got {
		if e.Superstep != 3+i {
			t.Errorf("ring[%d] = superstep %d, want %d", i, e.Superstep, 3+i)
		}
	}
}

func TestTracerPartialRing(t *testing.T) {
	tr := NewTracer(8, nil)
	tr.Emit(Event{Type: EvDecision})
	tr.Emit(Event{Type: EvDeploy})
	got := tr.Recent()
	if len(got) != 2 || got[0].Type != EvDecision || got[1].Type != EvDeploy {
		t.Fatalf("partial ring = %+v", got)
	}
}

func TestTracerForwardsDownstream(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	tr := NewTracer(2, sink)
	for i := 0; i < 5; i++ {
		tr.Emit(Event{Type: EvSpend, USD: float64(i)})
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("downstream saw %d events, want all 5", len(events))
	}
}

func TestJSONLRoundTripPreservesFloats(t *testing.T) {
	// Cost folding relies on float64 values surviving the JSON round
	// trip bit-for-bit.
	vals := []float64{0.1, 1.0 / 3.0, 1e-17, 12345.6789, math.Pi}
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	for _, v := range vals {
		sink.Emit(Event{Type: EvSpend, USD: v})
	}
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range events {
		if e.USD != vals[i] {
			t.Errorf("event %d: %v round-tripped to %v", i, vals[i], e.USD)
		}
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	_, err := ReadJSONL(strings.NewReader("{\"type\":\"spend\"}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 parse failure", err)
	}
}

func TestFiniteSanitises(t *testing.T) {
	for _, v := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := Finite(v); got != 0 {
			t.Errorf("Finite(%v) = %v, want 0", v, got)
		}
	}
	if got := Finite(3.5); got != 3.5 {
		t.Errorf("Finite(3.5) = %v", got)
	}
}

func TestSummarizeFoldsLifecycle(t *testing.T) {
	events := []Event{
		{Type: EvDecision, Config: "spot-1"},
		{Type: EvDeploy, Config: "spot-1"},
		{Type: EvSpend, USD: 0.25},
		{Type: EvSpend, USD: 0.5},
		{Type: EvEvict, Config: "spot-1"},
		{Type: EvDecision, Config: "od-1", LastResort: true},
		{Type: EvDeploy, Config: "od-1", Reload: true},
		{Type: EvSpend, USD: 1.0},
		{Type: EvCheckpoint},
		{Type: EvDone, Done: true, T: 3600},
		{Type: EvSuperstep, Active: 10, Messages: 100, Combined: 40, NsStep: 5000, WireFrames: 12, WireBytes: 960},
		{Type: EvRetry, Attempts: 3},
	}
	s := Summarize(events)
	if s.CostUSD != 1.75 || s.Decisions != 2 || s.Deploys != 2 || s.Evictions != 1 ||
		s.Checkpoints != 1 || s.Runs != 1 || !s.Finished || s.Missed || s.Completion != 3600 {
		t.Errorf("sim fold wrong: %+v", s)
	}
	if s.Supersteps != 1 || s.Active != 10 || s.Messages != 100 || s.Combined != 40 ||
		s.EngineNs != 5000 || s.RetryAttempts != 3 || s.WireFrames != 12 || s.WireBytes != 960 {
		t.Errorf("engine/retry fold wrong: %+v", s)
	}
	out := s.String()
	for _, want := range []string{
		"evictions   1",
		"100 sent, 40 combined at sender (combining path: 40.0% folded)",
		"wire        12 frames, 960 bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q, missing %q", out, want)
		}
	}
	raw := Summarize([]Event{{Type: EvSuperstep, Messages: 100}}).String()
	if !strings.Contains(raw, "0 combined at sender (raw path") {
		t.Errorf("raw-path String() = %q", raw)
	}
}

func TestTeeFansOut(t *testing.T) {
	a, b := NewTracer(4, nil), NewTracer(4, nil)
	tee := Tee{a, nil, b}
	tee.Emit(Event{Type: EvDone})
	if len(a.Recent()) != 1 || len(b.Recent()) != 1 {
		t.Fatal("tee did not reach both sinks")
	}
}

func TestTracerConcurrentEmit(t *testing.T) {
	tr := NewTracer(64, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tr.Emit(Event{Type: EvSuperstep, Superstep: i})
				_ = tr.Recent()
			}
		}()
	}
	wg.Wait()
	if len(tr.Recent()) != 64 {
		t.Fatalf("ring holds %d events, want 64", len(tr.Recent()))
	}
}
