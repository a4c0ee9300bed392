package sim

import (
	"bytes"
	"testing"

	"hourglass/internal/core"
	"hourglass/internal/obs"
	"hourglass/internal/perfmodel"
)

// TestTraceDisabledByDefault guards the zero-overhead contract: a nil
// sink must leave the runner's behavior and results untouched.
func TestTraceDisabledByDefault(t *testing.T) {
	env := testEnv(t, perfmodel.JobPageRank)
	deadline := deadlineFor(env, 0.5)

	plain := &Runner{Env: env}
	res1, err := plain.Run(core.NewSlackAware(env), 0, deadline)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	traced := &Runner{Env: env, Sink: obs.NewJSONL(&buf)}
	res2, err := traced.Run(core.NewSlackAware(env), 0, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Errorf("tracing changed the run: %+v vs %+v", res1, res2)
	}
	// The result is the fold of the trace: read back from JSONL (which
	// round-trips float64 exactly), the stream folds to it bit for bit.
	events, err := obs.ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 {
		t.Fatal("traced run emitted no events")
	}
	if sum := obs.Summarize(events); sum != res2 {
		t.Errorf("trace folds to %+v, run returned %+v", sum, res2)
	}
}
