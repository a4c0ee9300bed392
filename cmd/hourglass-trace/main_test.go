package main

import (
	"fmt"
	"os"
)

// The ledger of a checked-in golden trajectory: a dist run whose worker
// dies with a 50 s warning — too short to boot a standby, long enough
// to force a save — so it recovers cold on half the shards.
func Example_summary() {
	if err := printSummary(os.Stdout, "../../internal/runtime/testdata/trajectories/dist_standby_not_ready.jsonl"); err != nil {
		fmt.Println(err)
	}
	// Output:
	// runs        1
	// cost        $3.3310
	// deadline    met (completion t=2818s)
	// evictions   1
	// restarts    1 (0 watchdog trips)
	// deploys     2
	// checkpoints 6
	// decisions   8
	// io time     72s
	// recovery    129s
	// standby     1 warnings, 0 warm cutovers, 1 misses
	// ckpt bytes  38064 full, 0 delta
}
