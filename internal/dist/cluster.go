package dist

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// AcceptAndRun accepts `shards` connections on ln and runs one
// coordinator session over them. Shard ids follow accept order (the
// Welcome tells each shard which id it got). Accepting is bounded by
// the watchdog window so a missing shard process fails the session
// instead of hanging it, and by ctx: cancellation interrupts a pending
// Accept and aborts the session. The listener is left open for the
// caller: hourglass-shard's coordinator reuses one across its recovery
// sessions, while runtime.ExecuteDist opens a fresh one for every
// deployment and every warm standby and closes it after the session
// (ROADMAP item 17: with the per-session peer mesh, that leaves
// loopback sockets in TIME_WAIT on every deployment).
func AcceptAndRun(ctx context.Context, ln net.Listener, shards int, cfg Config) (*Report, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: session cancelled: %w", err)
	}
	timeout := cfg.BarrierTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	// Cancellation unblocks Accept by expiring the listener deadline;
	// the listener itself stays open for the caller.
	stop := context.AfterFunc(ctx, func() {
		if tl, ok := ln.(*net.TCPListener); ok {
			_ = tl.SetDeadline(time.Now())
		}
	})
	defer stop()
	conns := make([]net.Conn, 0, shards)
	closeAll := func() {
		for _, c := range conns {
			c.Close()
		}
	}
	for len(conns) < shards {
		if tl, ok := ln.(*net.TCPListener); ok {
			_ = tl.SetDeadline(time.Now().Add(timeout))
		}
		c, err := ln.Accept()
		if err != nil {
			closeAll()
			if cerr := ctx.Err(); cerr != nil {
				return nil, fmt.Errorf("dist: session cancelled while accepting shard %d of %d: %w", len(conns), shards, cerr)
			}
			return nil, fmt.Errorf("dist: accepting shard %d of %d: %w", len(conns), shards, err)
		}
		conns = append(conns, c)
	}
	if tl, ok := ln.(*net.TCPListener); ok {
		_ = tl.SetDeadline(time.Time{})
	}
	return RunCoordinator(ctx, conns, cfg)
}

// RunCluster runs one session with the coordinator and all shard
// workers in this process, wired over loopback TCP — the one-machine
// deployment and the unit-test harness. Cancelling ctx tears the whole
// cluster down: the coordinator aborts at its next barrier wait and
// every shard goroutine has exited by the time RunCluster returns.
// shardOpts, when non-nil, supplies per-shard options (chaos hooks); a
// zero-Store option inherits cfg.Store.
func RunCluster(ctx context.Context, cfg Config, shards int, shardOpts func(i int) ShardOptions) (*Report, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("dist: %d shards", shards)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("dist: loopback listener: %w", err)
	}
	defer ln.Close()
	addr := ln.Addr().String()

	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		opts := ShardOptions{Store: cfg.Store}
		if shardOpts != nil {
			opts = shardOpts(i)
			if opts.Store == nil {
				opts.Store = cfg.Store
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Session errors surface coordinator-side (shard loss); a
			// shard's own view is diagnostics only.
			if err := Dial(ctx, addr, opts); err != nil {
				cfg.logf("dist: in-process shard: %v", err)
			}
		}()
	}
	rep, err := AcceptAndRun(ctx, ln, shards, cfg)
	// Coordinator teardown closed every connection (and a cancelled ctx
	// reaches the shards directly), so the shard goroutines are
	// unblocked and exiting.
	wg.Wait()
	return rep, err
}
