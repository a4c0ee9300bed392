package scheduler

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"time"

	"hourglass/internal/admission"
	"hourglass/internal/units"
)

// snapshotState is the JSON document persisted to the datastore: the
// whole job table plus the ID sequence, enough for a restarted daemon
// to resume scheduling exactly where it stopped. In-flight
// recurrences are not persisted — a restore re-dispatches them
// (dispatched is reset to completed), and the deterministic offset
// derivation replays them against the same trace window.
type snapshotState struct {
	SavedAt time.Time     `json:"savedAt"`
	Seq     int           `json:"seq"`
	Jobs    []snapshotJob `json:"jobs"`
}

type snapshotJob struct {
	Spec      JobSpec     `json:"spec"`
	Created   time.Time   `json:"created"`
	NextRun   time.Time   `json:"nextRun"`
	Completed int         `json:"completed"`
	History   []RunRecord `json:"history"`
	Agg       Aggregates  `json:"aggregates"`
	// Admission state: a queued job re-enters the wait queue at its
	// original enqueue time, a placed one is reseated onto its named
	// deployment (same packing class and share), so a restart neither
	// re-prices nor re-packs what was already admitted.
	Queued     bool      `json:"queued,omitempty"`
	QueuedAt   time.Time `json:"queuedAt,omitempty"`
	Deployment string    `json:"deployment,omitempty"`
	PackConfig string    `json:"packConfig,omitempty"`
	Demand     float64   `json:"demand,omitempty"`
}

// snapshotEnvelope wraps the state document with a CRC32 (IEEE)
// checksum over the raw State bytes, so a corrupted or truncated
// snapshot is detected at restore instead of silently reloading
// garbage. The envelope is itself JSON, keeping the persisted object
// (and the daemon's -state file mirror) plain text.
type snapshotEnvelope struct {
	CRC32 string          `json:"crc32"`
	State json.RawMessage `json:"state"`
}

// stateCRC checksums the *compacted* state document. JSON encoders
// re-indent nested RawMessage bytes, so the exact byte layout is not
// stable across a seal/open round trip — the whitespace-free form is.
func stateCRC(state []byte) (string, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, state); err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(compact.Bytes())), nil
}

// sealSnapshot wraps state bytes in a checksummed envelope.
func sealSnapshot(state []byte) ([]byte, error) {
	crc, err := stateCRC(state)
	if err != nil {
		return nil, err
	}
	return json.MarshalIndent(snapshotEnvelope{CRC32: crc, State: state}, "", "  ")
}

// openSnapshot validates an envelope and returns the state bytes. A
// legacy snapshot (plain snapshotState document, no envelope) is
// accepted without checksum verification so pre-envelope state files
// still restore.
func openSnapshot(blob []byte) ([]byte, error) {
	var env snapshotEnvelope
	if err := json.Unmarshal(blob, &env); err != nil {
		return nil, fmt.Errorf("parsing snapshot envelope: %w", err)
	}
	if env.CRC32 == "" && env.State == nil {
		// Legacy format: the blob is the state document itself.
		return blob, nil
	}
	want, err := stateCRC(env.State)
	if err != nil {
		return nil, fmt.Errorf("compacting snapshot state: %w", err)
	}
	if env.CRC32 != want {
		return nil, fmt.Errorf("snapshot checksum mismatch: header %s, computed %s", env.CRC32, want)
	}
	return env.State, nil
}

// Snapshot serialises the job table to the configured datastore key,
// sealed with a checksum and retried across transient store errors.
func (c *Controller) Snapshot() error {
	if c.store == nil {
		return fmt.Errorf("scheduler: no snapshot store configured")
	}
	c.mu.Lock()
	state := snapshotState{SavedAt: c.clock.Now(), Seq: c.seq}
	for _, e := range c.jobs {
		// Rewind the schedule over dispatched-but-unfinished
		// recurrences: a restore resets dispatched to completed, so
		// the rewound nextRun makes collectDue re-dispatch the lost
		// runs at their original indices (and, offsets being
		// index-derived, against their original trace windows).
		pending := e.dispatched - e.completed
		nextRun := e.nextRun.Add(-time.Duration(pending) * time.Duration(e.spec.Period))
		state.Jobs = append(state.Jobs, snapshotJob{
			Spec:       e.spec,
			Created:    e.created,
			NextRun:    nextRun,
			Completed:  e.completed,
			History:    append([]RunRecord(nil), e.history...),
			Agg:        e.agg,
			Queued:     e.queued,
			QueuedAt:   e.queuedAt,
			Deployment: e.deployment,
			PackConfig: e.packConfig,
			Demand:     e.demand,
		})
	}
	c.mu.Unlock()
	data, err := json.MarshalIndent(state, "", "  ")
	if err != nil {
		return err
	}
	sealed, err := sealSnapshot(data)
	if err != nil {
		return err
	}
	// The retrier's delay is virtual time; the controller runs on the
	// wall clock, so only the outcome matters here.
	if _, err := c.retry.Do(func() error {
		_, err := c.store.Put(c.snapshotKey, sealed)
		return err
	}); err != nil {
		return fmt.Errorf("scheduler: writing snapshot %s: %w", c.snapshotKey, err)
	}
	c.metrics.Inc(MetricSnapshots)
	c.logf("scheduler: snapshot %s (%d jobs, %d bytes)", c.snapshotKey, len(state.Jobs), len(sealed))
	return nil
}

// restore loads a snapshot into an empty controller (called from New
// before the loop starts, so no locking hazards). Every spec is
// re-admitted through the backend so deadline/horizon/baseline come
// from the live market, not the snapshot.
//
// A snapshot that cannot be read or fails its checksum is *skipped* —
// the daemon logs the damage and starts with an empty job table
// rather than refusing to boot or restoring corrupt state. Re-admit
// failures, by contrast, are real configuration errors and abort.
func (c *Controller) restore() error {
	var blob []byte
	if _, err := c.retry.Do(func() error {
		b, _, err := c.store.Get(c.snapshotKey)
		blob = b
		return err
	}); err != nil {
		c.logf("scheduler: snapshot %s unreadable (%v), starting fresh", c.snapshotKey, err)
		return nil
	}
	data, err := openSnapshot(blob)
	if err != nil {
		c.logf("scheduler: snapshot %s corrupt (%v), starting fresh", c.snapshotKey, err)
		return nil
	}
	var state snapshotState
	if err := json.Unmarshal(data, &state); err != nil {
		c.logf("scheduler: snapshot %s undecodable (%v), starting fresh", c.snapshotKey, err)
		return nil
	}
	c.seq = state.Seq
	for _, sj := range state.Jobs {
		deadline, horizon, baseline, err := c.backend.Admit(sj.Spec)
		if err != nil {
			return fmt.Errorf("re-admitting %s: %w", sj.Spec.ID, err)
		}
		if sj.Spec.Deadline > 0 {
			deadline = units.FromDuration(time.Duration(sj.Spec.Deadline))
		}
		e := &jobEntry{
			spec:       sj.Spec,
			created:    sj.Created,
			nextRun:    sj.NextRun,
			deadline:   deadline,
			horizon:    horizon,
			baseline:   baseline,
			dispatched: sj.Completed, // in-flight runs are re-dispatched
			completed:  sj.Completed,
			history:    sj.History,
			agg:        sj.Agg,
			deployment: sj.Deployment,
			packConfig: sj.PackConfig,
			demand:     sj.Demand,
		}
		if c.gate != nil {
			switch {
			case sj.Queued:
				e.queued = true
				e.queuedAt = sj.QueuedAt
				c.gate.Requeue(sj.Spec.ID, sj.Spec.TenantOrDefault(), admission.Estimate{
					DeadlineSeconds: float64(deadline),
					ConfigID:        sj.PackConfig,
					Demand:          sj.Demand,
				}, sj.QueuedAt)
			case sj.Deployment != "":
				c.gate.Reseat(sj.Spec.ID, sj.PackConfig, sj.Deployment, sj.Demand)
			}
			// A pre-admission snapshot entry (no deployment, not queued)
			// keeps running unpacked; Release tolerates it.
		}
		c.insertLocked(e)
	}
	c.logf("scheduler: restored %d jobs from %s (saved %v)",
		len(state.Jobs), c.snapshotKey, state.SavedAt)
	return nil
}
