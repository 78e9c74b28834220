package engine

import (
	"strings"

	"sopr/internal/storage"
	"sopr/internal/wal"
)

// snapState is one published point-in-time state of the whole engine: the
// storage snapshot plus everything else a lock-free reader may ask for —
// the rule-definition script (rendered eagerly, because rule structures
// are writer-private), the last durable LSN, the engine counters as of the
// publish, and the attached log, whose counters Stats reads live. One
// atomic pointer holds all of it so Dump sees a single consistent cut:
// data, indexes and rules all from the same instant, never old tables
// with new rules.
type snapState struct {
	store *storage.Snapshot
	rules string   // dumpRules output at publish time
	lsn   uint64   // last durable LSN at publish time (0 without a WAL)
	stats Stats    // engine counters at publish time
	wal   *wal.Log // attached log at publish time (nil without a WAL)
}

// publish captures the current committed state behind the engine's atomic
// snapshot pointer. It runs only on the exclusive write path — after a
// commit, rollback (for the counters), definition statement, checkpoint,
// or replayed batch — so it may freely read writer-private state: the rule
// set, the plain engine counters, and the attached WAL. Readers then get
// all of it from one atomic load, with zero locking.
func (e *Engine) publish() {
	var lsn uint64
	if e.wal != nil {
		lsn = e.wal.NextLSN() - 1
	}
	var rules strings.Builder
	// dumpRules only fails on writer errors; strings.Builder has none.
	_ = e.dumpRules(&rules)
	e.snap.Store(&snapState{
		store: e.store.Snapshot(),
		rules: rules.String(),
		lsn:   lsn,
		stats: e.stats,
		wal:   e.wal,
	})
}

// PublishSnapshot republishes the engine's read snapshot from the current
// storage state. The normal write paths publish implicitly; this explicit
// form exists for the replay paths: crash recovery publishes once after
// the whole log tail (per-record publishes would re-trigger the
// copy-on-write clone per record), while a replication follower calls it
// after every applied record so snapshot readers see replicated state as
// it arrives.
func (e *Engine) PublishSnapshot() {
	e.store.PublishSnapshot()
	e.publish()
}

// SnapshotLSN reports the last durable log sequence number captured with
// the current read snapshot (0 on an in-memory engine). Lock-free.
func (e *Engine) SnapshotLSN() uint64 {
	return e.snap.Load().lsn
}

// Snapshot returns the engine's current committed storage snapshot — the
// state lock-free readers query. Exposed for tests and tools that want to
// read a consistent cut while the writer runs.
func (e *Engine) Snapshot() *storage.Snapshot {
	return e.snap.Load().store
}
