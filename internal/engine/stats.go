package engine

// Stats are cumulative counters over the engine's lifetime, exposed for
// observability and for the benchmark harness. This is the one
// declaration of the record: sopr.Stats aliases it, and the wire protocol
// carries it by value in a stats response, hence the JSON tags.
type Stats struct {
	// Transactions committed and rolled back (rule rollbacks, errors and
	// the runaway guard all count as rollbacks).
	Committed  int64 `json:"committed"`
	RolledBack int64 `json:"rolled_back"`
	// ExternalTransitions counts externally-generated transitions
	// (PROCESS RULES triggering points split one transaction into several).
	ExternalTransitions int64 `json:"external_transitions"`
	// RuleConsiderations counts condition evaluations; RuleFirings counts
	// action executions (rule-generated transitions).
	RuleConsiderations int64 `json:"rule_considerations"`
	RuleFirings        int64 `json:"rule_firings"`
	// Access-path counters from the storage layer: selections served from
	// a secondary hash index (CREATE INDEX) vs. full heap table scans.
	IndexLookups int64 `json:"index_lookups"`
	HeapScans    int64 `json:"heap_scans"`
	// Durability counters: write-ahead-log appends and bytes (zero when no
	// log is attached), records replayed during crash recovery, and
	// checkpoints written.
	WALAppends       int64 `json:"wal_appends"`
	WALBytes         int64 `json:"wal_bytes"`
	RecoveredRecords int64 `json:"recovered_records"`
	Checkpoints      int64 `json:"checkpoints"`
	// Group-commit counters (durable fsync=always path): leader fsyncs
	// issued from the commit queue, and the committers they acknowledged.
	GroupCommits int64 `json:"group_commits,omitempty"`
	GroupedTxns  int64 `json:"grouped_txns,omitempty"`
	// Planner counters: query blocks executed through the cost-based join
	// planner, and index probes that fell back to a heap scan at lookup
	// time (the 2^53 integer-keyspace fallback).
	PlannedQueries     int64 `json:"planned_queries,omitempty"`
	PlanProbeFallbacks int64 `json:"plan_probe_fallbacks,omitempty"`
}

// TxnsPerSync reports the group-commit amortization factor: committers
// acknowledged per leader fsync. 0 before any group commit; 1.0 means
// every committer synced alone; >1 means fsyncs were shared.
func (s Stats) TxnsPerSync() float64 {
	if s.GroupCommits == 0 {
		return 0
	}
	return float64(s.GroupedTxns) / float64(s.GroupCommits)
}

// Stats returns a snapshot of the engine's counters, lock-free. The
// engine-level counters were captured into the published snapshot state
// by the write path (see snapshot.go), so they come from one atomic
// pointer load. The rest are overlaid live: the access-path and planner
// counters because concurrent readers advance them too, and the WAL
// counters because a commit's leader fsync runs after its publish. The
// WAL overlay takes the log's mutex only to copy its counters.
func (e *Engine) Stats() Stats {
	sn := e.snap.Load()
	s := sn.stats
	s.HeapScans, s.IndexLookups = sn.store.AccessStats()
	s.PlannedQueries = e.planCounters.Planned.Load()
	s.PlanProbeFallbacks = e.planCounters.ProbeFallbacks.Load()
	if sn.wal != nil {
		ws := sn.wal.Stats()
		s.WALAppends, s.WALBytes = ws.Appends, ws.Bytes
		s.GroupCommits, s.GroupedTxns = ws.GroupCommits, ws.GroupedTxns
	}
	return s
}
