// Package repl implements WAL-shipping streaming replication: one durable
// primary ships its write-ahead log to followers over the wire transport,
// with epoch-fenced failover and optional synchronous commit.
//
// The design leans entirely on the durability layer's determinism argument
// (paper Definition 2.1, Section 4): the log records the composed net
// effect of each committed transaction, and replaying net effects with
// rule processing disabled cannot diverge no matter how rule selection
// would have gone. A replica is therefore just a process that runs crash
// recovery forever — it bootstraps from the newest checkpoint image,
// applies the record stream in LSN order with rules disabled, and serves
// queries from the resulting state. The primary keeps the paper's single
// write stream (Section 2.1); replicas multiply read capacity.
//
// Failover keeps that stream single under partitions with promotion
// epochs (wal.EpochRecord): every promotion appends an epoch record to
// the new leader's log, and the epoch travels on exec requests, stream
// records, and acks. A leader that sees a higher epoch than its own fences
// itself — its writes answer the typed FencedError until it is demoted
// (Follow) into the new leader's follower, truncating any unshipped
// suffix (reported loudly in stats). A durable follower persists the
// stream into its own wal.Log, so after promotion it serves as a
// WAL-shipping source itself and its former siblings re-point to it and
// resume from their applied LSN.
//
// Node is the one server backend for every role. It serves through a
// sopr.DB — durable (sopr.OpenDurable) for a primary or a durable
// follower, in-memory (sopr.Open) for a follower that keeps no local
// state — and moves between leading, following and fenced: Promote,
// Follow and a newer epoch are role changes of the same node over the
// same database. While following, its stream loop applies records under
// the database's own write mutex, so reads are the same lock-free
// snapshot loads a primary serves. Source is the leader side of a
// stream: it serves sessions from a durable node's wal.Log, pinning WAL
// retention at the slowest connected follower, refusing joins from
// diverged histories (the epoch table makes the check exact), and
// releasing synchronous commits as follower acks arrive.
package repl

import (
	"errors"
	"fmt"
)

// ErrReadOnly rejects writes on a replica. The server maps it to the wire
// protocol's CodeReadOnly so clients can route the write to the primary.
var ErrReadOnly = errors.New("repl: replica is read-only; writes go to the primary")

// LagError reports that a read-your-writes wait timed out: the replica
// had applied Have when the caller needed Need. The server maps it to
// CodeLagging; clients retry on a less-lagged endpoint or the primary.
type LagError struct {
	Need, Have uint64
}

func (e *LagError) Error() string {
	return fmt.Sprintf("repl: replica at lsn %d has not reached lsn %d", e.Have, e.Need)
}

// FencedError rejects a write on a node that observed a promotion epoch
// higher than its own: the cluster elected a new leader and this node's
// writes can no longer join the single ordered stream. The server maps it
// to CodeFenced with the fencing epoch so clients re-probe immediately.
type FencedError struct {
	Epoch uint64 // the epoch that fenced this node
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("repl: node fenced by epoch %d; writes go to the new leader", e.Epoch)
}

// StaleEpochError rejects a request carrying an epoch older than the
// node's own: the caller's cluster view is out of date. The server maps
// it to CodeStaleEpoch with the node's epoch.
type StaleEpochError struct {
	Epoch uint64 // the node's current epoch
}

func (e *StaleEpochError) Error() string {
	return fmt.Sprintf("repl: request epoch is older than node epoch %d", e.Epoch)
}
