package sopr_test

import (
	"testing"

	"sopr"
	"sopr/internal/repl"
	"sopr/internal/wal"
)

// TestPromotedNodeExecDurable: a durable follower promoted to lead is a
// complete primary, so it acknowledges a write only once the commit
// record is durable — a crash that drops every unsynced byte right after
// the acknowledgement loses nothing.
func TestPromotedNodeExecDurable(t *testing.T) {
	mem := wal.NewMemFS()
	db, err := sopr.OpenDurable("data", sopr.WithFS(mem))
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	// Nothing listens on the leader address: the node only redials until
	// it is promoted.
	n, err := repl.NewNode(db, repl.Config{Leader: "127.0.0.1:1", Logf: t.Logf})
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	t.Cleanup(func() { _ = n.Close() })
	if _, err := n.Promote(0); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if _, err := n.Exec(`create table t (a int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Exec(`insert into t values (1)`); err != nil {
		t.Fatal(err)
	}
	mem.DropUnsynced() // crash: the acknowledged commit must already be on disk

	l, rec, err := wal.Open("data", wal.Options{FS: mem})
	if err != nil {
		t.Fatalf("recover the promoted node's log: %v", err)
	}
	defer l.Close()
	commits := 0
	for _, r := range rec.Records {
		if r.Kind == wal.KindCommit {
			commits++
		}
	}
	if commits != 1 {
		t.Fatalf("recovered %d commit records after one acknowledged insert, want 1", commits)
	}
}
