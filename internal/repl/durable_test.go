// Durable-follower lifecycle tests: local WAL recovery across restarts,
// the reset-and-rebootstrap path when histories diverge (with lock-free
// reads racing it), the idle-ack timer that keeps the primary's retention
// pin moving, and a promoted follower writing exactly as a primary does:
// durable acknowledgement, the LSN token, batch refusals.
package repl_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/repl"
)

// startReplicaDir is startReplica over a durable database: the follower
// persists the stream into its own WAL and recovers from it at startup.
func startReplicaDir(t *testing.T, primaryAddr, dir string) *node {
	return startNode(t, openDurable(t, dir), testConfig(t, primaryAddr), "127.0.0.1:0")
}

// TestDurableFollowerRestartResumesLocally: a restarted durable follower
// recovers its applied position from its own WAL before touching the
// network, then resumes the stream from there — no reset, no re-bootstrap.
func TestDurableFollowerRestartResumesLocally(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	for i := 0; i < 5; i++ {
		p.exec(t, `insert into emp values ('e`+string(rune('0'+i))+`', 1, 1000, 0);`)
	}
	fdir := t.TempDir()
	r := startReplicaDir(t, p.addr, fdir)
	waitCaughtUp(t, r, p.db.CurrentLSN())
	applied := r.n.CurrentLSN()
	if st := r.n.ReplStats(); !st.Durable {
		t.Fatalf("follower with a data dir reports Durable=false: %+v", st)
	}
	r.stop(t)

	p.exec(t, `insert into emp values ('late', 9, 9, 0);`) // written while the follower was down

	// Recovery happens in OpenDurable, before the node ever dials: the
	// applied position must already be there.
	fdb := openDurable(t, fdir)
	if got := fdb.CurrentLSN(); got != applied {
		t.Fatalf("recovered applied = %d, want %d (local WAL replay)", got, applied)
	}
	r2 := startNode(t, fdb, testConfig(t, p.addr), "127.0.0.1:0")
	waitCaughtUp(t, r2, p.db.CurrentLSN())
	if st := r2.n.ReplStats(); st.Resets != 0 {
		t.Fatalf("restarted durable follower reset %d times; it should resume from its WAL", st.Resets)
	}
	if r2.dump(t) != p.dump(t) {
		t.Fatal("restarted durable follower diverged from primary")
	}
}

// TestFollowerResetAndRebootstrap: a follower whose applied history the
// source does not share (here: the primary's data dir was replaced with a
// shorter history on the same address) must discard everything — old
// engine, local WAL — and rebuild from the source's checkpoint, ending
// byte-identical. The discard is loud: Resets and DiscardedRecords count
// it in stats.
func TestFollowerResetAndRebootstrap(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	for i := 0; i < 5; i++ {
		p.exec(t, `insert into emp values ('old', 1, 1, 0);`)
	}
	r := startReplicaDir(t, p.addr, t.TempDir())
	waitCaughtUp(t, r, p.db.CurrentLSN())
	applied := r.n.CurrentLSN()

	// Replace the primary wholesale: same address, fresh shorter history.
	addr := p.addr
	p.stop(t)
	p2 := restartPrimary(t, t.TempDir(), addr)
	p2.exec(t, testSchema)
	p2.exec(t, `insert into emp values ('new', 2, 2, 0);`)
	if p2.db.CurrentLSN() >= applied {
		t.Fatalf("new history too long (%d >= %d); divergence not exercised", p2.db.CurrentLSN(), applied)
	}

	waitFor(t, "follower to reset against the replaced history", func() bool {
		return r.n.ReplStats().Resets >= 1
	})
	waitCaughtUp(t, r, p2.db.CurrentLSN())
	st := r.n.ReplStats()
	if st.DiscardedRecords < int64(applied) {
		t.Fatalf("discarded %d records, want >= %d (the whole diverged history)", st.DiscardedRecords, applied)
	}
	// The rebuilt engine is byte-identical to the new primary; nothing of
	// the old engine leaks through.
	got := r.dump(t)
	if want := p2.dump(t); got != want {
		t.Fatalf("rebootstrapped follower diverges:\n--- primary ---\n%s\n--- follower ---\n%s", want, got)
	}
	if strings.Contains(got, "'old'") {
		t.Fatal("old engine's rows leaked into the rebootstrapped state")
	}
}

// TestIdleAckReleasesRetentionPromptly: when the stream goes idle right
// after a burst, the follower's timer must still deliver the final ack —
// otherwise the primary's retention pin (MinFollowerLSN) sticks at the
// previous ack until the next record or heartbeat arrives. The heartbeat
// here is far longer than the assertion window, so only the ack timer can
// satisfy it.
func TestIdleAckReleasesRetentionPromptly(t *testing.T) {
	pcfg := testConfig(t, "")
	pcfg.Heartbeat = 30 * time.Second
	p := startNode(t, openDurable(t, t.TempDir()), pcfg, "127.0.0.1:0")
	fcfg := testConfig(t, p.addr)
	fcfg.AckInterval = 20 * time.Millisecond
	fcfg.StreamTimeout = 60 * time.Second // outlast the silent heartbeat
	startNode(t, sopr.Open(), fcfg, "127.0.0.1:0")

	p.exec(t, testSchema)
	// A quick burst, then silence: the final LSN's ack can only come from
	// the idle timer.
	for i := 0; i < 5; i++ {
		p.exec(t, `insert into emp values ('burst', 1, 1, 0);`)
	}
	last := p.n.CurrentLSN()
	start := time.Now()
	deadline := start.Add(5 * time.Second)
	for {
		if st := p.n.ReplStats(); st.Followers == 1 && st.MinFollowerLSN >= last {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retention pin stuck: %+v, want MinFollowerLSN %d (idle ack never arrived)",
				p.n.ReplStats(), last)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("idle ack took %v; the timer should deliver it in milliseconds", elapsed)
	}
}

// promotedDurableNode returns a durable follower of an address nothing
// listens on, promoted to lead, with one table created.
func promotedDurableNode(t *testing.T) (*repl.Node, *sopr.DB) {
	t.Helper()
	db := openDurable(t, t.TempDir())
	n, err := repl.NewNode(db, testConfig(t, "127.0.0.1:1"))
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
	return n, db
}

// TestPromotedFollowerExecDurable: a promoted durable follower is a
// complete primary, so it acknowledges a write only once the commit
// record is durable — the write parks on the log's group commit, and
// that fsync acknowledges it.
func TestPromotedFollowerExecDurable(t *testing.T) {
	n, db := promotedDurableNode(t)
	if _, err := n.Exec(`insert into t values (1)`); err != nil {
		t.Fatal(err)
	}
	if st := db.WALLog().Stats(); st.GroupCommits != 1 || st.GroupedTxns != 1 {
		t.Fatalf("group commits %d acknowledging %d txns, want 1 and 1: the ack did not wait on the commit fsync",
			st.GroupCommits, st.GroupedTxns)
	}
}

// TestPromotedDurableExecLSN: a promoted durable node's in-process Exec
// carries the read-your-writes token, as a primary's does.
func TestPromotedDurableExecLSN(t *testing.T) {
	n, _ := promotedDurableNode(t)
	res, err := n.Exec(`insert into t values (1)`)
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN == 0 || res.LSN != n.CurrentLSN() {
		t.Fatalf("Result.LSN = %d, CurrentLSN = %d; want equal and nonzero", res.LSN, n.CurrentLSN())
	}
}

// TestBatchDefinitionRefusedOnPromotedFollower: a batch is one operation
// block, so a definition inside it is refused — by a promoted durable
// follower exactly as by a primary, with the same typed error, and
// nothing commits on either.
func TestBatchDefinitionRefusedOnPromotedFollower(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	r := startReplicaDir(t, p.addr, t.TempDir())
	waitCaughtUp(t, r, p.db.CurrentLSN())
	if _, err := r.n.Promote(0); err != nil {
		t.Fatal(err)
	}
	batch := []string{`insert into emp values ('x', 1, 1, 0)`, `create table extra (a int)`}
	refusal := func(nd *node) *client.RemoteError {
		t.Helper()
		c, err := client.Dial(nd.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		before := nd.n.CurrentLSN()
		res, err := c.ExecBatch(batch)
		var re *client.RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("batch with a definition on %s = %+v, %v; want a remote error", nd.addr, res, err)
		}
		if after := nd.n.CurrentLSN(); after != before {
			t.Fatalf("refused batch moved %s from lsn %d to %d", nd.addr, before, after)
		}
		return re
	}
	want, got := refusal(p), refusal(r)
	if *got != *want {
		t.Fatalf("promoted follower refused with %+v, primary with %+v", *got, *want)
	}
}

// TestReplicaReadsDuringApplyAndReset races a durable replica's
// lock-free reads (Query, Dump, Stats, ReplStats) against live stream
// applies, a divergence reset and a checkpoint re-bootstrap: every read
// must see a committed state of one history (the raise rule's bonus is
// always there), a missing table is the only error (between the reset and
// the bootstrap), and the cumulative counters never go backwards.
func TestReplicaReadsDuringApplyAndReset(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	r := startReplicaDir(t, p.addr, t.TempDir())
	waitCaughtUp(t, r, p.db.CurrentLSN())

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	read := func(f func() error) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := f(); err != nil {
				errc <- err
				return
			}
		}
	}
	wg.Add(4)
	go read(func() error {
		rows, err := r.n.Query(`select name from emp where bonus <> 100`)
		if err != nil {
			if strings.Contains(err.Error(), "does not exist") {
				return nil
			}
			return fmt.Errorf("query: %w", err)
		}
		if len(rows.Data) != 0 {
			return fmt.Errorf("query saw rows without the rule's effect: %v", rows.Data)
		}
		return nil
	})
	go read(func() error {
		var b strings.Builder
		if err := r.n.Dump(&b); err != nil {
			return fmt.Errorf("dump: %w", err)
		}
		return nil
	})
	var last int64
	go read(func() error {
		st := r.n.Stats()
		if st.RecoveredRecords < last {
			return fmt.Errorf("recovered records went backwards: %d -> %d", last, st.RecoveredRecords)
		}
		last = st.RecoveredRecords
		return nil
	})
	go read(func() error {
		_ = r.n.ReplStats()
		return nil
	})

	for i := 0; i < 20; i++ {
		p.exec(t, fmt.Sprintf(`insert into emp values ('a%d', %d, 1, 0);`, i, i))
	}
	waitCaughtUp(t, r, p.db.CurrentLSN())
	applied := r.n.CurrentLSN()

	// Replace the primary with a shorter history whose start is pruned
	// behind a checkpoint: the replica resets, then re-bootstraps from the
	// image while the readers run.
	addr := p.addr
	p.stop(t)
	p2 := restartPrimary(t, t.TempDir(), addr)
	p2.exec(t, testSchema)
	p2.exec(t, `insert into emp values ('b', 1, 1, 0);`)
	if err := p2.db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p2.exec(t, fmt.Sprintf(`insert into emp values ('c%d', %d, 1, 0);`, i, i))
	}
	if p2.db.CurrentLSN() >= applied {
		t.Fatalf("new history too long (%d >= %d); divergence not exercised", p2.db.CurrentLSN(), applied)
	}
	waitFor(t, "replica reset and re-bootstrapped", func() bool {
		return r.n.ReplStats().Resets >= 1 && r.n.CurrentLSN() >= p2.db.CurrentLSN()
	})
	close(stop)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if r.dump(t) != p2.dump(t) {
		t.Fatal("replica diverged from the replacement primary")
	}
}

// TestDemotedPrimaryReplaysDDLOnce: a primary demoted under a promoted
// follower whose history it shares resumes streaming without a reset,
// and a definition record it replays lands in its log exactly once —
// replay never re-logs, though the log stays attached.
func TestDemotedPrimaryReplaysDDLOnce(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	a := startReplicaDir(t, p.addr, t.TempDir())
	waitCaughtUp(t, a, p.db.CurrentLSN())
	epoch, err := a.n.Promote(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.n.Follow(a.addr, epoch); err != nil {
		t.Fatal(err)
	}
	a.exec(t, `create table extra (k int);`)
	a.exec(t, `insert into emp values ('after', 1, 1, 0);`)
	waitCaughtUp(t, p, a.n.CurrentLSN())
	if st := p.n.ReplStats(); st.Resets != 0 || st.Role != "replica" {
		t.Fatalf("demoted primary: %+v; want a replica that never reset", st)
	}
	if got, want := p.db.WALLog().NextLSN(), a.db.WALLog().NextLSN(); got != want {
		t.Fatalf("demoted primary's log ends at %d, the leader's at %d", got-1, want-1)
	}
	if p.dump(t) != a.dump(t) {
		t.Fatal("demoted primary diverged from the new leader")
	}
}
