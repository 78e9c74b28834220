// Tests for group commit: deferred commit durability (AppendCommitAsync +
// WaitDurable), leader/follower fsync sharing and its accounting, sync
// failures poisoning every parked committer, and the background
// interval-sync loop's sticky failure.
package wal

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitSequential: committers arriving one at a time each lead
// their own group of one — the accounting must show exactly that, and
// every record must be durable at WaitDurable return.
func TestGroupCommitSequential(t *testing.T) {
	mem := NewMemFS()
	l, _ := openTest(t, mem, Options{Policy: SyncAlways})
	const n = 5
	for i := 0; i < n; i++ {
		lsn, err := l.AppendCommitAsync(commitRec(i))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := l.WaitDurable(lsn); err != nil {
			t.Fatalf("wait %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.GroupCommits != n || st.GroupedTxns != n {
		t.Fatalf("GroupCommits=%d GroupedTxns=%d, want %d and %d", st.GroupCommits, st.GroupedTxns, n, n)
	}
	if got := st.TxnsPerSync(); got != 1 {
		t.Fatalf("TxnsPerSync = %v, want 1", got)
	}
	// A second wait on an already-durable LSN returns without a new sync.
	if err := l.WaitDurable(uint64(n)); err != nil {
		t.Fatal(err)
	}
	if st2 := l.Stats(); st2.Syncs != st.Syncs {
		t.Fatalf("redundant WaitDurable synced: %d -> %d", st.Syncs, st2.Syncs)
	}

	// Everything acked must be on disk: drop unsynced bytes and recover.
	mem.DropUnsynced()
	_, rec, err := Open(testDir, Options{FS: mem, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != n {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), n)
	}
}

// TestGroupCommitConcurrentDurable hammers the commit queue from many
// goroutines and checks the invariants that must hold under any
// interleaving: every acked record survives a crash, every fsync
// acknowledged at least its leader, and no committer is counted twice
// (GroupCommits <= GroupedTxns <= total commits).
func TestGroupCommitConcurrentDurable(t *testing.T) {
	mem := NewMemFS()
	l, _ := openTest(t, mem, Options{Policy: SyncAlways})
	const (
		committers = 16
		perC       = 25
		total      = committers * perC
	)
	var wg sync.WaitGroup
	errc := make(chan error, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				if err := l.AppendCommit(commitRec(c*perC + i)); err != nil {
					errc <- err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.GroupCommits < 1 || st.GroupCommits > st.GroupedTxns || st.GroupedTxns > total {
		t.Fatalf("accounting out of range: GroupCommits=%d GroupedTxns=%d total=%d",
			st.GroupCommits, st.GroupedTxns, total)
	}
	if got := st.TxnsPerSync(); got < 1 {
		t.Fatalf("TxnsPerSync = %v, want >= 1", got)
	}
	mem.DropUnsynced()
	_, rec, err := Open(testDir, Options{FS: mem, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != total {
		t.Fatalf("recovered %d records, want %d (every acked commit must be durable)", len(rec.Records), total)
	}
}

// TestGroupCommitFaultSyncPoisonsWaiters: when the group fsync fails, the
// leader and every parked follower must fail — none of their transactions
// may be acknowledged — and the log must be sticky-dead afterwards.
func TestGroupCommitFaultSyncPoisonsWaiters(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	l, _ := openTest(t, ffs, Options{Policy: SyncAlways})
	// Open consumed sync #1 (the directory sync); commit appends no longer
	// sync inline, so the next sync is the group leader's: fail it.
	ffs.FailSyncN = 2

	const committers = 8
	var wg sync.WaitGroup
	errs := make([]error, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = l.AppendCommit(commitRec(c))
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err == nil {
			t.Fatalf("committer %d was acknowledged across a failed fsync", c)
		}
		if !errors.Is(err, ErrInjected) && !errors.Is(err, ErrLogFailed) {
			t.Fatalf("committer %d: err = %v, want injected or log-failed", c, err)
		}
	}
	if err := l.AppendCommit(commitRec(99)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after poisoned group sync: %v, want ErrLogFailed", err)
	}
	if st := l.Stats(); st.GroupCommits != 0 {
		t.Fatalf("failed fsync counted as a group commit: %d", st.GroupCommits)
	}
}

// TestFaultIntervalSyncPoisonsLog is the regression test for the
// background sync loop swallowing fsync errors: under SyncInterval, a
// failed ticker sync must poison the log so the next Append (and any
// durability wait) reports ErrLogFailed instead of silently continuing
// over an unsyncable file.
func TestFaultIntervalSyncPoisonsLog(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem)
	l, _ := openTest(t, ffs, Options{Policy: SyncInterval, Interval: time.Millisecond})
	defer l.Close() //nolint:errcheck // the log is poisoned by design
	// Sync #1 was the directory sync at open; the ticker's first segment
	// sync is #2.
	ffs.FailSyncN = 2
	if err := l.AppendCommit(commitRec(0)); err != nil {
		t.Fatalf("append before failing sync: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for l.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background sync failure never poisoned the log")
		}
		time.Sleep(time.Millisecond)
	}
	if err := l.AppendCommit(commitRec(1)); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("append after failed background sync: %v, want ErrLogFailed", err)
	}
	if err := l.WaitDurable(1); !errors.Is(err, ErrLogFailed) {
		t.Fatalf("WaitDurable after failed background sync: %v, want ErrLogFailed", err)
	}
}

// gateFS blocks the first file fsync issued after it is armed until
// release is closed, signalling entered when that fsync starts. Every
// other fsync passes straight through, so a test can run a concurrent
// Log.Sync inside a group-commit leader's fsync window.
type gateFS struct {
	FS
	mu      sync.Mutex
	armed   bool
	entered chan struct{}
	release chan struct{}
}

type gateFile struct {
	File
	fs *gateFS
}

func (g *gateFS) Create(name string) (File, error) {
	f, err := g.FS.Create(name)
	return gateFile{f, g}, err
}

func (g *gateFS) OpenAppend(name string) (File, error) {
	f, err := g.FS.OpenAppend(name)
	return gateFile{f, g}, err
}

func (f gateFile) Sync() error {
	f.fs.mu.Lock()
	first := f.fs.armed
	f.fs.armed = false
	f.fs.mu.Unlock()
	if first {
		close(f.fs.entered)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestGroupCommitCountsOnlyAcknowledgingSyncs: a Log.Sync (a checkpoint's,
// say) that lands while a group-commit leader is inside its fsync makes
// the leader's record durable first. The leader's fsync then acknowledged
// no parked committer and must not count as a group commit; counting it
// left a quiescent log with GroupedTxns < GroupCommits and TxnsPerSync
// below 1.
func TestGroupCommitCountsOnlyAcknowledgingSyncs(t *testing.T) {
	g := &gateFS{FS: NewMemFS(), entered: make(chan struct{}), release: make(chan struct{})}
	l, _ := openTest(t, g, Options{Policy: SyncAlways})
	lsn, err := l.AppendCommitAsync(commitRec(0))
	if err != nil {
		t.Fatal(err)
	}
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
	done := make(chan error, 1)
	go func() { done <- l.WaitDurable(lsn) }()
	<-g.entered // the leader is inside its fsync, outside the log mutex
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	close(g.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	st := l.Stats()
	if st.GroupCommits != 0 || st.GroupedTxns != 0 {
		t.Fatalf("GroupCommits=%d GroupedTxns=%d, want 0 and 0: the leader's fsync acknowledged nobody",
			st.GroupCommits, st.GroupedTxns)
	}
	// The next commit's own fsync is a group of one.
	if lsn, err = l.AppendCommitAsync(commitRec(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if st := l.Stats(); st.GroupCommits != 1 || st.GroupedTxns != 1 {
		t.Fatalf("GroupCommits=%d GroupedTxns=%d after one more commit, want 1 and 1", st.GroupCommits, st.GroupedTxns)
	}
}
