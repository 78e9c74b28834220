// The segmented append-only log. A data directory holds numbered segment
// files plus checkpoint files:
//
//	wal-0000000000000001.log      records with LSN >= 1
//	wal-0000000000000042.log      records with LSN >= 42
//	checkpoint-0000000000000041.ckpt   full state through LSN 41
//
// A segment's name is the LSN of its first record; LSNs within a segment
// are consecutive, so every record's LSN is implied by its position and
// verified against the one stored in its frame. Open replays the newest
// loadable checkpoint plus the record tail after it, truncating a torn
// final segment. Append goes to the last segment, rotating at SegmentSize.
// WriteCheckpoint rotates, writes the checkpoint atomically, and prunes
// segments (and older checkpoints) that the new checkpoint covers.
package wal

import (
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: a transaction reported
	// committed is durable. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer: a crash loses at most the
	// last interval's transactions, never corrupts the log.
	SyncInterval
	// SyncNever leaves persistence to the operating system.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy converts a -fsync flag value.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// Options configure a Log at Open. Zero values select the defaults.
type Options struct {
	// FS is the filesystem to write through (default the real one).
	FS FS
	// Policy is the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// Interval is the background sync period for SyncInterval (default
	// 100ms).
	Interval time.Duration
	// SegmentSize is the rotation threshold in bytes (default 4 MiB).
	SegmentSize int64
	// KeepCheckpoints is how many checkpoint files survive pruning
	// (default 2: the newest plus one fallback).
	KeepCheckpoints int
}

const (
	defaultInterval    = 100 * time.Millisecond
	defaultSegmentSize = 4 << 20
	segPrefix          = "wal-"
	segSuffix          = ".log"
	ckptPrefix         = "checkpoint-"
	ckptSuffix         = ".ckpt"
)

// ErrLogFailed wraps the first append or sync error; once it happens the
// log refuses all further writes. The in-memory database may be ahead of
// the durable log at that point, so continuing to acknowledge commits
// would lie to clients — the owner should surface the error and stop.
var ErrLogFailed = errors.New("wal: log failed; no further writes accepted")

// Stats are cumulative counters over the log's lifetime.
type Stats struct {
	Appends int64 // records appended
	Bytes   int64 // bytes appended (framing included)
	Syncs   int64 // fsync calls issued
	// Group commit (SyncAlways): GroupCommits counts leader fsyncs issued
	// from WaitDurable that acknowledged at least one parked committer,
	// GroupedTxns counts the committers those fsyncs covered, so
	// GroupedTxns >= GroupCommits. GroupedTxns/GroupCommits is the
	// amortization factor — how many transactions each durable-path fsync
	// acknowledged.
	GroupCommits int64
	GroupedTxns  int64
}

// TxnsPerSync reports the group-commit amortization factor: committers
// acknowledged per leader fsync. 0 before any group commit; 1.0 means no
// overlap (every committer synced alone); >1 means fsyncs were shared.
func (s Stats) TxnsPerSync() float64 {
	if s.GroupCommits == 0 {
		return 0
	}
	return float64(s.GroupedTxns) / float64(s.GroupCommits)
}

// Recovery reports what Open found in the data directory.
type Recovery struct {
	// Checkpoint is the newest loadable checkpoint, nil if none.
	Checkpoint *Checkpoint
	// Records is the log tail after the checkpoint, in LSN order.
	Records []Record
	// TruncatedBytes counts torn-tail bytes discarded from the final
	// segment.
	TruncatedBytes int64
	// SkippedCheckpoints lists checkpoint files that failed to load and
	// were passed over for an older one.
	SkippedCheckpoints []string
}

// Log is an open write-ahead log. Its methods are safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	fs   FS
	dir  string
	opts Options

	seg     File   // active segment
	segName string // its path
	segSize int64
	nextLSN uint64
	stats   Stats
	failed  error // sticky first write failure
	closed  bool

	// Group commit (SyncAlways; see WaitDurable). durable is the highest
	// LSN known fsynced: every inline sync (append, rotate, Sync, Close)
	// advances it, and a group-commit leader advances it to the horizon
	// its fsync covered. syncing marks a leader mid-fsync outside l.mu —
	// at most one at a time, so concurrent committers coalesce onto the
	// in-flight sync instead of each issuing their own. groupWake is
	// signaled when durable advances, the leader slot frees, or the log
	// fails or closes. parked counts the committers currently inside
	// WaitDurable per LSN, so a leader can account exactly how many
	// transactions its fsync acknowledged.
	durable   uint64
	syncing   bool
	groupWake *sync.Cond
	parked    map[uint64]int

	syncStop chan struct{}
	syncDone chan struct{}

	// pins are retention horizons held by stream readers (see tail.go):
	// prune keeps every record at or after the minimum pinned LSN.
	pins map[*Pin]uint64
	// appendCh wakes tailing readers parked in Appended.
	appendCh chan struct{}

	// epoch is the current promotion epoch; marks is the full ascending
	// epoch table (see epoch.go). Both recovered at Open from the newest
	// checkpoint's meta plus any epoch records in the tail.
	epoch uint64
	marks []EpochMark
}

func segName(firstLSN uint64) string {
	return fmt.Sprintf("%s%016d%s", segPrefix, firstLSN, segSuffix)
}

func ckptName(lsn uint64) string {
	return fmt.Sprintf("%s%016d%s", ckptPrefix, lsn, ckptSuffix)
}

// parseSeq extracts the LSN from a segment or checkpoint file name.
func parseSeq(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open opens (creating if necessary) the log in dir and returns the
// recovered state. The caller replays Recovery into its engine before
// appending. Open never panics on corrupt input: a torn final segment is
// truncated; a checkpoint that fails to load falls back to an older one;
// anything else — corruption that would silently lose acknowledged
// transactions — is a fatal error, and the caller must refuse to serve.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	if opts.FS == nil {
		opts.FS = OS{}
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultInterval
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = defaultSegmentSize
	}
	if opts.KeepCheckpoints <= 0 {
		opts.KeepCheckpoints = 2
	}
	fs := opts.FS
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: create dir: %w", err)
	}
	names, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list dir: %w", err)
	}

	var segStarts []uint64
	var ckptLSNs []uint64
	for _, name := range names {
		if n, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segStarts = append(segStarts, n)
		}
		if n, ok := parseSeq(name, ckptPrefix, ckptSuffix); ok {
			ckptLSNs = append(ckptLSNs, n)
		}
	}
	sort.Slice(segStarts, func(i, j int) bool { return segStarts[i] < segStarts[j] })
	sort.Slice(ckptLSNs, func(i, j int) bool { return ckptLSNs[i] < ckptLSNs[j] })

	rec := &Recovery{}

	// Newest loadable checkpoint wins; unreadable ones are skipped with a
	// note (the fallback is only sound because segments are pruned after,
	// never before, a checkpoint is fully durable).
	ckptLSN := uint64(0)
	for i := len(ckptLSNs) - 1; i >= 0; i-- {
		path := filepath.Join(dir, ckptName(ckptLSNs[i]))
		ck, err := loadCheckpoint(fs, path)
		if err != nil {
			rec.SkippedCheckpoints = append(rec.SkippedCheckpoints, fmt.Sprintf("%s: %v", path, err))
			continue
		}
		rec.Checkpoint = ck
		ckptLSN = ck.Meta.LSN
		break
	}

	// Read every segment; only the last may be torn.
	type segInfo struct {
		start uint64
		recs  []rawRecord
	}
	var segs []segInfo
	for i, start := range segStarts {
		path := filepath.Join(dir, segName(start))
		data, err := readAll(fs, path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read segment %s: %w", path, err)
		}
		recs, validLen := scanFrames(data)
		if validLen < len(data) {
			if i != len(segStarts)-1 {
				return nil, nil, fmt.Errorf("wal: segment %s is corrupt at offset %d but is not the final segment; refusing to recover past a hole", path, validLen)
			}
			if err := fs.Truncate(path, int64(validLen)); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
			}
			rec.TruncatedBytes = int64(len(data) - validLen)
		}
		for j, r := range recs {
			if want := start + uint64(j); r.lsn != want {
				return nil, nil, fmt.Errorf("wal: segment %s record %d has lsn %d, want %d", path, j, r.lsn, want)
			}
		}
		segs = append(segs, segInfo{start: start, recs: recs})
	}

	// Continuity: each segment must pick up where the previous ended.
	next := uint64(0)
	for _, s := range segs {
		if next != 0 && s.start != next {
			return nil, nil, fmt.Errorf("wal: gap in log: segment %s starts at lsn %d, expected %d", segName(s.start), s.start, next)
		}
		next = s.start + uint64(len(s.recs))
	}

	// Coverage: the loaded checkpoint plus the surviving segments must
	// reach back to LSN 1 with no hole between them. If the newest
	// checkpoint failed to load, the records it covered may already be
	// pruned — recovering from an older checkpoint (or from nothing) would
	// then silently drop acknowledged transactions, so refuse instead.
	if len(segs) > 0 && segs[0].start > ckptLSN+1 {
		return nil, nil, fmt.Errorf("wal: checkpoint covers through lsn %d but the oldest segment starts at lsn %d; records between them were pruned against a checkpoint that did not load", ckptLSN, segs[0].start)
	}
	if len(segs) == 0 && rec.Checkpoint == nil && len(rec.SkippedCheckpoints) > 0 {
		return nil, nil, fmt.Errorf("wal: no checkpoint loads and no log segments survive: %s", strings.Join(rec.SkippedCheckpoints, "; "))
	}

	// Decode the tail after the checkpoint.
	for _, s := range segs {
		for _, raw := range s.recs {
			if raw.lsn <= ckptLSN {
				continue
			}
			r, err := decodeRecord(raw)
			if err != nil {
				return nil, nil, err
			}
			rec.Records = append(rec.Records, r)
		}
	}
	if len(rec.Records) > 0 && rec.Records[0].LSN != ckptLSN+1 {
		return nil, nil, fmt.Errorf("wal: checkpoint covers through lsn %d but the oldest surviving record is lsn %d; segments are missing", ckptLSN, rec.Records[0].LSN)
	}
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		if tail := last.start + uint64(len(last.recs)); ckptLSN+1 > tail {
			// The checkpoint is newer than every surviving record; fine —
			// appends resume after the checkpoint LSN.
			next = ckptLSN + 1
		}
	} else {
		next = ckptLSN + 1
	}
	if next == 0 {
		next = 1
	}

	l := &Log{fs: fs, dir: dir, opts: opts, nextLSN: next, parked: make(map[uint64]int)}
	l.groupWake = sync.NewCond(&l.mu)
	// Everything recovered is on disk already; durability waits start at
	// the recovered horizon.
	l.durable = next - 1

	// Rebuild the epoch table: the checkpoint's meta carries every boundary
	// it covered; epoch records in the tail extend it.
	if rec.Checkpoint != nil {
		l.marks = append(l.marks, rec.Checkpoint.Meta.Epochs...)
	}
	for _, r := range rec.Records {
		if r.Kind == KindEpoch && r.Epoch != nil {
			l.marks = append(l.marks, EpochMark{Epoch: r.Epoch.Epoch, LSN: r.LSN})
		}
	}
	for i := 1; i < len(l.marks); i++ {
		if l.marks[i].Epoch <= l.marks[i-1].Epoch || l.marks[i].LSN <= l.marks[i-1].LSN {
			return nil, nil, fmt.Errorf("wal: epoch table out of order: epoch %d at lsn %d follows epoch %d at lsn %d",
				l.marks[i].Epoch, l.marks[i].LSN, l.marks[i-1].Epoch, l.marks[i-1].LSN)
		}
	}
	if len(l.marks) > 0 {
		l.epoch = l.marks[len(l.marks)-1].Epoch
	}

	// Open the active segment: the last one if its LSNs continue the
	// stream, else a fresh segment starting at nextLSN.
	if len(segs) > 0 {
		last := segs[len(segs)-1]
		if last.start+uint64(len(last.recs)) == next {
			l.segName = filepath.Join(dir, segName(last.start))
			size, err := fs.Size(l.segName)
			if err != nil {
				return nil, nil, fmt.Errorf("wal: stat active segment: %w", err)
			}
			f, err := fs.OpenAppend(l.segName)
			if err != nil {
				return nil, nil, fmt.Errorf("wal: open active segment: %w", err)
			}
			l.seg, l.segSize = f, size
		}
	}
	if l.seg == nil {
		if err := l.startSegment(next); err != nil {
			return nil, nil, err
		}
	}

	if opts.Policy == SyncInterval {
		l.syncStop = make(chan struct{})
		l.syncDone = make(chan struct{})
		go l.syncLoop()
	}
	return l, rec, nil
}

// readAll reads a whole file through the FS.
func readAll(fs FS, path string) ([]byte, error) {
	f, err := fs.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	cerr := f.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, cerr
	}
	return data, nil
}

// startSegment creates and switches to a fresh segment whose first record
// will be firstLSN. Callers hold l.mu (or are in Open, pre-publication).
func (l *Log) startSegment(firstLSN uint64) error {
	name := filepath.Join(l.dir, segName(firstLSN))
	f, err := l.fs.Create(name)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		_ = f.Close()
		return fmt.Errorf("wal: sync dir after creating segment: %w", err)
	}
	l.seg, l.segName, l.segSize = f, name, 0
	return nil
}

// rotate closes the active segment (after syncing it) and starts a new one.
// Callers hold l.mu.
func (l *Log) rotate() error {
	if err := l.seg.Sync(); err != nil {
		return fmt.Errorf("wal: sync before rotate: %w", err)
	}
	l.stats.Syncs++
	l.advanceDurable(l.nextLSN - 1)
	if err := l.seg.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	return l.startSegment(l.nextLSN)
}

// advanceDurable records that every LSN through lsn is fsynced. Callers
// hold l.mu and have just observed a successful sync covering lsn.
func (l *Log) advanceDurable(lsn uint64) {
	if lsn > l.durable {
		l.durable = lsn
	}
}

// AppendCommit appends one committed transaction's net effect. With
// SyncAlways the record is durable when AppendCommit returns.
func (l *Log) AppendCommit(rec *CommitRecord) error {
	lsn, err := l.AppendCommitAsync(rec)
	if err != nil {
		return err
	}
	return l.WaitDurable(lsn)
}

// AppendCommitAsync appends one committed transaction's net effect
// without waiting for durability and returns the record's LSN. The
// caller must not acknowledge the transaction until WaitDurable(lsn)
// returns nil: keeping the fsync out of the append — and out of
// whatever write lock the caller holds — is what lets concurrent
// committers share one group-commit fsync.
func (l *Log) AppendCommitAsync(rec *CommitRecord) (uint64, error) {
	payload, err := marshalPayload(rec)
	if err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.nextLSN
	if err := l.appendLockedSync(KindCommit, payload, false); err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendDDL appends one definition statement.
func (l *Log) AppendDDL(stmt string) error {
	payload, err := marshalPayload(&DDLRecord{Stmt: stmt})
	if err != nil {
		return err
	}
	return l.append(KindDDL, payload)
}

func (l *Log) append(kind byte, payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appendLocked(kind, payload)
}

// appendLocked frames and writes one record at l.nextLSN. Callers hold l.mu.
func (l *Log) appendLocked(kind byte, payload []byte) error {
	return l.appendLockedSync(kind, payload, true)
}

// appendLockedSync is appendLocked with the SyncAlways inline fsync made
// optional: commit records pass sync=false and defer their durability to
// WaitDurable, so the fsync happens outside the append (and outside the
// caller's write lock) where concurrent committers can share it. Callers
// hold l.mu.
func (l *Log) appendLockedSync(kind byte, payload []byte, sync bool) error {
	if l.failed != nil {
		return fmt.Errorf("%w: %w", ErrLogFailed, l.failed)
	}
	if l.closed {
		return errors.New("wal: log is closed")
	}
	if l.segSize >= l.opts.SegmentSize {
		if err := l.rotate(); err != nil {
			l.failed = err
			return err
		}
	}
	frame := encodeFrame(kind, l.nextLSN, payload)
	n, err := l.seg.Write(frame)
	l.segSize += int64(n)
	l.stats.Bytes += int64(n)
	if err != nil {
		// The tail may be torn; recovery will truncate it. Refuse further
		// writes so no later record can make the tear look like a hole.
		l.failed = err
		return fmt.Errorf("wal: append: %w", err)
	}
	if sync && l.opts.Policy == SyncAlways {
		if err := l.seg.Sync(); err != nil {
			l.failed = err
			return fmt.Errorf("wal: sync: %w", err)
		}
		l.stats.Syncs++
		l.advanceDurable(l.nextLSN)
	}
	l.nextLSN++
	l.stats.Appends++
	l.signalAppend()
	return nil
}

// Sync forces the active segment to disk.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("%w: %w", ErrLogFailed, l.failed)
	}
	if l.closed || l.seg == nil {
		return nil
	}
	if err := l.seg.Sync(); err != nil {
		l.failed = err
		l.groupWake.Broadcast()
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.stats.Syncs++
	l.advanceDurable(l.nextLSN - 1)
	l.groupWake.Broadcast()
	return nil
}

// WaitDurable blocks until every record with LSN at or below lsn is
// fsynced, or returns the log's sticky error — after poisoning, no
// commit is ever acknowledged again. Under SyncAlways this is the group
// commit point: committers append under the log mutex, then park here;
// one becomes the leader, captures the current append horizon, issues a
// single fsync outside the mutex (so later committers keep appending),
// and wakes every parked committer the fsync covered. Committers whose
// records landed during the in-flight fsync are beyond the captured
// horizon and wait for the next leader — an fsync only ever acknowledges
// the prefix it provably covered. Under SyncInterval and SyncNever it
// returns immediately: durability is the background syncer's (or the
// operating system's) business, and the caller accepted that window.
func (l *Log) WaitDurable(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("%w: %w", ErrLogFailed, l.failed)
	}
	if l.opts.Policy != SyncAlways || lsn <= l.durable {
		return nil
	}
	if lsn >= l.nextLSN {
		return fmt.Errorf("wal: wait durable lsn %d: not appended (next lsn %d)", lsn, l.nextLSN)
	}
	l.parked[lsn]++
	defer func() {
		if l.parked[lsn]--; l.parked[lsn] <= 0 {
			delete(l.parked, lsn)
		}
	}()
	for {
		if l.failed != nil {
			return fmt.Errorf("%w: %w", ErrLogFailed, l.failed)
		}
		if lsn <= l.durable {
			return nil
		}
		if l.closed {
			return errors.New("wal: log is closed")
		}
		if l.syncing {
			l.groupWake.Wait()
			continue
		}
		// Become the leader: capture the covered horizon and the active
		// segment under the mutex, fsync outside it, then acknowledge
		// exactly the captured prefix.
		l.syncing = true
		seg, target := l.seg, l.nextLSN-1
		l.mu.Unlock()
		serr := seg.Sync()
		l.mu.Lock()
		l.syncing = false
		if serr != nil {
			if l.failed == nil && l.seg != seg && l.durable >= target {
				// The segment was rotated away (or checkpointed) while we
				// were syncing it: rotation fsyncs a segment before closing
				// it and advances the durable horizon, so the captured
				// prefix is already safe and the error is just "file
				// closed". A genuine rotation-sync failure would have set
				// l.failed, which the check above rules out.
				l.groupWake.Broadcast()
				continue
			}
			if l.failed == nil {
				l.failed = serr
			}
			l.groupWake.Broadcast()
			return fmt.Errorf("wal: sync: %w", serr)
		}
		l.stats.Syncs++
		prev := l.durable
		l.advanceDurable(target)
		// Count the committers this fsync acknowledged: parked entries in
		// (prev durable, target]. Entries at or below the previous horizon
		// were satisfied by an earlier sync and just have not woken yet —
		// counting them again would inflate TxnsPerSync. An fsync that
		// acknowledged nobody (a concurrent Sync, say a checkpoint's,
		// already covered the whole prefix) is not a group commit.
		var grouped int64
		for plsn, n := range l.parked {
			if plsn > prev && plsn <= target {
				grouped += int64(n)
			}
		}
		if grouped > 0 {
			l.stats.GroupCommits++
			l.stats.GroupedTxns += grouped
		}
		l.groupWake.Broadcast()
	}
}

func (l *Log) syncLoop() {
	defer close(l.syncDone)
	t := time.NewTicker(l.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := l.Sync(); err != nil {
				// The sticky error is recorded: every subsequent Append,
				// WaitDurable, and commit acknowledgement fails with
				// ErrLogFailed, so a background fsync failure can never be
				// followed by a successfully-acked transaction. The log is
				// dead; stop ticking.
				return
			}
		case <-l.syncStop:
			return
		}
	}
}

// Err reports the sticky failure, nil while the log is healthy.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failed
}

// Stats snapshots the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// NextLSN reports the LSN the next append will receive.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// Close syncs and closes the active segment and stops the background
// syncer. Appending after Close fails.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	stop := l.syncStop
	l.mu.Unlock()
	if stop != nil {
		close(stop)
		<-l.syncDone
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// Committers parked in WaitDurable must not sleep through the close:
	// wake them so they observe l.closed (or the advanced durable horizon
	// from the final sync below) and return.
	defer l.groupWake.Broadcast()
	if l.seg == nil {
		return nil
	}
	var firstErr error
	if l.failed == nil {
		if err := l.seg.Sync(); err != nil {
			firstErr = err
		} else {
			l.stats.Syncs++
			l.advanceDurable(l.nextLSN - 1)
		}
	}
	if err := l.seg.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	l.seg = nil
	return firstErr
}

// WriteCheckpoint rotates to a fresh segment, writes a checkpoint covering
// every record appended so far (the build callback streams the database
// image through a CheckpointWriter), then prunes fully-covered segments
// and all but the newest KeepCheckpoints checkpoint files. A failure while
// writing the checkpoint leaves the log fully usable: the previous
// checkpoint and the unpruned segments still recover everything.
func (l *Log) WriteCheckpoint(build func(*CheckpointWriter) error) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return fmt.Errorf("%w: %w", ErrLogFailed, l.failed)
	}
	if l.closed {
		return errors.New("wal: log is closed")
	}
	lsn := l.nextLSN - 1 // everything through here is in the image
	if l.segSize > 0 {
		if err := l.rotate(); err != nil {
			l.failed = err
			return err
		}
	}
	path := filepath.Join(l.dir, ckptName(lsn))
	epochs := append([]EpochMark(nil), l.marks...)
	if err := writeCheckpoint(l.fs, path, lsn, epochs, build); err != nil {
		return fmt.Errorf("wal: write checkpoint: %w", err)
	}
	l.prune(lsn)
	return nil
}

// prune removes segments fully covered by the checkpoint at lsn and all
// but the newest KeepCheckpoints checkpoints. Segments holding records a
// stream reader still needs survive regardless: the effective horizon is
// capped just below the minimum pinned LSN, so a lagging follower's resume
// point is never deleted out from under it. Pruning is best-effort:
// leftovers cost disk, not correctness, so errors are not fatal. Callers
// hold l.mu.
func (l *Log) prune(lsn uint64) {
	if min, ok := l.minPinnedLSN(); ok {
		if min == 0 {
			return // a zero pin retains the whole log
		}
		if min-1 < lsn {
			lsn = min - 1
		}
	}
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		return
	}
	var segStarts, ckptLSNs []uint64
	for _, name := range names {
		if n, ok := parseSeq(name, segPrefix, segSuffix); ok {
			segStarts = append(segStarts, n)
		}
		if n, ok := parseSeq(name, ckptPrefix, ckptSuffix); ok {
			ckptLSNs = append(ckptLSNs, n)
		}
	}
	sort.Slice(segStarts, func(i, j int) bool { return segStarts[i] < segStarts[j] })
	sort.Slice(ckptLSNs, func(i, j int) bool { return ckptLSNs[i] < ckptLSNs[j] })
	// A segment is removable when the next segment starts at or before
	// lsn+1 (so every record it holds is <= lsn). The active segment is
	// never removable: it starts at lsn+1 or later... except when it is
	// also where appends go, so skip it by name.
	for i, start := range segStarts {
		if i == len(segStarts)-1 {
			break
		}
		if segStarts[i+1] <= lsn+1 {
			name := filepath.Join(l.dir, segName(start))
			if name != l.segName {
				_ = l.fs.Remove(name) // best effort
			}
		}
	}
	for i, n := range ckptLSNs {
		if len(ckptLSNs)-i > l.opts.KeepCheckpoints {
			_ = l.fs.Remove(filepath.Join(l.dir, ckptName(n))) // best effort
		}
	}
	_ = l.fs.SyncDir(l.dir) // best effort
}
