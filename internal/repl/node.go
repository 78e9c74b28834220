package repl

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"sopr"
	"sopr/internal/engine"
	"sopr/internal/wal"
	"sopr/internal/wire"
)

// dialTimeout bounds each connection attempt to the leader.
const dialTimeout = 5 * time.Second

// Config tunes a replication node. Zero values select the defaults.
type Config struct {
	// Leader is the address (host:port) of the soprd to follow. Empty
	// starts the node leading, which needs a durable database. Follow
	// re-points it at failover.
	Leader string
	// SyncFollowers is the number of follower acks each commit waits for
	// while a durable node leads (0 = asynchronous replication).
	SyncFollowers int
	// SyncTimeout bounds the synchronous-commit wait (default 2s); on
	// timeout the commit degrades to an async ack: the write is durable
	// locally and the result carries Synced=false.
	SyncTimeout time.Duration
	// Heartbeat is how often an idle stream session served by this node
	// sends MsgReplHeartbeat (default 1s). Followers size their read
	// deadlines from it.
	Heartbeat time.Duration
	// StreamTimeout is the silence tolerated on the stream before a
	// following node reconnects (default 10s; the leader heartbeats every
	// second when idle).
	StreamTimeout time.Duration
	// AckInterval is the progress-ack cadence (default 200ms). Acks are
	// sent on this timer whenever the applied LSN moved — including when
	// the stream then went idle — so the source's retention pin releases
	// promptly instead of waiting for the next record or heartbeat.
	AckInterval time.Duration
	// ReconnectMin/ReconnectMax bound the reconnect backoff
	// (defaults 100ms / 5s).
	ReconnectMin, ReconnectMax time.Duration
	// Logf receives the node's log lines; nil discards them.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.SyncTimeout <= 0 {
		c.SyncTimeout = 2 * time.Second
	}
	if c.StreamTimeout <= 0 {
		c.StreamTimeout = 10 * time.Second
	}
	if c.AckInterval <= 0 {
		c.AckInterval = 200 * time.Millisecond
	}
	if c.ReconnectMin <= 0 {
		c.ReconnectMin = 100 * time.Millisecond
	}
	if c.ReconnectMax <= 0 {
		c.ReconnectMax = 5 * time.Second
	}
}

// role is a node's place in the single write stream.
type role int

const (
	// following: the stream loop replays the leader's WAL; writes answer
	// ErrReadOnly.
	following role = iota
	// leading: writes run with full rule processing; a durable leader
	// ships its WAL to followers that join its Source.
	leading
	// fenced: the node led an epoch the cluster has moved past; writes
	// answer FencedError until Follow demotes it under the new leader.
	fenced
)

// Node is a replication node: the one server backend for a primary, a
// replica and a promoted replica. It serves everything through one
// sopr.DB — its writes, its lock-free snapshot reads, and, while
// following, the leader's records, which the stream loop replays with
// rule processing disabled under the database's own write mutex (the same
// replay crash recovery runs, so the state cannot diverge from what the
// leader committed).
//
// A durable node (sopr.OpenDurable) keeps its WAL attached in every role:
// replay never re-logs, so a follower's applied records land in the log
// exactly once, a restarted follower resumes from its applied LSN, and
// the node serves stream sessions from its log whether it leads or
// follows — which is how siblings re-point to a promoted follower. An
// in-memory node (sopr.Open) keeps no local state: it rejoins from LSN 0
// after a restart, and after promotion it is a failover stopgap that
// ships nothing (its LSNs are a logical clock, so its siblings go stale).
type Node struct {
	cfg Config
	db  *sopr.DB
	log *wal.Log // db's log; nil in-memory
	src *Source  // serves joins from log; nil in-memory

	// gate orders local writes against role changes: Exec and ExecBatch
	// hold it shared for their engine pass, Promote, Follow and
	// ObserveEpoch hold it exclusively, so no local write is still running
	// when a node starts following or an in-memory leader resets. Lock
	// order: gate, then the database's write mutex, then mu.
	gate sync.RWMutex

	// mu guards the role and the replication status; it is never held
	// across engine work.
	mu         sync.Mutex
	role       role
	fencedBy   uint64 // epoch that fenced the node (role fenced)
	leader     string // upstream address
	memLSN     uint64 // in-memory position: applied LSN, then a logical clock once promoted
	primaryLSN uint64 // last leader LSN seen on the stream
	epoch      uint64 // epoch of the local history (join token)
	known      uint64 // highest epoch observed anywhere (>= epoch)
	connected  bool
	appliedCh  chan struct{} // closed whenever the position or role moves

	resets       int64 // reset-and-rebootstrap cycles
	discarded    int64 // locally-held records dropped by resets
	syncTimeouts int64 // degraded synchronous commits

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	wake     chan struct{} // nudges the stream loop out of parking or backoff

	connMu sync.Mutex
	conn   net.Conn // live stream connection, closed by Close/Promote/Follow
}

// NewNode serves db as a replication node and starts its stream loop: the
// node follows cfg.Leader when set and leads otherwise, which needs a
// durable database. The node owns db from here on; Close closes it. A
// durable database has already recovered its local state, so the node
// joins its leader from the applied LSN.
func NewNode(db *sopr.DB, cfg Config) (*Node, error) {
	cfg.fill()
	n := &Node{
		cfg:    cfg,
		db:     db,
		log:    db.WALLog(),
		leader: cfg.Leader,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		wake:   make(chan struct{}, 1),
	}
	if cfg.Leader == "" {
		if n.log == nil {
			return nil, errors.New("repl: a leading node requires a durable database (no WAL attached)")
		}
		n.role = leading
	}
	if n.log != nil {
		n.epoch, n.known = n.log.Epoch(), n.log.Epoch()
		n.primaryLSN = n.CurrentLSN()
		n.src = newSource(n.log, cfg.Heartbeat, n.ObserveEpoch, n.logf)
	}
	go n.run()
	return n, nil
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// ReplSource exposes the node's stream source: the server serves
// MsgReplJoin sessions through it. Nil on an in-memory node.
func (n *Node) ReplSource() *Source { return n.src }

// Leader reports the current upstream address.
func (n *Node) Leader() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.leader
}

// Promoted reports whether the node currently accepts writes.
func (n *Node) Promoted() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == leading
}

// Epoch reports the highest promotion epoch this node has observed.
func (n *Node) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.known
}

// CurrentLSN reports the node's position, the read-your-writes token: the
// LSN of its published state on a durable node, the applied LSN (or a
// promoted node's logical clock) on an in-memory one.
func (n *Node) CurrentLSN() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.positionLocked()
}

func (n *Node) positionLocked() uint64 {
	if n.log != nil {
		return n.db.CurrentLSN()
	}
	return n.memLSN
}

// advanced records that the node's position moved to lsn and wakes
// read-your-writes waiters. A durable node's position is its published
// snapshot's LSN, so only an in-memory node stores lsn.
func (n *Node) advanced(lsn uint64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.log == nil && lsn > n.memLSN {
		n.memLSN = lsn
	}
	if n.appliedCh != nil {
		close(n.appliedCh)
		n.appliedCh = nil
	}
}

// WaitForLSN blocks until the node has applied lsn, the timeout elapses
// (LagError), or the node leads (a leader is the freshest state there is).
func (n *Node) WaitForLSN(lsn uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		n.mu.Lock()
		have := n.positionLocked()
		if n.role == leading || have >= lsn {
			n.mu.Unlock()
			return nil
		}
		if n.appliedCh == nil {
			n.appliedCh = make(chan struct{})
		}
		ch := n.appliedCh
		n.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return &LagError{Need: lsn, Have: have}
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
	}
}

// --- role changes ---

// ObserveEpoch records that epoch e exists somewhere in the cluster. A
// leader seeing an epoch above its own fences itself on the spot: its
// writes answer FencedError until Follow demotes it under the new leader.
// An in-memory leader also resets — its post-promotion state was never
// shipped anywhere and cannot be reconciled.
func (n *Node) ObserveEpoch(e uint64) {
	n.gate.Lock()
	defer n.gate.Unlock()
	n.mu.Lock()
	if e <= n.known {
		n.mu.Unlock()
		return
	}
	n.known = e
	was := n.role
	if was != following {
		n.role, n.fencedBy = fenced, e
	}
	n.mu.Unlock()
	if was == following {
		return
	}
	n.logf("repl: FENCED by epoch %d; refusing writes until demoted under the new leader", e)
	if was == leading && n.log == nil {
		n.reset()
	}
}

// Promote makes the node writable in a new epoch: max(epoch, highest seen
// + 1), so epochs never move backward. A durable node appends the epoch
// record to its log — from there it is a complete primary: commits are
// logged, siblings can join its Source, sync-commit applies. An in-memory
// node promotes too (rules re-enabled, logical-clock LSNs) but ships no
// WAL. On a leader it is a no-op unless epoch is above every epoch seen,
// which re-opens leadership there — the cluster-client path for
// re-electing a healed ex-primary. The returned epoch is the one opened.
func (n *Node) Promote(epoch uint64) (uint64, error) {
	n.gate.Lock()
	defer n.gate.Unlock()
	var opened, lsn uint64
	changed := false
	// The role flips under the write mutex, so no stream apply can land
	// after the epoch record.
	err := n.db.EngineLocked(func(eng *engine.Engine) error {
		n.mu.Lock()
		was, known := n.role, n.known
		n.mu.Unlock()
		if was == leading && epoch <= known {
			opened = known
			return nil
		}
		opened = max(known+1, epoch)
		if n.log != nil {
			if _, err := n.log.AppendEpoch(opened); err != nil {
				return fmt.Errorf("repl: promote: %w", err)
			}
			eng.PublishSnapshot() // the epoch record moves CurrentLSN
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		changed = true
		n.role, n.fencedBy = leading, 0
		n.epoch, n.known = opened, opened
		lsn = n.positionLocked()
		if n.appliedCh != nil {
			close(n.appliedCh) // a leader satisfies every read-your-writes wait
			n.appliedCh = nil
		}
		return nil
	})
	if err != nil || !changed {
		return opened, err
	}
	n.closeConn()
	n.wakeLoop()
	n.logf("repl: PROMOTED at lsn %d, epoch %d (durable=%v)", lsn, opened, n.log != nil)
	return opened, nil
}

// Follow makes this node a follower of leader in the given epoch. On a
// follower it re-points the stream (the failover path for a promoted
// durable sibling: resume from the applied LSN instead of going stale). On
// a leader or a fenced node it is a demotion order and the epoch must be
// newer than the local history; local writes drain first, and the rejoin
// keeps only the prefix the new leader shares — any unshipped suffix is
// discarded, loudly, on the divergence reset that follows.
func (n *Node) Follow(leader string, epoch uint64) error {
	n.gate.Lock()
	defer n.gate.Unlock()
	n.mu.Lock()
	if epoch < n.known || (n.role == leading && epoch == n.known) {
		cur := n.known
		n.mu.Unlock()
		return &StaleEpochError{Epoch: cur}
	}
	was, oldLeader := n.role, n.leader
	n.role, n.fencedBy, n.leader = following, 0, leader
	n.known = max(n.known, epoch)
	n.mu.Unlock()
	switch {
	case was != following:
		n.logf("repl: DEMOTED into follower of %s at epoch %d; any unshipped suffix will be truncated on rejoin", leader, epoch)
		if was == leading && n.log == nil {
			// An in-memory leader's post-promotion state was never shipped;
			// only a full rebuild can align it with the new leader.
			n.reset()
		}
	case oldLeader != leader:
		n.logf("repl: re-pointing stream from %s to %s (epoch %d)", oldLeader, leader, epoch)
	}
	n.closeConn()
	n.wakeLoop()
	return nil
}

// --- server backend ---

// Exec runs a script with full rule processing while the node leads,
// holding the ack for synchronous followers when configured. A follower
// refuses with ErrReadOnly, a fenced node with FencedError.
func (n *Node) Exec(src string) (*sopr.Result, error) {
	return n.write(func() (*sopr.Result, error) { return n.db.Exec(src) })
}

// ExecBatch runs a batch of statements as one operation block (see
// sopr.DB.ExecBatch) behind the same role gate and synchronous-commit ack
// hold as Exec: the whole block is one commit record, so a sync-commit
// cluster pays one follower-ack wait per batch instead of per statement.
func (n *Node) ExecBatch(stmts []string) (*sopr.Result, error) {
	return n.write(func() (*sopr.Result, error) { return n.db.ExecBatch(stmts) })
}

// write is the role gate around one local write, then the synchronous
// commit hold. The ack wait runs outside the gate, so a demotion never
// waits on follower acks.
func (n *Node) write(run func() (*sopr.Result, error)) (*sopr.Result, error) {
	n.gate.RLock()
	n.mu.Lock()
	r, fencedBy := n.role, n.fencedBy
	before := n.positionLocked()
	n.mu.Unlock()
	if r != leading {
		n.gate.RUnlock()
		if r == fenced {
			return nil, &FencedError{Epoch: fencedBy}
		}
		return nil, ErrReadOnly
	}
	res, err := run()
	if n.log == nil {
		// Keep the logical clock moving: each write advances an in-memory
		// leader's LSN so read-your-writes tokens issued here are strictly
		// newer than anything the old primary's other replicas have
		// applied — it ships no WAL, so those replicas are permanently
		// stale and must answer such tokens with CodeLagging, not old data.
		n.mu.Lock()
		n.memLSN++
		if res != nil {
			res.LSN = n.memLSN
		}
		n.mu.Unlock()
	}
	n.gate.RUnlock()
	if err != nil || res == nil || n.src == nil || n.cfg.SyncFollowers <= 0 || res.LSN <= before {
		return res, err
	}
	if n.src.WaitForAcks(res.LSN, n.cfg.SyncFollowers, n.cfg.SyncTimeout) {
		res.Synced = true
	} else {
		n.mu.Lock()
		n.syncTimeouts++
		n.mu.Unlock()
		n.logf("repl: WARNING sync-commit wait for %d follower ack(s) at lsn %d timed out after %v; acking async",
			n.cfg.SyncFollowers, res.LSN, n.cfg.SyncTimeout)
	}
	return res, nil
}

// Query runs a read-only query against the published snapshot.
func (n *Node) Query(src string) (*sopr.Rows, error) { return n.db.Query(src) }

// Dump writes the published state as an executable script.
func (n *Node) Dump(w io.Writer) error { return n.db.Dump(w) }

// Stats reports the database's engine counters. Stream applies count as
// recovered records; they never group-commit.
func (n *Node) Stats() sopr.Stats { return n.db.Stats() }

// Close stops the stream loop, waits for it to exit, and closes the
// database.
func (n *Node) Close() error {
	n.stopOnce.Do(func() { close(n.stop) })
	n.closeConn()
	<-n.done
	return n.db.Close()
}

// ReplStats reports the node's role, position, epoch, and lag.
func (n *Node) ReplStats() *wire.ReplStats {
	n.mu.Lock()
	st := &wire.ReplStats{
		Role:             "replica",
		LSN:              n.positionLocked(),
		PrimaryLSN:       n.primaryLSN,
		Connected:        n.connected,
		Epoch:            n.known,
		Durable:          n.log != nil,
		Fenced:           n.role == fenced,
		Leader:           n.leader,
		Resets:           n.resets,
		DiscardedRecords: n.discarded,
		SyncTimeouts:     n.syncTimeouts,
	}
	// A leader that has ever followed (at startup or after a demotion)
	// leads by promotion.
	r, followed := n.role, n.leader != ""
	n.mu.Unlock()
	if r == following {
		if st.PrimaryLSN > st.LSN {
			st.Lag = int64(st.PrimaryLSN - st.LSN)
		}
		return st
	}
	st.Role, st.Leader, st.PrimaryLSN, st.Connected = "primary", "", 0, false
	st.Promoted = r == leading && followed
	if n.src != nil {
		st.Followers, st.MinFollowerLSN = n.src.followers()
		st.SyncFollowers = n.cfg.SyncFollowers
	}
	return st
}

// --- stream loop ---

// run drives the stream while the node follows: dial the current leader,
// join, apply until the session drops, back off, rejoin from the applied
// LSN. It parks while the node leads or is fenced, and returns on Close.
func (n *Node) run() {
	defer close(n.done)
	backoff := n.cfg.ReconnectMin
	for {
		select {
		case <-n.stop:
			return
		default:
		}
		n.mu.Lock()
		leader, streaming := n.leader, n.role == following
		n.mu.Unlock()
		var retry <-chan time.Time
		if streaming {
			nc, err := net.DialTimeout("tcp", leader, dialTimeout)
			if err == nil {
				n.setConn(nc)
				start := n.CurrentLSN()
				err = n.stream(nc)
				_ = nc.Close()
				n.setConn(nil)
				n.setConnected(false)
				if n.CurrentLSN() > start {
					backoff = n.cfg.ReconnectMin // the session made progress
				}
			}
			if err != nil && !n.Promoted() {
				n.logf("repl: stream to %s: %v", leader, err)
			}
			retry = time.After(backoff)
		}
		select {
		case <-n.stop:
			return
		case <-n.wake:
			// Re-pointed, demoted, or promoted: re-evaluate immediately.
			backoff = n.cfg.ReconnectMin
			continue
		case <-retry:
		}
		backoff = min(2*backoff, n.cfg.ReconnectMax)
	}
}

func (n *Node) wakeLoop() {
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

func (n *Node) setConn(nc net.Conn) {
	n.connMu.Lock()
	n.conn = nc
	n.connMu.Unlock()
}

func (n *Node) closeConn() {
	n.connMu.Lock()
	if n.conn != nil {
		_ = n.conn.Close()
	}
	n.connMu.Unlock()
}

func (n *Node) setConnected(v bool) {
	n.mu.Lock()
	n.connected = v
	n.mu.Unlock()
}

func (n *Node) setPrimaryLSN(lsn uint64) {
	n.mu.Lock()
	if lsn > n.primaryLSN {
		n.primaryLSN = lsn
	}
	n.mu.Unlock()
}

// stream runs one session: join at the applied LSN with the local
// history's epoch, then decode and apply frames until the connection
// breaks, the leader goes silent, or the leader turns out to be stale.
func (n *Node) stream(nc net.Conn) error {
	n.mu.Lock()
	from, hist := n.positionLocked(), n.epoch
	n.mu.Unlock()
	if err := nc.SetWriteDeadline(time.Now().Add(n.cfg.StreamTimeout)); err != nil {
		return err
	}
	if err := wire.WriteMessage(nc, wire.MsgReplJoin, &wire.ReplJoinRequest{FromLSN: from, Epoch: hist}, wire.ReplMaxFrame); err != nil {
		return fmt.Errorf("join: %w", err)
	}

	var snap []wal.CkptPart // in-flight checkpoint bootstrap

	// Acks share the connection with this loop's reads only, but two
	// writers exist: the forced acks below and the idle ticker goroutine.
	var ackMu sync.Mutex
	acked := from
	sendAck := func(force bool) error {
		ackMu.Lock()
		defer ackMu.Unlock()
		n.mu.Lock()
		app, known := n.positionLocked(), n.known
		n.mu.Unlock()
		if app == acked && !force {
			return nil
		}
		if err := nc.SetWriteDeadline(time.Now().Add(n.cfg.StreamTimeout)); err != nil {
			return err
		}
		if err := wire.WriteMessage(nc, wire.MsgReplAck, &wire.ReplAck{LSN: app, Epoch: known}, wire.ReplMaxFrame); err != nil {
			return fmt.Errorf("ack: %w", err)
		}
		acked = app
		return nil
	}

	// The ack ticker keeps the source's retention pin moving even when no
	// new frame prompts an ack — without it, rapid applies followed by an
	// idle stream leave the last rate-limited ack unsent until the next
	// heartbeat, pinning WAL segments the whole while.
	tickStop := make(chan struct{})
	defer close(tickStop)
	go func() {
		t := time.NewTicker(n.cfg.AckInterval)
		defer t.Stop()
		for {
			select {
			case <-tickStop:
				return
			case <-t.C:
				if err := sendAck(false); err != nil {
					_ = nc.Close() // surface on the main read loop
					return
				}
			}
		}
	}()

	for {
		if err := nc.SetReadDeadline(time.Now().Add(n.cfg.StreamTimeout)); err != nil {
			return err
		}
		typ, payload, err := wire.ReadFrame(nc, wire.ReplMaxFrame)
		if err != nil {
			return fmt.Errorf("read stream: %w", err)
		}
		msg, err := wire.DecodeReplStream(typ, payload)
		if err != nil {
			return err
		}
		n.setConnected(true)
		switch m := msg.(type) {
		case *wire.ErrorResponse:
			switch m.Code {
			case wire.CodeDiverged:
				// Our history forked from this leader's (an unshipped
				// suffix, or state restored from an older backup). Drop
				// everything and rebuild from its checkpoint on rejoin.
				n.reset()
				return fmt.Errorf("leader reports divergence (%s); reset for re-bootstrap", m.Message)
			case wire.CodeFenced:
				// We fenced the source: it is staler than our own history.
				// Disconnect; Follow will re-point us at the real leader.
				return fmt.Errorf("source is stale (our epoch fences it): %s", m.Message)
			}
			return fmt.Errorf("leader refused stream: %s: %s", m.Code, m.Message)
		case *wire.ReplSnapFrame:
			snap = append(snap, wal.CkptPart{Kind: m.Kind, Payload: m.Payload})
			if m.Kind == wal.KindCkptEnd {
				if err := n.installSnapshot(snap); err != nil {
					n.reset()
					return fmt.Errorf("install snapshot: %w", err)
				}
				snap = nil
				if err := sendAck(true); err != nil {
					return err
				}
			}
		case *wire.ReplRecord:
			if snap != nil {
				return fmt.Errorf("record lsn %d arrived inside a snapshot", m.LSN)
			}
			if m.Epoch != 0 && m.Epoch < n.Epoch() {
				return fmt.Errorf("stream record from stale epoch %d (cluster is at %d); disconnecting", m.Epoch, n.Epoch())
			}
			if err := n.applyRecord(m); err != nil {
				return err
			}
			n.setPrimaryLSN(m.LSN)
			if err := sendAck(false); err != nil {
				return err
			}
		case *wire.ReplHeartbeat:
			if m.Epoch != 0 && m.Epoch < n.Epoch() {
				return fmt.Errorf("heartbeat from stale epoch %d (cluster is at %d); disconnecting", m.Epoch, n.Epoch())
			}
			n.setPrimaryLSN(m.LSN)
			if err := sendAck(true); err != nil {
				return err
			}
		}
	}
}

// installSnapshot replaces the database in place with checkpoint parts,
// exactly as crash recovery loads a checkpoint image. A durable node
// first seeds its own log with the image (InstallCheckpoint), so its
// local history carries the same coverage — and epoch table — as the
// leader's.
func (n *Node) installSnapshot(parts []wal.CkptPart) error {
	ck, err := wal.AssembleCheckpoint(parts)
	if err != nil {
		return err
	}
	err = n.db.EngineLocked(func(eng *engine.Engine) error {
		if !n.isFollowing() {
			return errors.New("no longer following")
		}
		if n.log != nil {
			if _, err := n.log.InstallCheckpoint(parts); err != nil {
				return err
			}
		}
		if err := eng.LoadCheckpoint(ck); err != nil {
			return err
		}
		n.mu.Lock()
		defer n.mu.Unlock()
		n.memLSN = ck.Meta.LSN
		if n.log != nil {
			n.epoch = n.log.Epoch()
		} else {
			// The image's epoch is at most the leader's; in-memory nodes
			// learn the exact value from in-band epoch records.
			n.epoch = 0
		}
		n.known = max(n.known, n.epoch)
		return nil
	})
	if err != nil {
		return err
	}
	n.advanced(ck.Meta.LSN)
	n.setPrimaryLSN(ck.Meta.LSN)
	n.logf("repl: installed checkpoint image at lsn %d", ck.Meta.LSN)
	return nil
}

func (n *Node) isFollowing() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.role == following
}

// applyRecord replays one WAL record under the database's write mutex,
// enforcing LSN continuity. A durable node appends the record to its own
// log before the engine applies it (log-before-apply: a crash between the
// two replays the record from the local log at restart). An apply failure
// resets the node: partial application of a composed net effect cannot be
// reconciled in place, but a checkpoint re-bootstrap always can.
func (n *Node) applyRecord(m *wire.ReplRecord) error {
	raw := wal.RawRecord{LSN: m.LSN, Kind: m.Kind, Payload: m.Payload}
	rec, err := raw.Decode()
	if err != nil {
		return fmt.Errorf("decode record lsn %d: %w", m.LSN, err)
	}
	err = n.db.EngineLocked(func(eng *engine.Engine) error {
		if !n.isFollowing() {
			return fmt.Errorf("no longer following; discarding record lsn %d", m.LSN)
		}
		if want := n.CurrentLSN() + 1; m.LSN != want {
			return fmt.Errorf("stream gap: got record lsn %d, want %d", m.LSN, want)
		}
		if n.log != nil {
			if err := n.log.AppendRaw(raw); err != nil {
				n.resetLocked(eng)
				return fmt.Errorf("append record lsn %d to local log failed; reset for re-bootstrap: %w", m.LSN, err)
			}
		}
		if err := eng.ReplayRecord(rec); err != nil {
			n.resetLocked(eng)
			return fmt.Errorf("apply record lsn %d failed; reset for re-bootstrap: %w", m.LSN, err)
		}
		// Publish per applied record so snapshot-based reads (Query, Dump,
		// Stats) see replicated state as it arrives. This re-freezes the
		// touched tables — the next record pays one copy-on-write clone —
		// which is the price of per-record read visibility; bulk recovery
		// paths publish once at the end instead (see engine.ReplayRecord).
		eng.PublishSnapshot()
		if rec.Kind == wal.KindEpoch {
			n.mu.Lock()
			n.epoch = max(n.epoch, rec.Epoch.Epoch)
			n.known = max(n.known, rec.Epoch.Epoch)
			n.mu.Unlock()
		}
		n.advanced(m.LSN)
		return nil
	})
	if err == nil && rec.Kind == wal.KindEpoch {
		n.logf("repl: adopted epoch %d at lsn %d", rec.Epoch.Epoch, m.LSN)
	}
	return err
}

// reset discards all local state — a durable node's log included — so the
// next join starts from LSN 0 (checkpoint bootstrap). Discarded records
// are reported loudly: a returning primary's unshipped suffix dies here,
// visibly.
func (n *Node) reset() {
	_ = n.db.EngineLocked(func(eng *engine.Engine) error {
		n.resetLocked(eng)
		return nil
	})
}

// resetLocked is reset with the database's write mutex held.
func (n *Node) resetLocked(eng *engine.Engine) {
	discarded := n.CurrentLSN()
	if n.log != nil {
		if err := n.log.Reset(); err != nil {
			n.logf("repl: RESET FAILED to clear local log: %v (node may be unable to recover locally)", err)
		}
	}
	if err := eng.LoadCheckpoint(nil); err != nil {
		n.logf("repl: RESET FAILED to clear the database: %v", err)
	}
	n.mu.Lock()
	n.memLSN, n.primaryLSN, n.epoch = 0, 0, 0
	n.resets++
	n.discarded += int64(discarded)
	n.mu.Unlock()
	if discarded > 0 {
		n.logf("repl: RESET discarded %d locally-held records (history diverged from the leader); rebootstrapping from scratch", discarded)
	}
}
