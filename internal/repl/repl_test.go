// End-to-end replication tests: a real durable primary serving stream
// sessions, real followers replaying them, and real clients routing
// around them. The invariant under test everywhere: a follower's state at
// LSN n is byte-identical (as a dump) to the primary's state at LSN n, no
// matter how the stream got there — live tail, checkpoint bootstrap,
// kill/rejoin, primary restart, or a connection that keeps dying mid-frame.
package repl_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/repl"
	"sopr/internal/server"
	"sopr/internal/wire"
)

const testSchema = `
create table emp (name string, dno int, sal int, bonus int);
create rule raise when inserted into emp
then update emp set bonus = 100 where name in (select name from inserted emp) end;
`

// node is a repl.Node fronted by a server, as soprd runs it.
type node struct {
	addr string
	db   *sopr.DB
	n    *repl.Node
	srv  *server.Server
}

// testConfig is a replication config with test-speed timers, following
// leader ("" leads).
func testConfig(t *testing.T, leader string) repl.Config {
	return repl.Config{
		Leader:       leader,
		Heartbeat:    50 * time.Millisecond,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 250 * time.Millisecond,
		AckInterval:  10 * time.Millisecond,
		Logf:         t.Logf,
	}
}

// startNode serves db as a node on addr (port 0 picks a free one),
// retrying while a just-stopped node still holds the address.
func startNode(t *testing.T, db *sopr.DB, cfg repl.Config, addr string) *node {
	t.Helper()
	rn, err := repl.NewNode(db, cfg)
	if err != nil {
		t.Fatalf("NewNode: %v", err)
	}
	srv := server.New(rn, server.Config{ReplWaitTimeout: 2 * time.Second})
	var ln net.Listener
	deadline := time.Now().Add(10 * time.Second)
	for {
		ln, err = server.Listen(addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("listen on %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	go srv.Serve(ln)
	nd := &node{addr: ln.Addr().String(), db: db, n: rn, srv: srv}
	t.Cleanup(func() { nd.stop(t) })
	return nd
}

func openDurable(t *testing.T, dir string) *sopr.DB {
	t.Helper()
	db, err := sopr.OpenDurable(dir)
	if err != nil {
		t.Fatalf("OpenDurable: %v", err)
	}
	return db
}

// startPrimary boots a durable leading node on dir.
func startPrimary(t *testing.T, dir string) *node {
	return startNode(t, openDurable(t, dir), testConfig(t, ""), "127.0.0.1:0")
}

// restartPrimary brings a stopped primary back on its old address, over
// dir.
func restartPrimary(t *testing.T, dir, addr string) *node {
	return startNode(t, openDurable(t, dir), testConfig(t, ""), addr)
}

// startReplica boots an in-memory node following primaryAddr.
func startReplica(t *testing.T, primaryAddr string) *node {
	return startNode(t, sopr.Open(), testConfig(t, primaryAddr), "127.0.0.1:0")
}

func (nd *node) stop(t *testing.T) {
	t.Helper()
	if nd.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = nd.srv.Shutdown(ctx)
	_ = nd.n.Close()
	nd.srv = nil
}

func (nd *node) exec(t *testing.T, src string) *sopr.Result {
	t.Helper()
	res, err := nd.n.Exec(src)
	if err != nil {
		t.Fatalf("exec on %s: %v", nd.addr, err)
	}
	return res
}

func (nd *node) dump(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	if err := nd.db.Dump(&b); err != nil {
		t.Fatalf("dump %s: %v", nd.addr, err)
	}
	return b.String()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitCaughtUp(t *testing.T, r *node, lsn uint64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("replica to reach lsn %d (at %d)", lsn, r.n.CurrentLSN()),
		func() bool { return r.n.CurrentLSN() >= lsn })
}

func TestFollowerStreamsAndServesReads(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	p.exec(t, `insert into emp values ('jane', 1, 60000, 0);`)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())

	c, err := client.Dial(r.addr)
	if err != nil {
		t.Fatalf("dial replica: %v", err)
	}
	defer c.Close()

	// Reads are served, and the rule's effect (bonus 100) arrived via the
	// composed net effect — the replica never ran the rule itself.
	rows, err := c.Query(`select name, bonus from emp;`)
	if err != nil {
		t.Fatalf("query replica: %v", err)
	}
	if len(rows.Data) != 1 || rows.Data[0][1].(int64) != 100 {
		t.Fatalf("replica rows = %+v", rows.Data)
	}

	// Writes are refused with the typed read-only code.
	if _, err := c.Exec(`insert into emp values ('bob', 1, 50000, 0);`); !client.IsRemote(err, client.CodeReadOnly) {
		t.Fatalf("exec on replica = %v, want remote %s", err, client.CodeReadOnly)
	}

	// Stats carry the replica's position.
	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Repl == nil || st.Repl.Role != "replica" || st.Repl.LSN != p.db.CurrentLSN() {
		t.Fatalf("replica repl stats = %+v", st.Repl)
	}

	// Dump equality at the same LSN: the acceptance bar for convergence.
	got, err := c.Dump()
	if err != nil {
		t.Fatalf("dump replica: %v", err)
	}
	if want := p.dump(t); got != want {
		t.Fatalf("replica dump diverges from primary:\n--- primary ---\n%s\n--- replica ---\n%s", want, got)
	}

	// The primary sees the follower and pins retention at its position.
	pst, err := client.Dial(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pst.Close()
	waitFor(t, "primary to report the follower caught up", func() bool {
		s, err := pst.Stats()
		return err == nil && s.Repl != nil && s.Repl.Followers == 1 && s.Repl.MinFollowerLSN == p.db.CurrentLSN()
	})
}

// TestCheckpointBootstrap covers the snapshot path: the follower joins
// after the records it would need were pruned by a checkpoint, so the
// primary ships its checkpoint image first, then the tail.
func TestCheckpointBootstrap(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	for i := 0; i < 10; i++ {
		p.exec(t, fmt.Sprintf(`insert into emp values ('e%d', %d, 1000, 0);`, i, i))
	}
	// Checkpoint rotates and prunes: LSN 1 is no longer in any segment.
	if err := p.db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	p.exec(t, `insert into emp values ('late', 99, 1, 0);`) // tail after the image

	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())
	var b strings.Builder
	if err := r.db.Dump(&b); err != nil {
		t.Fatalf("replica dump: %v", err)
	}
	if want := p.dump(t); b.String() != want {
		t.Fatal("replica dump diverges from primary after checkpoint bootstrap")
	}
	if st := r.n.ReplStats(); !st.Connected || st.Lag != 0 {
		t.Fatalf("replica stats after catch-up = %+v", st)
	}
}

// TestFollowerKillRejoin kills a caught-up follower, keeps writing, and
// brings up a replacement that must bootstrap from scratch and converge.
func TestFollowerKillRejoin(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	p.exec(t, `insert into emp values ('a', 1, 1, 0);`)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())
	r.stop(t) // follower dies; its pin is released

	p.exec(t, `insert into emp values ('b', 2, 2, 0);`)
	if err := p.db.Checkpoint(); err != nil { // prune past the dead follower
		t.Fatalf("checkpoint: %v", err)
	}
	p.exec(t, `insert into emp values ('c', 3, 3, 0);`)

	r2 := startReplica(t, p.addr)
	waitCaughtUp(t, r2, p.db.CurrentLSN())
	var b strings.Builder
	if err := r2.db.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != p.dump(t) {
		t.Fatal("rejoined replica diverges from primary")
	}
}

// TestPrimaryRestartFollowerReconnects restarts the primary under a live
// follower: the follower must ride out the outage and resume from its
// applied LSN (no re-bootstrap needed — the records survive in the WAL).
func TestPrimaryRestartFollowerReconnects(t *testing.T) {
	dir := t.TempDir()
	p := startPrimary(t, dir)
	p.exec(t, testSchema)
	p.exec(t, `insert into emp values ('a', 1, 1, 0);`)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())

	addr := p.addr
	p.stop(t)
	p2 := restartPrimary(t, dir, addr)
	p2.exec(t, `insert into emp values ('b', 2, 2, 0);`)
	waitCaughtUp(t, r, p2.db.CurrentLSN())
	var b strings.Builder
	if err := r.db.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != p2.dump(t) {
		t.Fatal("replica diverges from restarted primary")
	}
}

func TestReadYourWrites(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())

	pc, err := client.Dial(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	rc, err := client.Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	res, err := pc.Exec(`insert into emp values ('rw', 5, 5, 0);`)
	if err != nil {
		t.Fatal(err)
	}
	if res.LSN == 0 {
		t.Fatal("durable exec returned no LSN token")
	}
	// The replica read with the token must include the write, even if the
	// stream has not delivered it at the moment the query arrives.
	rows, err := rc.QueryAt(`select name from emp where name = 'rw';`, res.LSN)
	if err != nil {
		t.Fatalf("QueryAt(min %d): %v", res.LSN, err)
	}
	if len(rows.Data) != 1 {
		t.Fatalf("read-your-writes returned %d rows", len(rows.Data))
	}
	// A floor the replica can never reach within the wait bound comes back
	// as the typed lagging error.
	if _, err := rc.QueryAt(`select name from emp;`, res.LSN+1000); !client.IsRemote(err, client.CodeLagging) {
		t.Fatalf("unreachable MinLSN = %v, want remote %s", err, client.CodeLagging)
	}
}

func TestPromoteMakesReplicaWritable(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	p.exec(t, `insert into emp values ('a', 1, 1, 0);`)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())

	c, err := client.Dial(r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Promote(); err != nil {
		t.Fatalf("promote: %v", err)
	}
	// Writable now — and rules fire again (bonus set by the raise rule).
	res, err := c.Exec(`insert into emp values ('new', 9, 9, 0);`)
	if err != nil {
		t.Fatalf("exec after promote: %v", err)
	}
	if len(res.Firings) == 0 {
		t.Fatal("no rule firing on promoted node; rules must re-enable after promotion")
	}
	rows, err := c.Query(`select bonus from emp where name = 'new';`)
	if err != nil || len(rows.Data) != 1 || rows.Data[0][0].(int64) != 100 {
		t.Fatalf("promoted write visible = %+v, err %v", rows, err)
	}
	st, err := c.Stats()
	if err != nil || st.Repl == nil || !st.Repl.Promoted {
		t.Fatalf("promoted stats = %+v, err %v", st.Repl, err)
	}
	// Promoting a leader is a no-op: no new epoch, still the primary.
	pc, err := client.Dial(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	lsn := p.n.CurrentLSN()
	if epoch, _, err := pc.PromoteTo(0); err != nil || epoch != 0 {
		t.Fatalf("promote on primary = epoch %d, err %v; want epoch 0", epoch, err)
	}
	if st := p.n.ReplStats(); st.Role != "primary" || st.Epoch != 0 || p.n.CurrentLSN() != lsn {
		t.Fatalf("primary after no-op promote: %+v (lsn %d, was %d)", st, p.n.CurrentLSN(), lsn)
	}
}

// TestRepromotedPrimaryReportsPromoted: a primary demoted under a new
// leader and later re-elected leads by promotion, as a promoted replica
// does; a primary that never followed does not.
func TestRepromotedPrimaryReportsPromoted(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	if st := p.n.ReplStats(); st.Role != "primary" || st.Promoted {
		t.Fatalf("startup primary stats = %+v, want role primary, not promoted", st)
	}
	if err := p.n.Follow("127.0.0.1:1", 1); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if _, err := p.n.Promote(0); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if st := p.n.ReplStats(); st.Role != "primary" || !st.Promoted || st.Epoch != 2 {
		t.Fatalf("re-promoted stats = %+v, want role primary, promoted, epoch 2", st)
	}
}

// TestFencedPromotedNodeParksUntilFollow: a promoted node fenced by a
// newer epoch is a fenced primary, exactly as a fenced startup primary is:
// it refuses writes and does not redial its pre-promotion upstream until
// Follow demotes it under the new leader.
func TestFencedPromotedNodeParksUntilFollow(t *testing.T) {
	up, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	dials := make(chan net.Conn, 64)
	go func() {
		for {
			c, err := up.Accept()
			if err != nil {
				return
			}
			dials <- c
		}
	}()
	defer func() {
		for len(dials) > 0 {
			_ = (<-dials).Close()
		}
	}()
	nextDial := func(within time.Duration) net.Conn {
		select {
		case c := <-dials:
			return c
		case <-time.After(within):
			return nil
		}
	}

	r := startNode(t, sopr.Open(), testConfig(t, up.Addr().String()), "127.0.0.1:0")
	first := nextDial(5 * time.Second) // held open: the node waits on it
	if first == nil {
		t.Fatal("node never dialed its upstream")
	}
	defer first.Close()
	// Reading the join proves the node registered the connection, so
	// Promote closes it and the stream loop parks.
	if typ, _, err := wire.ReadFrame(first, wire.ReplMaxFrame); err != nil || typ != wire.MsgReplJoin {
		t.Fatalf("first frame from the node: typ %#x, err %v; want a join", typ, err)
	}
	if _, err := r.n.Promote(0); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	r.n.ObserveEpoch(5)

	st := r.n.ReplStats()
	if st.Role != "primary" || !st.Fenced || st.Promoted || st.Epoch != 5 {
		t.Fatalf("fenced stats = %+v, want role primary, fenced, not promoted, epoch 5", st)
	}
	var fe *repl.FencedError
	if _, err := r.n.Exec(`create table t (a int);`); !errors.As(err, &fe) || fe.Epoch != 5 {
		t.Fatalf("Exec on fenced node = %v, want FencedError{Epoch: 5}", err)
	}
	// Reconnect backoff is 10ms here: a node still streaming would have
	// redialed many times over.
	if c := nextDial(300 * time.Millisecond); c != nil {
		c.Close()
		t.Fatal("fenced node redialed its pre-promotion upstream")
	}

	if err := r.n.Follow(up.Addr().String(), 5); err != nil {
		t.Fatalf("Follow: %v", err)
	}
	c := nextDial(5 * time.Second)
	if c == nil {
		t.Fatal("demoted node never dialed its new leader")
	}
	c.Close()
	if st := r.n.ReplStats(); st.Role != "replica" || st.Fenced {
		t.Fatalf("demoted stats = %+v, want role replica, not fenced", st)
	}
}

// TestFencedNodeAnswersLaggingReads: a fenced node is no longer the
// freshest state in the cluster, so it serves a read-your-writes token
// only up to its own position; a newer token waits and answers
// CodeLagging.
func TestFencedNodeAnswersLaggingReads(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	lsn := p.n.CurrentLSN()
	p.n.ObserveEpoch(1)
	if st := p.n.ReplStats(); !st.Fenced {
		t.Fatalf("primary not fenced after a newer epoch: %+v", st)
	}

	c, err := client.Dial(p.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.QueryAt(`select * from emp;`, lsn); err != nil {
		t.Fatalf("read at the fenced node's own lsn: %v", err)
	}
	if _, err := c.QueryAt(`select * from emp;`, lsn+1); !client.IsRemote(err, client.CodeLagging) {
		t.Fatalf("read beyond the fenced node's lsn = %v, want remote %s", err, client.CodeLagging)
	}
}

func TestJoinRefusedOffPrimary(t *testing.T) {
	// A replica does not serve streams: joining one is a typed refusal.
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	r := startReplica(t, p.addr)
	waitCaughtUp(t, r, p.db.CurrentLSN())

	nc, err := net.Dial("tcp", r.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if err := wire.WriteMessage(nc, wire.MsgReplJoin, &wire.ReplJoinRequest{}, wire.DefaultMaxFrame); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(nc, wire.DefaultMaxFrame)
	if err != nil || typ != wire.MsgError {
		t.Fatalf("join on replica: typ %#x, err %v", typ, err)
	}
	var er wire.ErrorResponse
	if err := wire.Unmarshal(payload, &er); err != nil || er.Code != wire.CodeNotPrimary {
		t.Fatalf("join on replica = %+v, want %s", er, wire.CodeNotPrimary)
	}
}

// chaosProxy sits between a follower and its primary and kills each
// stream session after a byte budget, cutting connections mid-frame. The
// budget grows per session so the follower always eventually converges.
type chaosProxy struct {
	ln      net.Listener
	target  string
	budget  atomic.Int64
	killed  atomic.Int64
	stopped atomic.Bool
}

func startChaosProxy(t *testing.T, target string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cp := &chaosProxy{ln: ln, target: target}
	cp.budget.Store(64) // first session dies inside the very first frames
	go cp.run()
	t.Cleanup(func() {
		cp.stopped.Store(true)
		ln.Close()
	})
	return cp
}

func (cp *chaosProxy) addr() string { return cp.ln.Addr().String() }

func (cp *chaosProxy) run() {
	for {
		down, err := cp.ln.Accept()
		if err != nil {
			return
		}
		go cp.session(down)
	}
}

func (cp *chaosProxy) session(down net.Conn) {
	defer down.Close()
	up, err := net.Dial("tcp", cp.target)
	if err != nil {
		return
	}
	defer up.Close()
	budget := cp.budget.Load()
	cp.budget.Store(budget * 4)
	go func() { _, _ = io.Copy(up, down) }() // acks flow freely upstream
	// Downstream stops mid-byte-stream at the budget: a torn frame from
	// the follower's point of view.
	_, _ = io.CopyN(down, up, budget)
	if !cp.stopped.Load() {
		cp.killed.Add(1)
	}
}

// TestTornStreamNeverDiverges is the fault-injection acceptance test: a
// stream that keeps dying mid-frame (including inside the checkpoint
// bootstrap) must never leave the follower divergent or wedged — every
// session either resumes or re-bootstraps, and the follower converges to
// a byte-identical dump.
func TestTornStreamNeverDiverges(t *testing.T) {
	p := startPrimary(t, t.TempDir())
	p.exec(t, testSchema)
	for i := 0; i < 8; i++ {
		p.exec(t, fmt.Sprintf(`insert into emp values ('pre%d', %d, 100, 0);`, i, i))
	}
	if err := p.db.Checkpoint(); err != nil { // force the bootstrap path through the proxy
		t.Fatal(err)
	}

	cp := startChaosProxy(t, p.addr)
	r := startReplica(t, cp.addr())

	// Keep writing while sessions are being killed.
	for i := 0; i < 8; i++ {
		p.exec(t, fmt.Sprintf(`insert into emp values ('live%d', %d, 200, 0);`, i, i))
		time.Sleep(10 * time.Millisecond)
	}

	waitCaughtUp(t, r, p.db.CurrentLSN())
	if cp.killed.Load() == 0 {
		t.Fatal("chaos proxy never killed a session; the test exercised nothing")
	}
	var b strings.Builder
	if err := r.db.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if b.String() != p.dump(t) {
		t.Fatal("follower diverged after torn streams")
	}
	t.Logf("converged after %d killed sessions", cp.killed.Load())
}
