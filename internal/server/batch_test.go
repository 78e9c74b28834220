// Batch exec end to end: MsgExecBatch through client.ExecBatch against
// in-memory and durable backends, concurrent batch committers sharing
// group-commit fsyncs (run with -race; CI does), and the frame-size
// boundary — a payload at exactly the cap is served, one byte over gets
// the typed frame_too_large error on a connection that stays usable.
package server

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"sopr"
	"sopr/client"
	"sopr/internal/wire"
)

func TestExecBatchEndToEnd(t *testing.T) {
	db := sopr.Open()
	db.MustExec(`create table t (a int)`)
	db.MustExec(`create rule cap when inserted into t
		then delete from t where a > 100 end`)
	_, addr := startServer(t, db, Config{})
	c := dial(t, addr)

	// One block: the rule sees the batch's net effect once, and the
	// SELECT rides along inside the same block.
	res, err := c.ExecBatch([]string{
		`insert into t values (1), (2)`,
		`insert into t values (200)`,
		`select a from t where a <= 100`,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Firings) == 0 || res.Firings[0].Rule != "cap" {
		t.Fatalf("firings = %+v, want rule cap", res.Firings)
	}
	if len(res.Results) != 1 || len(res.Results[0].Data) != 2 {
		t.Fatalf("results = %+v, want one 2-row result set", res.Results)
	}
	rows, err := c.Query(`select count(*) from t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Data[0][0].(int64); n != 2 {
		t.Fatalf("count = %d, want 2 (rule deleted the overflow)", n)
	}

	// Definitions cannot join a batch block.
	_, err = c.ExecBatch([]string{`insert into t values (3)`, `create table u (x int)`})
	if !client.IsRemote(err, client.CodeExec) {
		t.Fatalf("definition in batch: err = %v, want remote exec error", err)
	}
	// And the rejected batch left no partial state.
	rows, err = c.Query(`select count(*) from t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Data[0][0].(int64); n != 2 {
		t.Fatalf("count after rejected batch = %d, want 2", n)
	}
}

// TestConcurrentBatchCommitDurable drives a durable fsync-always server
// with concurrent ExecBatch clients: every batch is one commit record, the
// overlapping commits share group fsyncs, and the stats must show it.
func TestConcurrentBatchCommitDurable(t *testing.T) {
	db, err := sopr.OpenDurable(t.TempDir(), sopr.WithFsync(sopr.FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustExec(`create table t (w int, a int)`)
	_, addr := startServer(t, db, Config{})

	const clients = 8
	const batches = 6
	const perBatch = 4
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for b := 0; b < batches; b++ {
				stmts := make([]string, perBatch)
				for i := range stmts {
					stmts[i] = fmt.Sprintf(`insert into t values (%d, %d)`, w, b*perBatch+i)
				}
				res, err := c.ExecBatch(stmts)
				if err != nil {
					errc <- fmt.Errorf("client %d batch %d: %w", w, b, err)
					return
				}
				if res.LSN == 0 {
					errc <- fmt.Errorf("client %d batch %d: no LSN token on a durable server", w, b)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	c := dial(t, addr)
	rows, err := c.Query(`select count(*) from t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Data[0][0].(int64); n != clients*batches*perBatch {
		t.Fatalf("count = %d, want %d", n, clients*batches*perBatch)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Server.BatchExecs != clients*batches {
		t.Errorf("BatchExecs = %d, want %d", st.Server.BatchExecs, clients*batches)
	}
	e := st.Engine
	if e.GroupCommits < 1 || e.GroupedTxns < e.GroupCommits {
		t.Errorf("group-commit stats out of range: commits=%d grouped=%d", e.GroupCommits, e.GroupedTxns)
	}
	// Each batch was ONE commit record regardless of its statement count.
	if e.WALAppends > int64(clients*batches)+2 { // +1 DDL, +1 slack for the epoch record
		t.Errorf("WALAppends = %d for %d batch blocks: batches are not one record each",
			e.WALAppends, clients*batches)
	}
}

// TestFrameSizeBoundary pins the cap semantics: a payload of exactly
// MaxFrame is read and served, one byte over is answered with the typed
// frame_too_large error and the session survives to serve the next
// request.
func TestFrameSizeBoundary(t *testing.T) {
	const cap = 4096
	db := sopr.Open()
	db.MustExec(`create table t (s varchar)`)
	_, addr := startServer(t, db, Config{MaxFrame: cap})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Exactly at the cap: the frame is read and dispatched. The payload is
	// a valid exec request padded to precisely cap bytes with trailing
	// spaces in the SQL, so it must execute.
	const stmt = `insert into t values ('x')`
	src := stmt + strings.Repeat(" ", cap-len(`{"src":""}`)-len(stmt))
	payload := []byte(`{"src":"` + src + `"}`)
	if len(payload) != cap {
		t.Fatalf("test bug: payload is %d bytes, want exactly %d", len(payload), cap)
	}
	if err := wire.WriteFrame(nc, wire.MsgExec, payload, cap); err != nil {
		t.Fatal(err)
	}
	typ, _, err := wire.ReadFrame(nc, cap)
	if err != nil || typ != wire.MsgExecResult {
		t.Fatalf("at-cap frame: got %s err %v, want exec_result", wire.TypeName(typ), err)
	}

	// One byte over: typed error, session stays up.
	if err := wire.WriteFrame(nc, wire.MsgExec, make([]byte, cap+1), cap+1); err != nil {
		t.Fatal(err)
	}
	typ, p, err := wire.ReadFrame(nc, cap)
	if err != nil || typ != wire.MsgError {
		t.Fatalf("over-cap frame: got %s err %v, want error", wire.TypeName(typ), err)
	}
	var er wire.ErrorResponse
	if err := wire.Unmarshal(p, &er); err != nil || er.Code != wire.CodeFrameTooLarge {
		t.Fatalf("code = %q err %v, want frame_too_large", er.Code, err)
	}
	if err := wire.WriteFrame(nc, wire.MsgPing, nil, cap); err != nil {
		t.Fatal(err)
	}
	if typ, _, err = wire.ReadFrame(nc, cap); err != nil || typ != wire.MsgPong {
		t.Fatalf("ping after over-cap frame: got %s err %v", wire.TypeName(typ), err)
	}

	// The same boundary through the client: an oversized batch gets the
	// typed RemoteError and the connection remains usable for a smaller
	// retry — the documented split-and-resend recovery.
	c := dial(t, addr)
	big := []string{`insert into t values ('` + strings.Repeat("y", 2*cap) + `')`}
	_, err = c.ExecBatch(big)
	if !client.IsRemote(err, client.CodeFrameTooLarge) {
		t.Fatalf("oversized batch: err = %v, want remote frame_too_large", err)
	}
	if _, err := c.ExecBatch([]string{`insert into t values ('small')`}); err != nil {
		t.Fatalf("small batch after oversized one: %v", err)
	}
}
