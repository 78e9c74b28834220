package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/wire"
)

// startServer launches a server over db on a random port and returns it
// with its address. The server is shut down at test end if the test didn't.
func startServer(t *testing.T, db DB, cfg Config) (*Server, string) {
	t.Helper()
	srv := New(db, cfg)
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		if err := <-done; err != ErrServerClosed {
			t.Errorf("Serve returned %v, want ErrServerClosed", err)
		}
	})
	return srv, ln.Addr().String()
}

func dial(t *testing.T, addr string) *client.Client {
	t.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestConcurrentCascade runs Example 4.3's recursive manager-cascade rule
// through the client package from 8 goroutines at once (the -race build is
// the point of this test). Each client owns a disjoint key range, so every
// interleaving of the serialized transactions must cascade each client's
// chain fully.
func TestConcurrentCascade(t *testing.T) {
	db := sopr.Open()
	db.MustExec(`
		create table emp (name varchar, emp_no int, salary float, dept_no int);
		create table dept (dept_no int, mgr_no int)`)
	db.MustExec(`
		create rule mgr_cascade when deleted from emp
		then delete from emp where dept_no in
		     (select dept_no from dept where mgr_no in (select emp_no from deleted emp));
		     delete from dept where mgr_no in (select emp_no from deleted emp)
		end`)
	_, addr := startServer(t, db, Config{})

	const clients = 8
	const depth = 4
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			var emps, depts strings.Builder
			fmt.Fprintf(&emps, "insert into emp values ('m%d', %d, 0, %d)", base+1, base+1, base)
			depts.WriteString("insert into dept values ")
			for d := 1; d <= depth; d++ {
				fmt.Fprintf(&depts, "(%d, %d)", base+d, base+d)
				if d < depth {
					depts.WriteString(", ")
				}
				fmt.Fprintf(&emps, ", ('m%d', %d, 0, %d)", base+d+1, base+d+1, base+d)
			}
			if _, err := c.Exec(emps.String()); err != nil {
				errc <- err
				return
			}
			if _, err := c.Exec(depts.String()); err != nil {
				errc <- err
				return
			}
			res, err := c.Exec(fmt.Sprintf(`delete from emp where emp_no = %d`, base+1))
			if err != nil {
				errc <- err
				return
			}
			// One firing per chain level plus the empty fixpoint firing.
			if len(res.Firings) < depth {
				errc <- fmt.Errorf("client %d: only %d firings", base, len(res.Firings))
				return
			}
			rows, err := c.Query(fmt.Sprintf(
				`select count(*) from emp where emp_no >= %d and emp_no <= %d`, base, base+depth+1))
			if err != nil {
				errc <- err
				return
			}
			if n := rows.Data[0][0].(int64); n != 0 {
				errc <- fmt.Errorf("client %d: %d employees survived the cascade", base, n)
			}
		}(1000 * (i + 1))
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	c := dial(t, addr)
	rows, err := c.Query(`select count(*) from emp`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Data[0][0].(int64); n != 0 {
		t.Errorf("%d employees left in total", n)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Engine.RuleFirings < clients*depth {
		t.Errorf("engine counted %d firings, want >= %d", st.Engine.RuleFirings, clients*depth)
	}
	if st.Server.Execs < clients*3 {
		t.Errorf("server counted %d execs, want >= %d", st.Server.Execs, clients*3)
	}
}

// TestShutdownDrainsInFlight starts a deliberately slow transaction (a rule
// action calls a sleeping external procedure), shuts the server down while
// it runs, and checks the client still receives its full response.
func TestShutdownDrainsInFlight(t *testing.T) {
	db := sopr.Open()
	started := make(chan struct{}, 1)
	db.RegisterProcedure("slow", func(*sopr.ProcContext) error {
		started <- struct{}{}
		time.Sleep(300 * time.Millisecond)
		return nil
	})
	db.MustExec(`create table t (a int)`)
	db.MustExec(`create rule r when inserted into t then call slow end`)
	srv := New(db, Config{})
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	busy, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	idle, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	if err := idle.Ping(); err != nil { // make sure the session is established
		t.Fatal(err)
	}

	type execResult struct {
		res *sopr.Result
		err error
	}
	resc := make(chan execResult, 1)
	go func() {
		res, err := busy.Exec(`insert into t values (1)`)
		resc <- execResult{res, err}
	}()
	<-started // the slow transaction is now in flight

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	t0 := time.Now()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if waited := time.Since(t0); waited < 100*time.Millisecond {
		t.Errorf("Shutdown returned after %v; it should have waited for the drain", waited)
	}
	if err := <-serveDone; err != ErrServerClosed {
		t.Errorf("Serve returned %v", err)
	}

	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight exec failed: %v", r.err)
	}
	if len(r.res.Firings) != 1 || r.res.Firings[0].Rule != "r" {
		t.Errorf("in-flight exec lost its firings: %+v", r.res)
	}
	if st := srv.Stats(); st.DrainedReqs < 1 {
		t.Errorf("DrainedReqs = %d, want >= 1", st.DrainedReqs)
	}

	// The idle session was cut and the listener is gone.
	if err := idle.Ping(); err == nil {
		t.Error("ping on the cut idle session succeeded")
	}
	if c, err := client.Dial(addr); err == nil {
		if err := c.Ping(); err == nil {
			t.Error("server still answering after shutdown")
		}
		c.Close()
	}
}

func TestErrorResponses(t *testing.T) {
	db := sopr.Open()
	db.MustExec(`create table t (a int)`)
	_, addr := startServer(t, db, Config{})
	c := dial(t, addr)

	// Parse errors carry the failing line.
	_, err := c.Exec("insert into t values (1);\nnot sql at all;")
	var re *client.RemoteError
	if !errors.As(err, &re) || re.Code != client.CodeParse {
		t.Fatalf("err = %v, want remote parse error", err)
	}
	if re.Line != 2 {
		t.Errorf("parse error line = %d, want 2", re.Line)
	}

	// Execution errors are code "exec" without a line.
	_, err = c.Query(`select * from nosuch`)
	if !client.IsRemote(err, client.CodeExec) {
		t.Fatalf("err = %v, want remote exec error", err)
	}

	// The session survives failed requests.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after errors: %v", err)
	}
}

// TestRawFrameAbuse speaks the protocol by hand: unknown message types and
// oversized frames both get an error response on a still-usable session —
// the server drains an oversized frame's declared payload and
// resynchronizes on the next frame boundary.
func TestRawFrameAbuse(t *testing.T) {
	db := sopr.Open()
	_, addr := startServer(t, db, Config{MaxFrame: 4096})

	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()

	// Unknown type: error response, session continues.
	if err := wire.WriteFrame(nc, 0x7e, []byte("junk"), 0); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := wire.ReadFrame(nc, 0)
	if err != nil || typ != wire.MsgError {
		t.Fatalf("unknown type: got %s err %v", wire.TypeName(typ), err)
	}
	var er wire.ErrorResponse
	if err := wire.Unmarshal(payload, &er); err != nil {
		t.Fatal(err)
	}
	if er.Code != wire.CodeBadFrame {
		t.Errorf("code = %q, want bad_frame", er.Code)
	}
	if err := wire.WriteFrame(nc, wire.MsgPing, nil, 0); err != nil {
		t.Fatal(err)
	}
	if typ, _, err = wire.ReadFrame(nc, 0); err != nil || typ != wire.MsgPong {
		t.Fatalf("ping after bad frame: got %s err %v", wire.TypeName(typ), err)
	}

	// Undecodable payload: error response, session continues.
	if err := wire.WriteFrame(nc, wire.MsgExec, []byte("{broken"), 0); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = wire.ReadFrame(nc, 0)
	if err != nil || typ != wire.MsgError {
		t.Fatalf("broken payload: got %s err %v", wire.TypeName(typ), err)
	}
	if err := wire.Unmarshal(payload, &er); err != nil || er.Code != wire.CodeBadFrame {
		t.Fatalf("code = %q err %v, want bad_frame", er.Code, err)
	}

	// Oversized frame: frame_too_large error, payload drained, session
	// continues — the next request on the same connection is served.
	if err := wire.WriteFrame(nc, wire.MsgExec, make([]byte, 8192), 0); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = wire.ReadFrame(nc, 0)
	if err != nil || typ != wire.MsgError {
		t.Fatalf("oversized: got %s err %v", wire.TypeName(typ), err)
	}
	if err := wire.Unmarshal(payload, &er); err != nil || er.Code != wire.CodeFrameTooLarge {
		t.Fatalf("code = %q err %v, want frame_too_large", er.Code, err)
	}
	if err := wire.WriteFrame(nc, wire.MsgPing, nil, 0); err != nil {
		t.Fatal(err)
	}
	if typ, _, err = wire.ReadFrame(nc, 0); err != nil || typ != wire.MsgPong {
		t.Fatalf("ping after oversized frame: got %s err %v", wire.TypeName(typ), err)
	}
}

func TestDumpAndRoundTripValues(t *testing.T) {
	db := sopr.Open()
	db.MustExec(`create table v (i int, f float, s varchar, b bool)`)
	db.MustExec(`insert into v values (42, 1.5, 'it''s', true), (null, null, null, null)`)
	_, addr := startServer(t, db, Config{})
	c := dial(t, addr)

	rows, err := c.Query(`select i, f, s, b from v where i = 42`)
	if err != nil {
		t.Fatal(err)
	}
	want := []any{int64(42), 1.5, "it's", true}
	for j, w := range want {
		if rows.Data[0][j] != w {
			t.Errorf("cell %d = %#v, want %#v", j, rows.Data[0][j], w)
		}
	}
	rows, err = c.Query(`select i from v where i is null`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Data[0][0] != nil {
		t.Errorf("null cell = %#v", rows.Data[0][0])
	}
	// The remote rendering matches the local engine's.
	local := db.MustQuery(`select i, f, s, b from v where i = 42`)
	remote, err := c.Query(`select i, f, s, b from v where i = 42`)
	if err != nil {
		t.Fatal(err)
	}
	if remote.String() != local.String() {
		t.Errorf("rendering differs:\nremote:\n%s\nlocal:\n%s", remote, local)
	}

	script, err := c.Dump()
	if err != nil {
		t.Fatal(err)
	}
	db2 := sopr.Open()
	if err := db2.LoadString(script); err != nil {
		t.Fatalf("reloading remote dump: %v", err)
	}
	if n := db2.MustQuery(`select count(*) from v`).Data[0][0].(int64); n != 2 {
		t.Errorf("reloaded %d rows, want 2", n)
	}
}
