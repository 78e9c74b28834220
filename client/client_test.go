package client_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/server"
)

func startServer(t *testing.T, db *sopr.DB) string {
	t.Helper()
	srv := server.New(db, server.Config{})
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String()
}

func TestDialFailure(t *testing.T) {
	c, err := client.Dial("127.0.0.1:1")
	if err == nil {
		c.Close()
		t.Fatal("Dial to a closed port succeeded")
	}
	if !client.IsConn(err) {
		t.Fatalf("dial failure is not a ConnError: %v", err)
	}
}

// TestDialRetry: the server comes up while the client is already dialing;
// WithDialRetry must ride out the refused attempts and connect.
func TestDialRetry(t *testing.T) {
	// Reserve a port, then free it so the first dial attempts get refused.
	ln, err := server.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	db := sopr.Open()
	db.MustExec(`create table t (id int)`)
	srv := server.New(db, server.Config{})
	go func() {
		time.Sleep(200 * time.Millisecond)
		ln, err := server.Listen(addr)
		if err != nil {
			return // the test's dial loop will fail and report
		}
		srv.Serve(ln)
	}()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})

	c, err := client.Dial(addr, client.WithDialRetry(20, 50*time.Millisecond))
	if err != nil {
		t.Fatalf("Dial with retry never connected: %v", err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping after retried dial: %v", err)
	}

	// A malformed address is permanent: no retries, immediate failure.
	start := time.Now()
	if c2, err := client.Dial("not a host:port at all", client.WithDialRetry(10, time.Second)); err == nil {
		c2.Close()
		t.Fatal("Dial accepted a malformed address")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("permanent dial failure was retried")
	}
}

// TestSharedClientConcurrency hammers ONE client from many goroutines; the
// client must serialize its requests on the single connection (run with
// -race).
func TestSharedClientConcurrency(t *testing.T) {
	db := sopr.Open()
	db.MustExec(`create table t (id int)`)
	addr := startServer(t, db)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const workers = 8
	const per = 20
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.Exec(fmt.Sprintf(`insert into t values (%d)`, w*per+i)); err != nil {
					errc <- err
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
	rows, err := c.Query(`select count(*) from t`)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Data[0][0].(int64); n != workers*per {
		t.Errorf("count = %d, want %d", n, workers*per)
	}
}

func TestRemoteErrorShape(t *testing.T) {
	db := sopr.Open()
	addr := startServer(t, db)
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Query(`select * from nosuch`)
	if !client.IsRemote(err, client.CodeExec) || !client.IsRemote(err, "") {
		t.Fatalf("err = %v, want exec RemoteError", err)
	}
	if client.IsRemote(err, client.CodeParse) {
		t.Error("exec error matched the parse code")
	}
	if !strings.Contains(err.Error(), "remote exec error") {
		t.Errorf("message: %q", err.Error())
	}
	if client.IsRemote(fmt.Errorf("local"), "") {
		t.Error("plain error matched IsRemote")
	}
}

func TestClientMaxFrameGuard(t *testing.T) {
	db := sopr.Open()
	db.MustExec(`create table t (a int)`)
	addr := startServer(t, db)
	c, err := client.Dial(addr, client.WithMaxFrame(256), client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// A script bigger than the client's own cap is refused before sending.
	big := "insert into t values " + strings.Repeat("(1), ", 200) + "(1)"
	if _, err := c.Exec(big); err == nil {
		t.Fatal("oversized request was sent")
	}
	// The connection is still clean for small requests.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after refused send: %v", err)
	}
}
