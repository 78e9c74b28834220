package sopr

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestSharedDBConcurrentExec shares one *DB between writer goroutines:
// their Execs are serialized into a stream of transactions, and a rule's
// rollback of every tenth insert is applied exactly as it would be
// serially.
func TestSharedDBConcurrentExec(t *testing.T) {
	db := Open()
	db.MustExec(`create table t (id int, v int)`)
	db.MustExec(`
		create rule nonneg when inserted into t
		if exists (select * from inserted t where v < 0)
		then rollback
	`)

	const workers = 8
	const perWorker = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				id := w*perWorker + i
				v := id % 5
				if id%10 == 0 {
					v = -1 // every tenth insert is rejected by the rule
				}
				if _, err := db.Exec(fmt.Sprintf(`insert into t values (%d, %d)`, id, v)); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	rows := db.MustQuery(`select count(*) from t`)
	want := int64(workers*perWorker - workers*perWorker/10)
	if rows.Data[0][0] != want {
		t.Errorf("count = %v, want %d", rows.Data[0][0], want)
	}
	s := db.Stats()
	if s.Committed != want || s.RolledBack != int64(workers*perWorker/10) {
		t.Errorf("stats: %+v", s)
	}
	if dump := mustDump(t, db); !strings.Contains(dump, "CREATE TABLE t") {
		t.Error("dump after concurrent writes")
	}
}

// TestSharedDBTraceTo toggles TraceTo while writer goroutines run against
// the same *DB. Trace output is written only under the write mutex, so
// the shared builder needs no lock of its own (the race detector checks
// this), and once TraceTo(nil) returns nothing more is written.
func TestSharedDBTraceTo(t *testing.T) {
	db := Open()
	db.MustExec(`create table t (a int)`)
	db.MustExec(`create rule r when inserted into t then delete from t where a < 0 end`)

	var b strings.Builder
	db.TraceTo(&b)
	const workers = 4
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := db.Exec(fmt.Sprintf(`insert into t values (%d), (-1)`, w*100+i))
				if err == nil && (len(res.Firings) != 1 || res.Firings[0].Rule != "r") {
					err = fmt.Errorf("firings = %+v", res.Firings)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		db.TraceTo(nil)
		db.TraceTo(&b)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	db.MustExec(`insert into t values (-2)`) // traced: the last toggle left tracing on
	db.TraceTo(nil)
	out := b.String()
	for _, frag := range []string{"external transition", "fire r", "commit"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace missing %q:\n%s", frag, out)
		}
	}
	db.MustExec(`insert into t values (-5)`)
	if b.String() != out {
		t.Error("tracing not stopped")
	}
	if rows := db.MustQuery(`select count(*) from t`); rows.Data[0][0] != int64(workers*20) {
		t.Errorf("count = %v, want %d", rows.Data[0][0], workers*20)
	}
}

func TestParseErrorPosition(t *testing.T) {
	db := Open()
	db.MustExec(`create table t (a int)`)
	_, err := db.Exec("insert into t values (1);\n insert bogus;")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *ParseError", err, err)
	}
	if pe.Line != 2 || pe.Col < 2 {
		t.Errorf("position = %d:%d, want line 2", pe.Line, pe.Col)
	}
	if !strings.Contains(err.Error(), "syntax error at line 2") {
		t.Errorf("message: %q", err.Error())
	}
	// Execution failures are not ParseErrors.
	if _, err := db.Exec(`select * from nosuch`); errors.As(err, &pe) {
		t.Errorf("exec failure classified as parse error: %v", err)
	}
	if _, err := db.Query(`select from from`); !errors.As(err, &pe) {
		t.Errorf("Query parse failure not a ParseError: %v", err)
	}
}

func TestTraceTo(t *testing.T) {
	db := Open()
	db.MustExec(`create table t (a int)`)
	db.MustExec(`create rule r when inserted into t then delete from t where a < 0 end`)
	var b strings.Builder
	db.TraceTo(&b)
	db.MustExec(`insert into t values (-1)`)
	out := b.String()
	for _, frag := range []string{"external transition", "consider r", "fire r", "commit"} {
		if !strings.Contains(out, frag) {
			t.Errorf("trace missing %q:\n%s", frag, out)
		}
	}
	db.TraceTo(nil)
	n := len(b.String())
	db.MustExec(`insert into t values (2)`)
	if len(b.String()) != n {
		t.Error("tracing not stopped")
	}
	// Rollback events traced too.
	db.MustExec(`create rule g when deleted from t then rollback`)
	var b2 strings.Builder
	db.TraceTo(&b2)
	db.MustExec(`delete from t`)
	if !strings.Contains(b2.String(), "rollback by g") {
		t.Errorf("rollback trace: %q", b2.String())
	}
}
