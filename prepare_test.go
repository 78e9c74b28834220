package sopr

import (
	"errors"
	"testing"
)

func TestPreparedStatements(t *testing.T) {
	db := openPaperDB(t)
	db.MustExec(`
		create rule cascade when deleted from dept
		then delete from emp where dept_no in (select dept_no from deleted dept)
		end
	`)
	ins, err := db.Prepare(`insert into emp values ('x', 1, 10, 1); insert into dept values (1, 1)`)
	if err != nil {
		t.Fatal(err)
	}
	del, err := db.Prepare(`delete from dept`)
	if err != nil {
		t.Fatal(err)
	}
	q, err := db.Prepare(`select count(*) from emp`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := ins.Exec(); err != nil {
			t.Fatal(err)
		}
		res, err := del.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Firings) != 1 || res.Firings[0].Rule != "cascade" {
			t.Fatalf("iteration %d firings: %+v", i, res.Firings)
		}
		rows, err := q.Query()
		if err != nil {
			t.Fatal(err)
		}
		if rows.Data[0][0] != int64(0) {
			t.Fatalf("iteration %d: emp count %v", i, rows.Data[0][0])
		}
	}
	// A syntax error is a *ParseError with its position, as from Exec.
	_, err = db.Prepare("select 1 from emp;\n  not sql")
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("Prepare error = %v (%T), want *ParseError", err, err)
	}
	if pe.Line != 2 || pe.Col != 3 {
		t.Errorf("Prepare error position = %d:%d, want 2:3", pe.Line, pe.Col)
	}
	// Query on a prepared script with no result sets returns nil.
	noq, _ := db.Prepare(`insert into emp values ('y', 2, 10, null)`)
	rows, err := noq.Query()
	if err != nil || rows != nil {
		t.Errorf("no-result Query: %v, %v", rows, err)
	}
	// Re-executing definitions fails cleanly.
	def, _ := db.Prepare(`create table once (a int)`)
	if _, err := def.Exec(); err != nil {
		t.Fatal(err)
	}
	if _, err := def.Exec(); err == nil {
		t.Error("duplicate definition re-exec succeeded")
	}
}
