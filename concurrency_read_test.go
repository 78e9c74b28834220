package sopr

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRowsSnapshotImmutable pins the snapshot guarantee documented on
// wrapResult: a Rows returned by Query shares no memory with live storage,
// so later mutations of the database never change a result the caller is
// still holding. The same must hold for Dump output — it is rendered from
// cloned tuples of an immutable published snapshot, so a dump taken before
// a mutation reloads to exactly the pre-mutation state. This is what makes
// it safe for a shared DB to serve Query and Dump with no lock while a
// writer proceeds.
func TestRowsSnapshotImmutable(t *testing.T) {
	db := Open()
	db.MustExec(`create table t (id int, name varchar, score float)`)
	db.MustExec(`insert into t values (1, 'ann', 1.5), (2, 'bob', 2.5), (3, 'cid', 3.5)`)

	rows := db.MustQuery(`select id, name, score from t order by id`)
	if len(rows.Data) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows.Data))
	}
	// Deep-copy the snapshot before mutating the database, and take a dump
	// of the same state.
	wantTable := rows.String()
	want := make([][]any, len(rows.Data))
	for i, r := range rows.Data {
		want[i] = append([]any(nil), r...)
	}
	var preDump strings.Builder
	if err := db.Dump(&preDump); err != nil {
		t.Fatal(err)
	}

	db.MustExec(`update t set name = 'zap', score = 0.0 where id = 2`)
	db.MustExec(`delete from t where id = 1`)
	db.MustExec(`insert into t values (4, 'new', 4.5)`)

	// The held dump describes the pre-mutation state: a fresh database
	// restored from it answers the original query with the original rows.
	restored := Open()
	restored.MustExec(preDump.String())
	if got := restored.MustQuery(`select id, name, score from t order by id`).String(); got != wantTable {
		t.Errorf("dump taken before mutation restored to a different state:\n%s\nwant:\n%s", got, wantTable)
	}
	// A dump taken now reflects the new state (the snapshot advanced).
	var postDump strings.Builder
	if err := db.Dump(&postDump); err != nil {
		t.Fatal(err)
	}
	if postDump.String() == preDump.String() {
		t.Error("dump after mutation is identical to dump before mutation")
	}

	if rows.String() != wantTable {
		t.Errorf("held Rows table changed after mutation:\n%s", rows.String())
	}
	for i, r := range rows.Data {
		for j, cell := range r {
			if cell != want[i][j] {
				t.Errorf("held Rows.Data[%d][%d] = %v, want %v", i, j, cell, want[i][j])
			}
		}
	}
	// And the new query sees the new state (the snapshot is a copy, not a cache).
	after := db.MustQuery(`select count(*) from t`)
	if after.Data[0][0] != int64(3) {
		t.Errorf("post-mutation count = %v, want 3", after.Data[0][0])
	}
}

// stressSchema is the shared setup for the reader/writer stress test: a base
// table, an audit table, and rules that keep audit an exact mirror of t
// across both inserts and deletes. Because rules run inside the triggering
// transaction (Section 4), every committed state satisfies
// count(t) = count(audit) and sum(t.id) = sum(audit.id) — which is exactly
// what concurrent readers assert about each snapshot.
const stressSchema = `
	create table t (id int, v int);
	create table audit (id int, v int);
	create rule mirror when inserted into t
	then insert into audit (select id, v from inserted t)
	end;
	create rule unmirror when deleted from t
	then delete from audit where id in (select id from deleted t)
	end;
`

// stressScript generates the writer's deterministic operation sequence.
func stressScript(n int) []string {
	var ops []string
	for i := 0; i < n; i++ {
		ops = append(ops, fmt.Sprintf(`insert into t values (%d, %d)`, i, i%7))
		if i%7 == 3 && i >= 3 {
			ops = append(ops, fmt.Sprintf(`delete from t where id = %d`, i-3))
		}
	}
	return ops
}

// TestConcurrentReadersWriterStress runs reader goroutines against one
// writer over a rule-triggering workload, all sharing one *DB. Run under
// -race (CI does), it checks the two halves of the concurrency contract:
//
//   - every Rows snapshot a reader observes is internally consistent — the
//     mirror/unmirror rule invariant holds in every committed state a
//     lock-free query can see;
//   - the writer's effect is identical to serial execution — the final dump
//     equals a shadow database that executed the same script sequentially.
func TestConcurrentReadersWriterStress(t *testing.T) {
	const readers = 4
	const writerOps = 200

	db := Open()
	db.MustExec(stressSchema)
	script := stressScript(writerOps)

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for _, op := range script {
			if _, err := db.Exec(op); err != nil {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()

	const invariantQuery = `
		select (select count(*) from t), (select count(*) from audit),
		       (select sum(id) from t), (select sum(id) from audit)`
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; !done.Load(); i++ {
				rows, err := db.Query(invariantQuery)
				if err != nil {
					errs <- fmt.Errorf("reader %d: %w", r, err)
					return
				}
				row := rows.Data[0]
				if row[0] != row[1] || row[2] != row[3] {
					errs <- fmt.Errorf("reader %d: inconsistent snapshot: count %v vs %v, sum %v vs %v",
						r, row[0], row[1], row[2], row[3])
					return
				}
				switch {
				case i%16 == 5:
					s := db.Stats()
					if s.Committed < 0 || s.HeapScans < 0 {
						errs <- fmt.Errorf("reader %d: bogus stats %+v", r, s)
						return
					}
				case i%64 == 9:
					if err := db.Dump(io.Discard); err != nil {
						errs <- fmt.Errorf("reader %d: dump: %w", r, err)
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The concurrent run must be indistinguishable from serial execution:
	// replay the identical script on a fresh shadow database, one statement
	// at a time, and compare full dumps.
	shadow := Open()
	shadow.MustExec(stressSchema)
	for _, op := range script {
		shadow.MustExec(op)
	}
	var got strings.Builder
	if err := db.Dump(&got); err != nil {
		t.Fatal(err)
	}
	want, err := shadow.DumpString()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Errorf("concurrent dump differs from serial shadow:\n--- concurrent ---\n%s\n--- serial ---\n%s", got.String(), want)
	}
	// Sanity: the workload actually exercised the rule system.
	s := db.Stats()
	if s.RuleFirings == 0 || s.Committed == 0 {
		t.Errorf("workload fired no rules: %+v", s)
	}
}
