package server

import (
	"reflect"
	"testing"
	"time"

	"sopr"
	"sopr/client"
	"sopr/internal/repl"
)

// statsSchema gives every engine counter a statement that advances it: a
// rule that fires (floor), a ROLLBACK rule (guard), an index for lookups,
// a second table to join and scan, and an INTEGER index whose float probe
// beyond 2^53 falls back to a heap scan.
const statsSchema = `
	create table emp (name varchar, dept_no int, salary float);
	create table dept (dept_no int, mgr varchar);
	create table big (id int, tag varchar);
	create index emp_dept on emp (dept_no);
	create index big_id on big (id);
	create rule floor when inserted into emp
	then update emp set salary = 40 where name in (select name from inserted emp) and salary < 40 and salary >= 0
	end;
	create rule guard when inserted into emp
	if exists (select * from inserted emp where salary < 0)
	then rollback;
	insert into dept values (1, 'ann');
	insert into big values (1152921504606846976, 'huge'), (1, 'small');
`

// driveEveryCounter advances every engine counter on the node behind c,
// then writes a checkpoint.
func driveEveryCounter(t *testing.T, c *client.Client, checkpoint func() error) {
	t.Helper()
	res, err := c.Exec(`insert into emp values ('bob', 1, 10)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Firings) == 0 {
		t.Fatalf("floor rule did not fire: %+v", res)
	}
	if res, err = c.Exec(`insert into emp values ('eve', 1, -5)`); err != nil {
		t.Fatal(err)
	}
	if !res.RolledBack {
		t.Fatalf("guard rule did not roll back: %+v", res)
	}
	for _, q := range []string{
		`select name from emp where dept_no = 1`,                           // index lookup
		`select mgr from dept`,                                             // heap scan
		`select e.name from emp e, dept d where e.dept_no = d.dept_no`,     // planned join
		`select tag from big b, dept d where b.id = 1152921504606846976.0`, // probe fallback
	} {
		if _, err := c.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if err := checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// checkStatsOverWire asserts every engine counter is nonzero and that the
// remote stats equal the backend's own, field for field.
func checkStatsOverWire(t *testing.T, c *client.Client, local func() sopr.Stats) {
	t.Helper()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	v := reflect.ValueOf(st.Engine)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("engine counter %s is zero", v.Type().Field(i).Name)
		}
	}
	if want := local(); st.Engine != want {
		t.Errorf("remote engine stats differ from the backend's:\n got %+v\nwant %+v", st.Engine, want)
	}
}

// TestStatsEveryCounterOverWire drives a durable, reopened database through
// the server until every engine counter is nonzero, then checks the stats
// response carries each one unchanged.
func TestStatsEveryCounterOverWire(t *testing.T) {
	dir := t.TempDir()
	db, err := sopr.OpenDurable(dir, sopr.WithFsync(sopr.FsyncAlways))
	if err != nil {
		t.Fatal(err)
	}
	db.MustExec(statsSchema)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen without a checkpoint: recovery replays the log.
	if db, err = sopr.OpenDurable(dir, sopr.WithFsync(sopr.FsyncAlways)); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	_, addr := startServer(t, db, Config{})
	c := dial(t, addr)
	driveEveryCounter(t, c, db.Checkpoint)
	checkStatsOverWire(t, c, db.Stats)
}

// TestStatsEveryCounterOverWireFollower does the same on a durable
// follower: stream applies count as recovered records, and once promoted
// it commits, group-commits and checkpoints through its own log.
func TestStatsEveryCounterOverWireFollower(t *testing.T) {
	pdb, err := sopr.OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pnode, err := repl.NewNode(pdb, repl.Config{Heartbeat: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pnode.Close() })
	_, paddr := startServer(t, pnode, Config{})
	pdb.MustExec(statsSchema)

	fdb, err := sopr.OpenDurable(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fl, err := repl.NewNode(fdb, repl.Config{
		Leader:       paddr,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 250 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fl.Close() })
	_, faddr := startServer(t, fl, Config{})
	if err := fl.WaitForLSN(pdb.CurrentLSN(), 15*time.Second); err != nil {
		t.Fatal(err)
	}
	c := dial(t, faddr)
	if err := c.Promote(); err != nil {
		t.Fatal(err)
	}
	driveEveryCounter(t, c, fdb.Checkpoint)
	checkStatsOverWire(t, c, fl.Stats)
}
