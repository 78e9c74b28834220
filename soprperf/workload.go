package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
)

// op is one write transaction: a single client.Exec statement or, when
// batch is set, one client.ExecBatch operation block.
type op struct {
	stmts []string
	batch bool
}

// readOp is one read request of the open-loop reader.
type readOp struct {
	kind   string // "lookup" or "agg"
	src    string
	verify func(rows [][]any) error
}

// writer is one closed-loop connection's op stream together with the model
// of what its acknowledged ops leave behind. next is deterministic in the
// seed; acked applies the op next returned last and is called only once
// that op was durably acknowledged.
type writer interface {
	next() op
	acked()
}

// reader generates the open-loop reader's requests. Readers may look at
// the writers' models through atomics only.
type reader interface {
	next() readOp
}

// querier runs one SELECT against the system under test.
type querier func(src string) ([][]any, error)

// scenario is one seeded instance of a workload: schema, initial data,
// op streams and the checks that compare the final state with the model.
type scenario interface {
	setup() []string
	writers() []writer
	reader() reader
	check(q querier) error
	tableSizes() map[string]int
}

// workload describes one named traffic mix.
type workload struct {
	name string
	// concurrentReader runs the open-loop reader beside the writers;
	// otherwise it runs alone after them, because every writer holds one
	// of the two connections.
	concurrentReader bool
	// readRate is the open-loop reader's send rate (requests/s): low
	// beside a writer, higher alone so its shorter phase still yields a
	// tail percentile.
	readRate    int
	newScenario func(seed int64) scenario
}

var workloads = []workload{
	{name: "oltp_small", readRate: 400, newScenario: func(seed int64) scenario { return newOLTP(seed, 2, 125) }},
	{name: "oltp_large", concurrentReader: true, readRate: 100, newScenario: func(seed int64) scenario { return newOLTP(seed, 1, 20000) }},
	{name: "cascade", concurrentReader: true, readRate: 100, newScenario: func(seed int64) scenario { return newCascade(seed) }},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// ---------------------------------------------------------------------------
// oltp_small / oltp_large
// ---------------------------------------------------------------------------

const (
	groups     = 100
	loadChunk  = 1000 // rows per INSERT statement during the initial load
	writerSpan = 1_000_000_000
)

const oltpSchema = `
create table acct (id int not null, grp int, bal int);
create index acct_id on acct (id);
create table audit (id int, bal int);
create index audit_id on audit (id);
create table grp_total (g int, n int);
create rule audit_new when inserted into acct
then insert into audit select id, bal from inserted acct end;
create rule audit_gone when deleted from acct
then delete from audit where id in (select id from deleted acct) end;
create rule roll_up when updated acct.bal
then update grp_total set n = n + 1 where g in (select grp from new updated acct.bal) end;
`

type oltp struct {
	ws      []*oltpWriter
	rows    int // resident rows per writer
	readRNG *rand.Rand
	script  []string
}

// oltpWriter owns the keys [base, base+writerSpan). Its live keys are the
// window [head, tail): inserts append at the tail, deletes remove the
// head, updates hit a random live key, so the window slides and keeps its
// size.
type oltpWriter struct {
	base       int64
	rng        *rand.Rand
	head, tail atomic.Int64
	bal        map[int64]int64 // live id -> acct.bal
	auditBal   map[int64]int64 // live id -> audit.bal (the balance at insert)
	updates    [groups]int64   // acknowledged updates per grp
	block      []byte          // op kinds left in the current block of four
	kind       byte
	key, arg   int64
}

func newOLTP(seed int64, nWriters, rowsPerWriter int) *oltp {
	o := &oltp{rows: rowsPerWriter, readRNG: rand.New(rand.NewSource(seed*7919 + 1))}
	var load strings.Builder
	load.WriteString("insert into grp_total values ")
	for g := 0; g < groups; g++ {
		if g > 0 {
			load.WriteString(", ")
		}
		fmt.Fprintf(&load, "(%d, 0)", g)
	}
	o.script = []string{oltpSchema, load.String()}
	for w := 0; w < nWriters; w++ {
		ow := &oltpWriter{
			base:     int64(w) * writerSpan,
			rng:      rand.New(rand.NewSource(seed*7919 + int64(w) + 2)),
			bal:      make(map[int64]int64, rowsPerWriter+2),
			auditBal: make(map[int64]int64, rowsPerWriter+2),
		}
		ow.head.Store(ow.base)
		ow.tail.Store(ow.base + int64(rowsPerWriter))
		var vals []string
		for id := ow.base; id < ow.base+int64(rowsPerWriter); id++ {
			b := ow.rng.Int63n(1000)
			ow.bal[id], ow.auditBal[id] = b, b
			vals = append(vals, fmt.Sprintf("(%d, %d, %d)", id, id%groups, b))
			if len(vals) == loadChunk || id == ow.base+int64(rowsPerWriter)-1 {
				o.script = append(o.script, "insert into acct values "+strings.Join(vals, ", "))
				vals = vals[:0]
			}
		}
		o.ws = append(o.ws, ow)
	}
	return o
}

func (o *oltp) setup() []string { return o.script }

func (o *oltp) writers() []writer {
	out := make([]writer, len(o.ws))
	for i, w := range o.ws {
		out[i] = w
	}
	return out
}

func (o *oltp) tableSizes() map[string]int {
	n := o.rows * len(o.ws)
	return map[string]int{"acct": n, "audit": n, "grp_total": groups}
}

const (
	kUpdate byte = 'u'
	kInsert byte = 'i'
	kDelete byte = 'd'
)

// next draws the next op. Each block of four holds two updates, one insert
// and one delete in seeded order: 50% updates, 25% inserts, 25% deletes,
// and the window never drifts by more than one row.
func (w *oltpWriter) next() op {
	if len(w.block) == 0 {
		w.block = []byte{kUpdate, kUpdate, kInsert, kDelete}
		w.rng.Shuffle(len(w.block), func(i, j int) { w.block[i], w.block[j] = w.block[j], w.block[i] })
	}
	w.kind, w.block = w.block[0], w.block[1:]
	head, tail := w.head.Load(), w.tail.Load()
	var src string
	switch w.kind {
	case kUpdate:
		w.key, w.arg = head+w.rng.Int63n(tail-head), 1+w.rng.Int63n(100)
		src = fmt.Sprintf("update acct set bal = bal + %d where id = %d", w.arg, w.key)
	case kInsert:
		w.key, w.arg = tail, w.rng.Int63n(1000)
		src = fmt.Sprintf("insert into acct values (%d, %d, %d)", w.key, w.key%groups, w.arg)
	case kDelete:
		w.key = head
		src = fmt.Sprintf("delete from acct where id = %d", w.key)
	}
	return op{stmts: []string{src}}
}

func (w *oltpWriter) acked() {
	switch w.kind {
	case kUpdate:
		w.bal[w.key] += w.arg
		w.updates[w.key%groups]++
	case kInsert:
		w.bal[w.key], w.auditBal[w.key] = w.arg, w.arg
		w.tail.Add(1)
	case kDelete:
		delete(w.bal, w.key)
		delete(w.auditBal, w.key)
		w.head.Add(1)
	}
}

func (o *oltp) reader() reader { return o }

// One read in aggShare is an aggregate. Reads share one
// connection, so lookups queue behind the much slower aggregates; a
// fifth keeps that queueing a small part of lookup latency.
const aggShare = 5

// next picks at random between an indexed point lookup of a key some
// writer holds live and, one time in aggShare, a per-group aggregate
// that scans acct.
func (o *oltp) next() readOp {
	if o.readRNG.Intn(aggShare) != 0 {
		w := o.ws[o.readRNG.Intn(len(o.ws))]
		head, tail := w.head.Load(), w.tail.Load()
		key := head + o.readRNG.Int63n(tail-head)
		return readOp{kind: "lookup", src: fmt.Sprintf("select id, grp, bal from acct where id = %d", key),
			verify: func(rows [][]any) error {
				if len(rows) > 1 {
					return fmt.Errorf("lookup of id %d returned %d rows", key, len(rows))
				}
				if len(rows) == 1 {
					id, grp := asInt(rows[0][0]), asInt(rows[0][1])
					if id != key || grp != key%groups {
						return fmt.Errorf("lookup of id %d returned id=%d grp=%d", key, id, grp)
					}
				}
				return nil
			}}
	}
	g := o.readRNG.Intn(groups)
	// Each writer's window holds rows-1..rows+1 contiguous ids, so a group
	// has between floor((rows-1)/100) and ceil((rows+1)/100) of them.
	lo := len(o.ws) * ((o.rows - 1) / groups)
	hi := len(o.ws) * ((o.rows + 1 + groups - 1) / groups)
	return readOp{kind: "agg", src: fmt.Sprintf("select count(*), sum(bal) from acct where grp = %d", g),
		verify: func(rows [][]any) error {
			if len(rows) != 1 {
				return fmt.Errorf("aggregate of grp %d returned %d rows", g, len(rows))
			}
			if n := asInt(rows[0][0]); n < int64(lo) || n > int64(hi) {
				return fmt.Errorf("aggregate of grp %d counted %d rows, want %d..%d", g, n, lo, hi)
			}
			return nil
		}}
}

// check compares the final state with the acknowledged ops: row counts and
// sums of acct and audit (audit_new/audit_gone), and every group's
// grp_total.n against the acknowledged updates of that group (roll_up), so
// sum(grp_total.n) equals the acknowledged updates.
func (o *oltp) check(q querier) error {
	var n, sumBal, sumID, sumAudit int64
	var perGroup [groups]int64
	for _, w := range o.ws {
		n += int64(len(w.bal))
		for id, b := range w.bal {
			sumBal += b
			sumID += id
		}
		for _, b := range w.auditBal {
			sumAudit += b
		}
		for g, c := range w.updates {
			perGroup[g] += c
		}
	}
	if err := expectRow(q, "select count(*), sum(bal), sum(id) from acct", n, sumBal, sumID); err != nil {
		return err
	}
	if err := expectRow(q, "select count(*), sum(bal), sum(id) from audit", n, sumAudit, sumID); err != nil {
		return err
	}
	rows, err := q("select g, n from grp_total")
	if err != nil {
		return err
	}
	if len(rows) != groups {
		return fmt.Errorf("grp_total has %d rows, want %d", len(rows), groups)
	}
	for _, r := range rows {
		g, got := asInt(r[0]), asInt(r[1])
		if g < 0 || g >= groups {
			return fmt.Errorf("grp_total has a row for unknown group %d", g)
		}
		if got != perGroup[g] {
			return fmt.Errorf("grp_total row g=%d has n=%d, want %d acknowledged updates", g, got, perGroup[g])
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// cascade: the management forest of Examples 4.1-4.3
// ---------------------------------------------------------------------------

// The forest has cascadeTrees trees of fan-out 5 and depth 3; tree nodes
// are numbered heap-style, so node i's children are 5i+1..5i+5. Employee
// emp_no = 1000*tree + i + 1; the department an employee manages has that
// employee's emp_no as dept_no, and every non-root employee belongs to
// its parent's department (roots belong to department 0, which has no
// row).
const (
	cascadeTrees = 16
	treeNodes    = 1 + 5 + 25 + 125 // 156 employees per tree
	treeDepts    = 1 + 5 + 25       // 31 managers per tree
	salaryLimit  = 50000            // Example 4.2: average updated salary
	salaryCap    = 80000            // Example 4.2: salaries above this are fired
	salaryCut    = 40000
)

const cascadeSchema = `
create table emp (emp_no int not null, salary int, dept_no int);
create table dept (dept_no int, mgr_no int);
create table fired (emp_no int, salary int);
create index emp_no_idx on emp (emp_no);
create index emp_dept_idx on emp (dept_no);
create index dept_mgr_idx on dept (mgr_no);
create rule mgr_cascade when deleted from emp
then delete from emp where dept_no in
       (select dept_no from dept where mgr_no in (select emp_no from deleted emp));
     delete from dept where mgr_no in (select emp_no from deleted emp)
end;
create rule salary_watch when updated emp.salary
if (select avg(salary) from new updated emp.salary) > 50000
then insert into fired select emp_no, salary from new updated emp.salary where salary > 80000;
     update emp set salary = salary - 40000
       where emp_no in (select emp_no from new updated emp.salary where salary > 80000)
end;
create rule priority salary_watch before mgr_cascade;
`

type cascade struct {
	rng     *rand.Rand
	readRNG *rand.Rand
	salary  []int64 // by global node
	present []bool
	fired   [][2]int64 // (emp_no, salary) rows salary_watch inserted
	script  []string
	// prev is the level-1 node whose subtree the last acknowledged
	// transaction deleted (-1 before the first); the next transaction
	// re-inserts it.
	prev int
	// The transaction next returned last: the level-1 node it deletes,
	// the level-2 node whose department gets the raise, and the raise.
	del, raised int
	raise       int64
}

func empNo(node int) int64 { return int64(node/treeNodes)*1000 + int64(node%treeNodes) + 1 }

func parentNode(node int) int { return node - node%treeNodes + (node%treeNodes-1)/5 }

// deptOf is the dept_no an employee belongs to.
func deptOf(node int) int64 {
	if node%treeNodes == 0 {
		return 0
	}
	return empNo(parentNode(node))
}

func children(node int) []int {
	i, base := node%treeNodes, node-node%treeNodes
	out := make([]int, 5)
	for k := range out {
		out[k] = base + 5*i + 1 + k
	}
	return out
}

// subtree lists a level-1 node, its five reports and their 25 reports.
func subtree(node int) []int {
	out := []int{node}
	for _, c := range children(node) {
		out = append(out, c)
		out = append(out, children(c)...)
	}
	return out
}

func newCascade(seed int64) *cascade {
	c := &cascade{
		rng:     rand.New(rand.NewSource(seed*104729 + 1)),
		readRNG: rand.New(rand.NewSource(seed*104729 + 2)),
		salary:  make([]int64, cascadeTrees*treeNodes),
		present: make([]bool, cascadeTrees*treeNodes),
		prev:    -1,
	}
	c.script = []string{cascadeSchema}
	var emps, depts []string
	for n := range c.salary {
		c.salary[n] = 30000 + c.rng.Int63n(40001)
		c.present[n] = true
		emps = append(emps, fmt.Sprintf("(%d, %d, %d)", empNo(n), c.salary[n], deptOf(n)))
		if n%treeNodes < treeDepts {
			depts = append(depts, fmt.Sprintf("(%d, %d)", empNo(n), empNo(n)))
		}
		if len(emps) == loadChunk || n == len(c.salary)-1 {
			c.script = append(c.script, "insert into emp values "+strings.Join(emps, ", "))
			emps = emps[:0]
		}
	}
	c.script = append(c.script, "insert into dept values "+strings.Join(depts, ", "))
	return c
}

func (c *cascade) setup() []string   { return c.script }
func (c *cascade) writers() []writer { return []writer{c} }
func (c *cascade) reader() reader    { return cascadeReader{c} }
func (c *cascade) level1() int       { return c.rng.Intn(cascadeTrees)*treeNodes + 1 + c.rng.Intn(5) }
func (c *cascade) level2() int       { return c.rng.Intn(cascadeTrees)*treeNodes + 6 + c.rng.Intn(25) }
func (c *cascade) tableSizes() map[string]int {
	return map[string]int{"emp": cascadeTrees * treeNodes, "dept": cascadeTrees * treeDepts, "fired": len(c.fired)}
}

// next builds one operation block: re-insert the subtree the previous
// transaction deleted, delete one level-1 manager (mgr_cascade removes
// its 30 reports and 6 departments over three firings), and raise the
// salaries of one level-2 department (salary_watch). The raised
// department lies outside both subtrees, so the model stays a sequence of
// independent steps.
func (c *cascade) next() op {
	c.del = c.level1()
	for c.del == c.prev {
		c.del = c.level1()
	}
	c.raised = c.level2()
	for p := parentNode(c.raised); p == c.del || p == c.prev; p = parentNode(c.raised) {
		c.raised = c.level2()
	}
	c.raise = 5000 + c.rng.Int63n(20001)
	var stmts []string
	if c.prev >= 0 {
		var emps, depts []string
		for _, n := range subtree(c.prev) {
			emps = append(emps, fmt.Sprintf("(%d, %d, %d)", empNo(n), c.salary[n], deptOf(n)))
			if n%treeNodes < treeDepts {
				depts = append(depts, fmt.Sprintf("(%d, %d)", empNo(n), empNo(n)))
			}
		}
		stmts = append(stmts, "insert into emp values "+strings.Join(emps, ", "),
			"insert into dept values "+strings.Join(depts, ", "))
	}
	stmts = append(stmts,
		fmt.Sprintf("delete from emp where emp_no = %d", empNo(c.del)),
		fmt.Sprintf("update emp set salary = salary + %d where dept_no = %d", c.raise, empNo(c.raised)))
	return op{stmts: stmts, batch: true}
}

// acked applies the block and the rule processing it triggers to the
// model. salary_watch fires while the average of its updated set exceeds
// salaryLimit: it records every member above salaryCap in fired and cuts
// their salaries, and the cut rows are its next updated set.
func (c *cascade) acked() {
	if c.prev >= 0 {
		for _, n := range subtree(c.prev) {
			c.present[n] = true
		}
	}
	for _, n := range subtree(c.del) {
		c.present[n] = false
	}
	set := children(c.raised)
	for _, n := range set {
		c.salary[n] += c.raise
	}
	for len(set) > 0 {
		var sum int64
		for _, n := range set {
			sum += c.salary[n]
		}
		if sum <= salaryLimit*int64(len(set)) {
			break
		}
		var cut []int
		for _, n := range set {
			if c.salary[n] > salaryCap {
				c.fired = append(c.fired, [2]int64{empNo(n), c.salary[n]})
				c.salary[n] -= salaryCut
				cut = append(cut, n)
			}
		}
		set = cut
	}
	c.prev = c.del
}

// check compares emp, dept and fired with the model and checks Example
// 4.1's fixpoint: no department whose manager is gone and no employee
// whose department is gone.
func (c *cascade) check(q querier) error {
	var n, sumSal, sumNo, nd, sumDept int64
	for node, ok := range c.present {
		if !ok {
			continue
		}
		n++
		sumSal += c.salary[node]
		sumNo += empNo(node)
		if node%treeNodes < treeDepts {
			nd++
			sumDept += empNo(node)
		}
	}
	if err := expectRow(q, "select count(*), sum(salary), sum(emp_no) from emp", n, sumSal, sumNo); err != nil {
		return err
	}
	if err := expectRow(q, "select count(*), sum(dept_no), sum(mgr_no) from dept", nd, sumDept, sumDept); err != nil {
		return err
	}
	if err := expectRow(q, "select count(*) from dept where mgr_no not in (select emp_no from emp)", 0); err != nil {
		return fmt.Errorf("mgr_cascade fixpoint: %w", err)
	}
	if err := expectRow(q, "select count(*) from emp where dept_no <> 0 and dept_no not in (select dept_no from dept)", 0); err != nil {
		return fmt.Errorf("mgr_cascade fixpoint: %w", err)
	}
	rows, err := q("select emp_no, salary from fired")
	if err != nil {
		return err
	}
	got := make([][2]int64, len(rows))
	for i, r := range rows {
		got[i] = [2]int64{asInt(r[0]), asInt(r[1])}
	}
	want := append([][2]int64(nil), c.fired...)
	for _, s := range [][][2]int64{got, want} {
		sort.Slice(s, func(i, j int) bool { return s[i][0] < s[j][0] || s[i][0] == s[j][0] && s[i][1] < s[j][1] })
	}
	if len(got) != len(want) {
		return fmt.Errorf("fired has %d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("fired row %v, want %v", got[i], want[i])
		}
	}
	return nil
}

type cascadeReader struct{ c *cascade }

// next picks at random between an emp_no lookup and, one time in
// aggShare, a per-tree dept ⋈ emp group-by. In any committed state a tree has all 31
// departments with five members each or, while one of its subtrees is
// deleted, 25 departments and a root department of four.
func (r cascadeReader) next() readOp {
	rng := r.c.readRNG
	if rng.Intn(aggShare) != 0 {
		node := rng.Intn(len(r.c.salary))
		no, dept := empNo(node), deptOf(node)
		return readOp{kind: "lookup", src: fmt.Sprintf("select emp_no, salary, dept_no from emp where emp_no = %d", no),
			verify: func(rows [][]any) error {
				if len(rows) > 1 || len(rows) == 1 && (asInt(rows[0][0]) != no || asInt(rows[0][2]) != dept) {
					return fmt.Errorf("lookup of emp_no %d returned %v", no, rows)
				}
				return nil
			}}
	}
	t := int64(rng.Intn(cascadeTrees))
	src := fmt.Sprintf("select d.mgr_no, count(*), sum(e.salary) from dept d, emp e "+
		"where d.dept_no = e.dept_no and d.mgr_no between %d and %d group by d.mgr_no", t*1000, t*1000+999)
	return readOp{kind: "agg", src: src, verify: func(rows [][]any) error {
		if len(rows) != treeDepts && len(rows) != treeDepts-6 {
			return fmt.Errorf("tree %d has %d departments with members, want %d or %d", t, len(rows), treeDepts, treeDepts-6)
		}
		for _, row := range rows {
			mgr, n := asInt(row[0]), asInt(row[1])
			if n != 5 && !(n == 4 && mgr%1000 == 1 && len(rows) == treeDepts-6) {
				return fmt.Errorf("department of manager %d has %d members in %d departments", mgr, n, len(rows))
			}
		}
		return nil
	}}
}

// ---------------------------------------------------------------------------

// asInt converts a numeric cell; anything else maps to -1, which no check
// expects.
func asInt(v any) int64 {
	switch x := v.(type) {
	case int64:
		return x
	case float64:
		return int64(x)
	}
	return -1
}

// expectRow runs a one-row query and compares its integer cells.
func expectRow(q querier, src string, want ...int64) error {
	rows, err := q(src)
	if err != nil {
		return fmt.Errorf("%s: %w", src, err)
	}
	if len(rows) != 1 || len(rows[0]) != len(want) {
		return fmt.Errorf("%s: got %v, want one row %v", src, rows, want)
	}
	for i, w := range want {
		if got := asInt(rows[0][i]); got != w {
			return fmt.Errorf("%s: got %v, want %v", src, rows[0], want)
		}
	}
	return nil
}
