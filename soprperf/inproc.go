package main

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sopr"
	"sopr/internal/engine"
	"sopr/internal/exec"
	"sopr/internal/sqlast"
	"sopr/internal/sqlparse"
	"sopr/internal/value"
	"sopr/internal/wal"
	"sopr/internal/wire"
)

// inproc replays ops through the layers soprd calls, in-process: request
// and response frames through the wire codec on in-memory buffers,
// sqlparse, the engine under one mutex (the server's single write
// stream), and the WAL's group-commit wait outside it. Every other op is
// traced: each call becomes a span, and the engine's own steps come from
// the timestamps of its trace events. The untraced ops, interleaved with
// the traced ones under the same conditions, measure the path with spans
// off.
type inproc struct {
	db  *sopr.DB
	eng *engine.Engine
	log *wal.Log
	rec *recorder
	n   atomic.Int64 // ops started; the even ones are traced
	// wireBytes counts request and response frame bytes of all ops.
	wireBytes atomic.Int64

	mu      sync.Mutex // the write stream
	tracing bool       // the running ExecStatements belongs to a traced op
	events  []engineEvent

	latMu         sync.Mutex
	traced, plain dist // write latencies
}

type engineEvent struct {
	kind engine.TraceKind
	at   time.Time
}

func newInproc(db *sopr.DB) *inproc {
	p := &inproc{db: db, eng: db.Engine(), log: db.WALLog(), rec: newRecorder()}
	// The hook runs inside ExecStatements, which only runs under p.mu.
	p.eng.SetTrace(func(ev engine.TraceEvent) {
		if p.tracing {
			p.events = append(p.events, engineEvent{ev.Kind, time.Now()})
		}
	})
	return p
}

// begin starts an op's trace, or returns nil for an untraced op.
func (p *inproc) begin() *opTrace {
	if p.n.Add(1)%2 == 1 {
		return nil
	}
	return p.rec.begin()
}

// engineSpans names the interval that ends at each engine trace event:
// external statements (with their copy-on-write clones) up to the
// external transition, rule selection, composition and condition up to a
// consideration, a rule action up to its firing, and WAL append, commit
// and snapshot publish up to the commit.
var engineSpans = map[engine.TraceKind]string{
	engine.TraceExternalTransition: "engine.external",
	engine.TraceRuleConsidered:     "rules.consider",
	engine.TraceRuleFired:          "rules.fire",
	engine.TraceRollback:           "rules.rollback",
	engine.TraceCommit:             "engine.commit",
}

func (p *inproc) write(w int, o op) error {
	tr := p.begin()
	defer tr.finish()
	t0 := time.Now()
	root := tr.add("write", -1, t0, t0) // end is patched below

	var buf bytes.Buffer
	var srcs []string
	var err error
	if o.batch {
		err = wire.WriteMessage(&buf, wire.MsgExecBatch, wire.ExecBatchRequest{Stmts: o.stmts}, wire.DefaultMaxFrame)
	} else {
		err = wire.WriteMessage(&buf, wire.MsgExec, wire.ExecRequest{Src: o.stmts[0]}, wire.DefaultMaxFrame)
	}
	t1 := time.Now()
	tr.add("wire.encode", root, t0, t1)
	if err != nil {
		return err
	}
	p.wireBytes.Add(int64(buf.Len()))
	_, payload, err := wire.ReadFrame(&buf, wire.DefaultMaxFrame)
	if err == nil {
		if o.batch {
			var req wire.ExecBatchRequest
			err = wire.Unmarshal(payload, &req)
			srcs = req.Stmts
		} else {
			var req wire.ExecRequest
			err = wire.Unmarshal(payload, &req)
			srcs = []string{req.Src}
		}
	}
	t2 := time.Now()
	tr.add("wire.decode", root, t1, t2)
	if err != nil {
		return err
	}
	var stmts []sqlast.Statement
	for _, src := range srcs {
		st, err := sqlparse.ParseStatements(src)
		if err != nil {
			return err
		}
		stmts = append(stmts, st...)
	}
	t3 := time.Now()
	tr.add("sqlparse.parse", root, t2, t3)

	p.mu.Lock()
	t4 := time.Now()
	p.tracing, p.events = tr != nil, p.events[:0]
	txn, err := p.eng.ExecStatements(stmts)
	t5 := time.Now()
	events := append([]engineEvent(nil), p.events...)
	p.mu.Unlock()
	tr.add("engine.lock_wait", root, t3, t4)
	ex := tr.add("engine.exec", root, t4, t5)
	prev := t4
	for _, ev := range events {
		tr.add(engineSpans[ev.kind], ex, prev, ev.at)
		prev = ev.at
	}
	if err != nil {
		return err
	}
	if txn.RolledBack {
		return fmt.Errorf("transaction rolled back by rule %s", txn.RollbackRule)
	}

	err = p.log.WaitDurable(txn.LastLSN)
	t6 := time.Now()
	tr.add("wal.wait", root, t5, t6)
	if err != nil {
		return err
	}

	resp := wire.ExecResponse{LSN: p.db.CurrentLSN()}
	for _, f := range txn.Firings {
		resp.Firings = append(resp.Firings, wire.Firing{Rule: f.Rule, Effect: f.Effect})
	}
	typ := wire.MsgExecResult
	if o.batch {
		typ = wire.MsgExecBatchResult
	}
	buf.Reset()
	err = wire.WriteMessage(&buf, typ, resp, wire.DefaultMaxFrame)
	t7 := time.Now()
	tr.add("wire.encode", root, t6, t7)
	if err != nil {
		return err
	}
	p.wireBytes.Add(int64(buf.Len()))
	_, payload, err = wire.ReadFrame(&buf, wire.DefaultMaxFrame)
	if err == nil {
		err = wire.Unmarshal(payload, &resp)
	}
	t8 := time.Now()
	tr.add("wire.decode", root, t7, t8)
	p.latMu.Lock()
	if tr != nil {
		tr.spans[root].End = int64(t8.Sub(p.rec.base))
		p.traced.add(t8.Sub(t0))
	} else {
		p.plain.add(t8.Sub(t0))
	}
	p.latMu.Unlock()
	return err
}

func (p *inproc) read(r readOp) ([][]any, error) {
	tr := p.begin()
	defer tr.finish()
	t0 := time.Now()
	root := tr.add(r.kind, -1, t0, t0)

	var buf bytes.Buffer
	err := wire.WriteMessage(&buf, wire.MsgQuery, wire.QueryRequest{Src: r.src}, wire.DefaultMaxFrame)
	t1 := time.Now()
	tr.add("wire.encode", root, t0, t1)
	if err != nil {
		return nil, err
	}
	p.wireBytes.Add(int64(buf.Len()))
	var req wire.QueryRequest
	_, payload, err := wire.ReadFrame(&buf, wire.DefaultMaxFrame)
	if err == nil {
		err = wire.Unmarshal(payload, &req)
	}
	t2 := time.Now()
	tr.add("wire.decode", root, t1, t2)
	if err != nil {
		return nil, err
	}
	st, err := sqlparse.ParseStatement(req.Src)
	t3 := time.Now()
	tr.add("sqlparse.parse", root, t2, t3)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*sqlast.Select)
	if !ok {
		return nil, fmt.Errorf("read %q is not a SELECT", req.Src)
	}
	res, err := p.eng.Query(sel)
	t4 := time.Now()
	tr.add("exec."+r.kind, root, t3, t4)
	if err != nil {
		return nil, err
	}

	rows, err := wire.RowsOf(res.Columns, cells(res))
	if err == nil {
		buf.Reset()
		err = wire.WriteMessage(&buf, wire.MsgQueryResult, rows, wire.DefaultMaxFrame)
	}
	t5 := time.Now()
	tr.add("wire.encode", root, t4, t5)
	if err != nil {
		return nil, err
	}
	p.wireBytes.Add(int64(buf.Len()))
	var got wire.Rows
	var data [][]any
	_, payload, err = wire.ReadFrame(&buf, wire.DefaultMaxFrame)
	if err == nil {
		err = wire.Unmarshal(payload, &got)
	}
	if err == nil {
		_, data, err = got.Decode()
	}
	t6 := time.Now()
	tr.add("wire.decode", root, t5, t6)
	if tr != nil {
		tr.spans[root].End = int64(t6.Sub(p.rec.base))
	}
	return data, err
}

// query runs a SELECT for the final checks, outside any measurement.
func (p *inproc) query(src string) ([][]any, error) {
	res, err := p.eng.QueryString(src)
	if err != nil {
		return nil, err
	}
	return cells(res), nil
}

// cells converts a result to the plain Go values the server puts on the
// wire.
func cells(res *exec.Result) [][]any {
	out := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		vals := make([]any, len(row))
		for j, v := range row {
			switch v.Kind() {
			case value.KindInt:
				vals[j] = v.Int()
			case value.KindFloat:
				vals[j] = v.Float()
			case value.KindString:
				vals[j] = v.Str()
			case value.KindBool:
				vals[j] = v.Bool()
			}
		}
		out[i] = vals
	}
	return out
}
