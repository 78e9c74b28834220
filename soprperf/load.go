package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"sopr/client"
)

// target is the system a phase drives: soprd over TCP, or the same layers
// called in-process.
type target interface {
	// write runs writer w's op and returns once it is durable.
	write(w int, o op) error
	read(r readOp) ([][]any, error)
}

// phaseResult holds one measured phase. Latencies are in milliseconds.
type phaseResult struct {
	writes        dist
	lookups, aggs dist
	late          dist // how late the reader's sends ran behind schedule
	acked         int
	attempted     int
	failed        int
	writeElapsed  time.Duration // from the first send to the last ack
	readOps       int
	errs          []error // failed ops and failed read verifications
}

func (p *phaseResult) merge(q *phaseResult) {
	p.writes = append(p.writes, q.writes...)
	p.lookups = append(p.lookups, q.lookups...)
	p.aggs = append(p.aggs, q.aggs...)
	p.late = append(p.late, q.late...)
	p.acked += q.acked
	p.attempted += q.attempted
	p.failed += q.failed
	p.readOps += q.readOps
	p.errs = append(p.errs, q.errs...)
	if q.writeElapsed > p.writeElapsed {
		p.writeElapsed = q.writeElapsed
	}
}

// runPhase drives the scenario's closed-loop writers for writeFor and its
// open-loop reader beside them or, for a workload without a concurrent
// reader, alone for readFor afterwards.
func runPhase(wl workload, sc scenario, t target, writeFor, readFor time.Duration) *phaseResult {
	ws := sc.writers()
	parts := make([]*phaseResult, len(ws)+1)
	start := time.Now()
	var wg sync.WaitGroup
	for i, w := range ws {
		parts[i] = &phaseResult{}
		wg.Add(1)
		go func(i int, w writer) {
			defer wg.Done()
			runWriter(parts[i], t, i, w, start, start.Add(writeFor))
		}(i, w)
	}
	parts[len(ws)] = &phaseResult{}
	if wl.concurrentReader {
		runReader(parts[len(ws)], t, sc.reader(), wl.readRate, start, start.Add(writeFor))
		wg.Wait()
	} else {
		wg.Wait()
		rs := time.Now()
		runReader(parts[len(ws)], t, sc.reader(), wl.readRate, rs, rs.Add(readFor))
	}
	res := &phaseResult{}
	for _, p := range parts {
		res.merge(p)
	}
	return res
}

// runWriter is a closed loop: the next op is sent once the previous one
// is durably acknowledged. A failed op ends the writer, since the model
// no longer knows the state it left.
func runWriter(res *phaseResult, t target, i int, w writer, start, deadline time.Time) {
	var last time.Time
	for time.Now().Before(deadline) {
		o := w.next()
		res.attempted++
		t0 := time.Now()
		err := t.write(i, o)
		last = time.Now()
		if err != nil {
			res.failed++
			res.errs = append(res.errs, fmt.Errorf("writer %d: %w", i, err))
			break
		}
		w.acked()
		res.acked++
		res.writes.add(last.Sub(t0))
	}
	res.writeElapsed = last.Sub(start)
}

// runReader sends rate requests per second on a fixed schedule. Each
// latency is timed from the request's due time, so a stall also counts
// against the requests queued behind it; late records how far sends ran
// behind.
func runReader(res *phaseResult, t target, rd reader, rate int, start, deadline time.Time) {
	interval := time.Second / time.Duration(rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(deadline) {
			return
		}
		waitUntil(due)
		r := rd.next()
		sent := time.Now()
		res.attempted++
		res.readOps++
		rows, err := t.read(r)
		done := time.Now()
		res.late.add(sent.Sub(due))
		if err != nil {
			res.failed++
			res.errs = append(res.errs, fmt.Errorf("%s: %w", r.kind, err))
			continue
		}
		if err := r.verify(rows); err != nil {
			res.errs = append(res.errs, fmt.Errorf("%s: %w", r.kind, err))
			continue
		}
		if r.kind == "lookup" {
			res.lookups.add(done.Sub(due))
		} else {
			res.aggs.add(done.Sub(due))
		}
	}
}

// tcpTarget drives soprd through the public client package: one
// connection per writer and, for a concurrent reader, one more.
type tcpTarget struct {
	writers []*client.Client
	reader  *client.Client
}

func (t *tcpTarget) write(w int, o op) error {
	c := t.writers[w]
	var err error
	var rolledBack bool
	if o.batch {
		res, e := c.ExecBatch(o.stmts)
		err, rolledBack = e, e == nil && res.RolledBack
	} else {
		res, e := c.Exec(o.stmts[0])
		err, rolledBack = e, e == nil && res.RolledBack
	}
	if rolledBack {
		return fmt.Errorf("transaction rolled back")
	}
	return err
}

func (t *tcpTarget) read(r readOp) ([][]any, error) {
	rows, err := t.reader.Query(r.src)
	if err != nil {
		return nil, err
	}
	return rows.Data, nil
}

func clientQuerier(c *client.Client) querier {
	return func(src string) ([][]any, error) {
		rows, err := c.Query(src)
		if err != nil {
			return nil, err
		}
		return rows.Data, nil
	}
}

// waitUntil returns at t. Go's timers wake up to a millisecond late, which
// would dominate a sub-millisecond request's latency, so it sleeps until a
// millisecond before t and spins the rest, yielding to other goroutines.
// (A raw nanosleep would be closer, but it holds the scheduler's P and
// delays the writers' goroutines by up to sysmon's 10 ms tick.)
func waitUntil(t time.Time) {
	if d := time.Until(t) - time.Millisecond; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
