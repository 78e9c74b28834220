package main

import (
	"compress/gzip"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one request share Op;
// Parent is the ID of the enclosing span within the op, -1 for the root.
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced phase began
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced phase in memory.
type recorder struct {
	base time.Time
	mu   sync.Mutex
	next int64
	all  []span
}

func newRecorder() *recorder { return &recorder{base: time.Now()} }

// opTrace collects the spans of one request before they join the recorder.
type opTrace struct {
	r     *recorder
	op    int64
	spans []span
}

func (r *recorder) begin() *opTrace {
	r.mu.Lock()
	r.next++
	id := r.next
	r.mu.Unlock()
	return &opTrace{r: r, op: id}
}

// add records a span and returns its ID. A nil opTrace records nothing,
// so untraced runs go through the same code.
func (t *opTrace) add(name string, parent int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: t.op, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.r.base)), End: int64(end.Sub(t.r.base))})
	return id
}

func (t *opTrace) finish() {
	if t == nil {
		return
	}
	t.r.mu.Lock()
	t.r.all = append(t.r.all, t.spans...)
	t.r.mu.Unlock()
}

// selfTimes sums each span name's self time: its duration minus the part
// of its interval that its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		op int64
		id int
	}
	kids := make(map[key][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			k := key{s.Op, s.Parent}
			kids[k] = append(kids[k], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(s, kids[key{s.Op, s.ID}]))
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if lo < hi {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = parent.Start
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// writeSpans stores the spans as gzipped JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return err
		}
	}
	if err := zw.Close(); err != nil {
		_ = f.Close() // the gzip error is the one to report
		return err
	}
	return f.Close()
}
