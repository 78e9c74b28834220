package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// TestFrameRoundTripProperty writes pseudo-random frames of many sizes and
// types through a buffer and checks they read back bit-identically, frame
// boundaries intact.
func TestFrameRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var buf bytes.Buffer
	type frame struct {
		typ     byte
		payload []byte
	}
	var frames []frame
	sizes := []int{0, 1, 2, 7, 64, 1024, 65536, 1 << 18}
	for i := 0; i < 100; i++ {
		n := sizes[rng.Intn(len(sizes))]
		payload := make([]byte, n)
		rng.Read(payload)
		typ := byte(rng.Intn(256))
		frames = append(frames, frame{typ, payload})
		if err := WriteFrame(&buf, typ, payload, 0); err != nil {
			t.Fatalf("frame %d: write: %v", i, err)
		}
	}
	for i, f := range frames {
		typ, payload, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		if typ != f.typ {
			t.Fatalf("frame %d: type = 0x%02x, want 0x%02x", i, typ, f.typ)
		}
		if !bytes.Equal(payload, f.payload) {
			t.Fatalf("frame %d: payload mismatch (%d vs %d bytes)", i, len(payload), len(f.payload))
		}
	}
	if typ, _, err := ReadFrame(&buf, 0); err != io.EOF {
		t.Fatalf("after last frame: type 0x%02x err %v, want io.EOF", typ, err)
	}
}

func TestReadFrameTruncated(t *testing.T) {
	var full bytes.Buffer
	if err := WriteFrame(&full, MsgExec, []byte(`{"src":"select 1"}`), 0); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	// Every proper prefix except the empty one must yield ErrUnexpectedEOF;
	// the empty prefix is a clean EOF between frames.
	for cut := 1; cut < len(raw); cut++ {
		_, _, err := ReadFrame(bytes.NewReader(raw[:cut]), 0)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("prefix of %d/%d bytes: err = %v, want ErrUnexpectedEOF", cut, len(raw), err)
		}
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil), 0); err != io.EOF {
		t.Fatalf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	const max = 128
	// Writing oversized payloads fails before touching the stream.
	var buf bytes.Buffer
	err := WriteFrame(&buf, MsgExec, make([]byte, max+1), max)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write: err = %v, want ErrFrameTooLarge", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized write left %d bytes on the stream", buf.Len())
	}
	// Reading a frame whose declared length exceeds max fails without
	// consuming the payload.
	if err := WriteFrame(&buf, MsgExec, make([]byte, max+1), 0); err != nil {
		t.Fatal(err)
	}
	before := buf.Len()
	_, _, err = ReadFrame(&buf, max)
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read: err = %v, want ErrFrameTooLarge", err)
	}
	if got := before - buf.Len(); got != headerSize {
		t.Fatalf("oversized read consumed %d bytes, want only the %d-byte header", got, headerSize)
	}
	// A frame exactly at max passes.
	buf.Reset()
	if err := WriteFrame(&buf, MsgPing, make([]byte, max), max); err != nil {
		t.Fatalf("write at max: %v", err)
	}
	if _, payload, err := ReadFrame(&buf, max); err != nil || len(payload) != max {
		t.Fatalf("read at max: len %d err %v", len(payload), err)
	}
}

func TestMessageRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := ExecResponse{
		RolledBack:   true,
		RollbackRule: "guard",
		Firings:      []Firing{{Rule: "r", Effect: "[I:0 D:2 U:0 S:0]"}},
	}
	if err := WriteMessage(&buf, MsgExecResult, want, 0); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := ReadFrame(&buf, 0)
	if err != nil || typ != MsgExecResult {
		t.Fatalf("type 0x%02x err %v", typ, err)
	}
	var got ExecResponse
	if err := Unmarshal(payload, &got); err != nil {
		t.Fatal(err)
	}
	if got.RollbackRule != "guard" || !got.RolledBack || len(got.Firings) != 1 || got.Firings[0].Rule != "r" {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestCellRoundTrip(t *testing.T) {
	cols := []string{"a", "b", "c", "d", "e"}
	data := [][]any{
		{nil, int64(-7), 3.25, "it's", true},
		{int64(1 << 62), 0.0, "", false, nil},
	}
	rows, err := RowsOf(cols, data)
	if err != nil {
		t.Fatal(err)
	}
	gotCols, gotData, err := rows.Decode()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(gotCols, ",") != strings.Join(cols, ",") {
		t.Fatalf("columns %v", gotCols)
	}
	for i := range data {
		for j := range data[i] {
			if gotData[i][j] != data[i][j] {
				t.Errorf("cell [%d][%d] = %#v, want %#v", i, j, gotData[i][j], data[i][j])
			}
		}
	}
	// int64 and float64 stay distinct through JSON.
	if _, ok := gotData[0][1].(int64); !ok {
		t.Errorf("int cell decoded as %T", gotData[0][1])
	}
	if _, ok := gotData[0][2].(float64); !ok {
		t.Errorf("float cell decoded as %T", gotData[0][2])
	}
	if _, err := CellOf(struct{}{}); err == nil {
		t.Error("CellOf accepted an unsupported type")
	}
	if _, err := (Cell{Kind: "z"}).Value(); err == nil {
		t.Error("Value accepted an unknown kind")
	}
}

func TestTypeName(t *testing.T) {
	for typ, want := range map[byte]string{
		MsgExec: "exec", MsgQuery: "query", MsgDump: "dump", MsgStats: "stats",
		MsgPing: "ping", MsgExecResult: "exec_result", MsgQueryResult: "query_result",
		MsgDumpResult: "dump_result", MsgStatsResult: "stats_result",
		MsgPong: "pong", MsgError: "error", 0x42: "0x42",
	} {
		if got := TypeName(typ); got != want {
			t.Errorf("TypeName(0x%02x) = %q, want %q", typ, got, want)
		}
	}
}

// TestStatsResponseGolden pins the MsgStatsResult payload bytes for fixed
// counters, so a change to the Go declarations behind StatsResponse cannot
// silently change what older clients decode. The zero-value case pins the
// omitempty form: group-commit and planner counters vanish at zero, the
// other engine and server counters are always sent, and Repl is omitted.
func TestStatsResponseGolden(t *testing.T) {
	var full StatsResponse
	e := &full.Engine
	e.Committed, e.RolledBack, e.ExternalTransitions = 1, 2, 3
	e.RuleConsiderations, e.RuleFirings = 4, 5
	e.IndexLookups, e.HeapScans = 6, 7
	e.WALAppends, e.WALBytes, e.RecoveredRecords, e.Checkpoints = 8, 9, 10, 11
	e.GroupCommits, e.GroupedTxns = 12, 13
	e.PlannedQueries, e.PlanProbeFallbacks = 14, 15
	full.Server = ServerStats{
		Accepted: 21, Active: 22, Execs: 23, BatchExecs: 24, Queries: 25, Dumps: 26,
		StatsReqs: 27, Pings: 28, Errors: 29, BadFrames: 30, InFlight: 31, DrainedReqs: 32,
	}
	full.Repl = &ReplStats{
		Role: "replica", LSN: 41, PrimaryLSN: 42, Lag: 1, Connected: true, Promoted: true,
		Followers: 2, MinFollowerLSN: 40, Epoch: 3, Durable: true, Fenced: true,
		Leader: "127.0.0.1:5477", SyncFollowers: 1, SyncTimeouts: 4, Resets: 5, DiscardedRecords: 6,
	}
	cases := []struct {
		name string
		resp StatsResponse
		want string
	}{
		{"zero", StatsResponse{}, `{"engine":{"committed":0,"rolled_back":0,"external_transitions":0,` +
			`"rule_considerations":0,"rule_firings":0,"index_lookups":0,"heap_scans":0,"wal_appends":0,` +
			`"wal_bytes":0,"recovered_records":0,"checkpoints":0},"server":{"accepted":0,"active":0,` +
			`"execs":0,"batch_execs":0,"queries":0,"dumps":0,"stats_reqs":0,"pings":0,"errors":0,` +
			`"bad_frames":0,"in_flight":0,"drained_reqs":0}}`},
		{"full", full, `{"engine":{"committed":1,"rolled_back":2,"external_transitions":3,` +
			`"rule_considerations":4,"rule_firings":5,"index_lookups":6,"heap_scans":7,"wal_appends":8,` +
			`"wal_bytes":9,"recovered_records":10,"checkpoints":11,"group_commits":12,"grouped_txns":13,` +
			`"planned_queries":14,"plan_probe_fallbacks":15},"server":{"accepted":21,"active":22,` +
			`"execs":23,"batch_execs":24,"queries":25,"dumps":26,"stats_reqs":27,"pings":28,"errors":29,` +
			`"bad_frames":30,"in_flight":31,"drained_reqs":32},"repl":{"role":"replica","lsn":41,` +
			`"primary_lsn":42,"lag":1,"connected":true,"promoted":true,"followers":2,"min_follower_lsn":40,` +
			`"epoch":3,"durable":true,"fenced":true,"leader":"127.0.0.1:5477","sync_followers":1,` +
			`"sync_timeouts":4,"resets":5,"discarded_records":6}}`},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		if err := WriteMessage(&buf, MsgStatsResult, tc.resp, 0); err != nil {
			t.Fatal(err)
		}
		typ, payload, err := ReadFrame(&buf, 0)
		if err != nil || typ != MsgStatsResult {
			t.Fatalf("%s: type 0x%02x err %v", tc.name, typ, err)
		}
		if string(payload) != tc.want {
			t.Errorf("%s: payload\n got %s\nwant %s", tc.name, payload, tc.want)
		}
		var back StatsResponse
		if err := Unmarshal(payload, &back); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if back.Engine != tc.resp.Engine || back.Server != tc.resp.Server ||
			(back.Repl == nil) != (tc.resp.Repl == nil) || (back.Repl != nil && *back.Repl != *tc.resp.Repl) {
			t.Errorf("%s: decode mismatch: %+v", tc.name, back)
		}
	}
}
