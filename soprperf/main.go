// Command soprperf is sopr's end-to-end and per-layer benchmark.
//
// For one workload and seed it starts soprd (built from cmd/soprd) with
// -data on a fresh directory and the default -fsync always, loads the
// seeded initial data, drives the seeded op streams through the public
// client package over at most two connections, checks the final state
// against a model of the acknowledged writes, kills soprd with SIGKILL,
// times its recovery and checks again. With -trace 1 it instead replays
// the same op streams through the layers in-process and reports where
// the time goes.
//
//	bash soprperf/run.sh --workload oltp_small --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics; a fuller record (seed, Go
// version, GOMAXPROCS, commit, flush policy, table sizes) is written to
// the -out directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"sopr"
	"sopr/client"
)

// endToEnd and perLayer are the metrics the result line carries with
// -trace 0 and -trace 1; BENCHMARK.json lists the same names. The p99s,
// failed_op_share and reader_late_p99_ms are printed and recorded but not
// carried: on a shared 2-vCPU VM a p99 moves with the neighbours' fsyncs
// and CPU steal by more than any bound from run to run (oltp_small's write
// p99 ranged 3.2-6.1 ms over eight seeds), so write_p90_ms is the gated
// tail.
var (
	endToEnd = []string{"setup_s", "write_p50_ms", "write_p90_ms", "write_tps",
		"lookup_p50_ms", "agg_p50_ms", "server_peak_rss_mb", "recovery_s"}
	perLayer = []string{"wire.encode_us", "wire.decode_us", "wire.bytes_per_op", "net.residual_us",
		"sqlparse.parse_us", "engine.lock_wait_us", "engine.external_us", "rules.consider_us", "rules.fire_us",
		"engine.commit_us", "wal.wait_us", "wal.txns_per_sync", "wal.bytes_per_txn", "exec.lookup_us", "exec.agg_us",
		"rules.considerations_per_txn", "rules.firings_per_txn", "rules.useful_ratio",
		"storage.index_lookups_per_op", "storage.heap_scans_per_op", "exec.planned_queries_per_op",
		"inproc.write_us", "trace.overhead_pct"}
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	soprd    string
	out      string
}

// repeats is how many set-ups and recoveries a run times; setup_s and
// recovery_s are their medians.
const repeats = 9

// report is the machine-readable record of one run.
type report struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    int            `json:"seconds"`
	Trace      int            `json:"trace"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Commit     string         `json:"commit"`
	Fsync      string         `json:"fsync"`
	Tables     map[string]int `json:"table_sizes"`
	Correct    bool           `json:"correct"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Errors     []string       `json:"errors,omitempty"`
	Metrics    []metric       `json:"metrics"`
	SpansFile  string         `json:"spans_file,omitempty"`
}

func (r *report) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: unit})
}

// fail marks the run incorrect; the first few errors are kept.
func (r *report) fail(err error) {
	r.Correct = false
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// daemons tracks live soprd processes so every exit path can kill them.
type daemons struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

func (ds *daemons) start(bin, dir string) (*daemon, error) {
	d, err := startDaemon(bin, dir)
	if err != nil {
		return nil, err
	}
	ds.mu.Lock()
	ds.live[d] = true
	ds.mu.Unlock()
	return d, nil
}

func (ds *daemons) kill(d *daemon) {
	d.kill()
	ds.mu.Lock()
	delete(ds.live, d)
	ds.mu.Unlock()
}

// forget drops a daemon that has exited on its own.
func (ds *daemons) forget(d *daemon) {
	ds.mu.Lock()
	delete(ds.live, d)
	ds.mu.Unlock()
}

func (ds *daemons) killAll() {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	for d := range ds.live {
		d.kill()
		delete(ds.live, d)
	}
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: oltp_small, oltp_large or cascade")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics against soprd; 1: per-layer metrics from a traced in-process run")
	flag.StringVar(&cfg.soprd, "soprd", "", "soprd binary built from cmd/soprd")
	flag.StringVar(&cfg.out, "out", ".bench_build", "directory for data directories and result files")
	flag.Parse()
	if cfg.soprd == "" || cfg.seconds < 1 || cfg.trace < 0 || cfg.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	ds := &daemons{live: make(map[*daemon]bool)}
	defer ds.killAll() // on a panic
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sig
		ds.killAll()
		fmt.Fprintf(os.Stderr, "soprperf: %v\n", s)
		os.Exit(1)
	}()
	// Every run must end within 180 seconds.
	watchdog := time.AfterFunc(170*time.Second, func() {
		ds.killAll()
		fmt.Fprintln(os.Stderr, "soprperf: run exceeded 170s")
		os.Exit(1)
	})

	rep, err := run(cfg, ds)
	ds.killAll()
	watchdog.Stop()
	if err != nil {
		fmt.Fprintf(os.Stderr, "soprperf: %v\n", err)
		os.Exit(1)
	}
	printReport(rep)
	if err := saveReport(cfg, rep); err != nil {
		fmt.Fprintf(os.Stderr, "soprperf: %v\n", err)
		os.Exit(1)
	}
	names := endToEnd
	if cfg.trace == 1 {
		names = perLayer
	}
	out := map[string]any{"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed}
	ms := make(map[string]any)
	for _, n := range names {
		for _, m := range rep.Metrics {
			if m.Name == n {
				ms[n] = map[string]any{"value": m.Value, "unit": m.Unit}
			}
		}
		if ms[n] == nil {
			fmt.Fprintf(os.Stderr, "soprperf: metric %s was not measured\n", n)
			os.Exit(1)
		}
	}
	out["metrics"] = ms
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "soprperf: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config, ds *daemons) (*report, error) {
	wl, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	rep := &report{Workload: wl.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: commit(),
		Fsync: fsyncPolicy, Correct: true}
	if cfg.trace == 0 {
		err = runEndToEnd(cfg, wl, ds, tmp, rep)
	} else {
		err = runTraced(cfg, wl, ds, tmp, rep)
	}
	return rep, err
}

// phaseLengths splits a measured span between the write phase and, for a
// workload whose reader cannot run beside its writers, a read phase.
func phaseLengths(wl workload, total time.Duration) (write, read time.Duration) {
	if wl.concurrentReader {
		return total, 0
	}
	return total * 4 / 5, total / 5
}

// setUp starts soprd on a fresh directory and loads the scenario's
// initial data through one connection.
func setUp(cfg config, ds *daemons, sc scenario, dir string) (*daemon, error) {
	d, err := ds.start(cfg.soprd, dir)
	if err != nil {
		return nil, err
	}
	c, err := d.dial()
	if err != nil {
		return nil, err
	}
	defer c.Close()
	for _, src := range sc.setup() {
		if _, err := c.Exec(src); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return d, nil
}

// runLoad opens the phase's connections, runs it and closes them.
func runLoad(wl workload, d *daemon, sc scenario, length time.Duration) (*phaseResult, error) {
	t := &tcpTarget{}
	defer func() {
		for _, c := range t.writers {
			c.Close()
		}
		if wl.concurrentReader && t.reader != nil {
			t.reader.Close()
		}
	}()
	for range sc.writers() {
		c, err := d.dial()
		if err != nil {
			return nil, err
		}
		t.writers = append(t.writers, c)
	}
	t.reader = t.writers[0]
	if wl.concurrentReader {
		c, err := d.dial()
		if err != nil {
			return nil, err
		}
		t.reader = c
	}
	w, r := phaseLengths(wl, length)
	return runPhase(wl, sc, t, w, r), nil
}

func checkDaemon(d *daemon, sc scenario) error {
	c, err := d.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	return sc.check(clientQuerier(c))
}

// recoveryTail is how many writes follow the checkpoint before the crash,
// so recovery replays the same amount of log in every run.
const recoveryTail = 50

func runEndToEnd(cfg config, wl workload, ds *daemons, tmp string, rep *report) error {
	sc := wl.newScenario(cfg.seed)
	rep.Tables = sc.tableSizes()
	var setups []float64
	var d *daemon
	var dir string
	for i := 0; i < repeats; i++ {
		dir = filepath.Join(tmp, fmt.Sprintf("data%d", i))
		t0 := time.Now()
		dd, err := setUp(cfg, ds, sc, dir)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < repeats-1 {
			ds.kill(dd)
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		} else {
			d = dd
		}
	}
	setupS, _ := median(setups)

	ph, err := runLoad(wl, d, sc, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return err
	}
	if err := checkDaemon(d, sc); err != nil {
		rep.fail(fmt.Errorf("after the run: %w", err))
	}
	// Every write acknowledged during the run must survive a SIGKILL.
	ds.kill(d)
	if d, err = ds.start(cfg.soprd, dir); err != nil {
		return fmt.Errorf("restart after kill -9: %w", err)
	}
	if err := checkDaemon(d, sc); err != nil {
		rep.fail(fmt.Errorf("after kill -9 and restart: %w", err))
	}
	ds.kill(d)

	// Recovery is timed on an image that depends on the seed alone, not on
	// how many writes the run completed.
	rsc := wl.newScenario(cfg.seed)
	rdir := filepath.Join(tmp, "recovery")
	if d, err = setUp(cfg, ds, rsc, rdir); err != nil {
		return err
	}
	recovery, err := crashAndRecover(cfg, ds, d, rsc, rdir, rep)
	if err != nil {
		return err
	}
	rep.add("setup_s", setupS, "s")
	if err := addPhase(rep, ph); err != nil {
		return err
	}
	rep.add("server_peak_rss_mb", rss, "MB")
	rep.add("recovery_s", recovery, "s")
	return nil
}

// crashAndRecover stops a freshly set-up soprd gracefully (a checkpoint),
// restarts it, runs recoveryTail writes, kills it with SIGKILL and times
// restarts until a ping is answered. The crashed directory is copied first
// so every restart recovers the same image; recovery_s is their median.
// SIGKILL keeps the OS page cache, so the checks after the first restart
// prove that every acknowledged write reached the log, not the disk.
func crashAndRecover(cfg config, ds *daemons, d *daemon, sc scenario, dir string, rep *report) (float64, error) {
	if err := d.stop(); err != nil {
		return 0, err
	}
	ds.forget(d)
	d, err := ds.start(cfg.soprd, dir)
	if err != nil {
		return 0, err
	}
	c, err := d.dial()
	if err != nil {
		return 0, err
	}
	ws := sc.writers()
	t := &tcpTarget{writers: make([]*client.Client, len(ws))}
	for i := range t.writers {
		t.writers[i] = c
	}
	for i := 0; i < recoveryTail; i++ {
		w := ws[i%len(ws)]
		o := w.next()
		rep.Attempted++
		if err := t.write(i%len(ws), o); err != nil {
			rep.Failed++
			rep.fail(fmt.Errorf("write before the crash: %w", err))
			break
		}
		w.acked()
	}
	c.Close()
	ds.kill(d)

	dirs := []string{dir}
	for i := 1; i < repeats; i++ {
		cp := fmt.Sprintf("%s-copy%d", dir, i)
		if err := copyDir(dir, cp); err != nil {
			return 0, err
		}
		dirs = append(dirs, cp)
	}
	var times []float64
	for i, dd := range dirs {
		t0 := time.Now()
		d2, err := ds.start(cfg.soprd, dd)
		if err != nil {
			return 0, fmt.Errorf("restart after kill -9: %w", err)
		}
		c, err := d2.dial()
		if err == nil {
			err = c.Ping()
			c.Close()
		}
		if err != nil {
			return 0, fmt.Errorf("ping after restart: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 0 {
			if err := checkDaemon(d2, sc); err != nil {
				rep.fail(fmt.Errorf("recovery image after kill -9 and restart: %w", err))
			}
		}
		ds.kill(d2)
	}
	recovery, _ := median(times)
	return recovery, nil
}

// addPhase records a phase's end-to-end metrics, errors and op counts.
func addPhase(rep *report, ph *phaseResult) error {
	for _, s := range []struct {
		name string
		d    dist
	}{{"write", ph.writes}, {"lookup", ph.lookups}, {"agg", ph.aggs}} {
		ms, err := latencyMetrics(s.name, s.d)
		if err != nil {
			return err
		}
		rep.Metrics = append(rep.Metrics, ms...)
	}
	rep.add("write_tps", float64(ph.acked)/ph.writeElapsed.Seconds(), "1/s")
	if late, pct, ok := tail(ph.late, 99); ok {
		rep.Metrics = append(rep.Metrics, metric{Name: "reader_late_p99_ms", Value: late, Unit: "ms", Pct: pct, Samples: len(ph.late)})
	}
	rep.Attempted += ph.attempted
	rep.Failed += ph.failed
	rep.add("failed_op_share", float64(ph.failed)/float64(max(ph.attempted, 1)), "ratio")
	for _, err := range ph.errs {
		rep.fail(err)
	}
	return nil
}

func runTraced(cfg config, wl workload, ds *daemons, tmp string, rep *report) error {
	phase := time.Duration(cfg.seconds) * time.Second / 2

	// Untraced soprd run, for the part of a write spent outside the layers.
	sc := wl.newScenario(cfg.seed)
	rep.Tables = sc.tableSizes()
	d, err := setUp(cfg, ds, sc, filepath.Join(tmp, "tcp"))
	if err != nil {
		return err
	}
	tcp, err := runLoad(wl, d, sc, phase)
	if err != nil {
		return err
	}
	if err := checkDaemon(d, sc); err != nil {
		rep.fail(fmt.Errorf("soprd run: %w", err))
	}
	ds.kill(d)

	// The same op streams in-process, every other op traced.
	sc = wl.newScenario(cfg.seed)
	db, err := sopr.OpenDurable(filepath.Join(tmp, "inproc"), sopr.WithFsync(sopr.FsyncAlways))
	if err != nil {
		return err
	}
	defer func() { _ = db.Close() }() // the directory is discarded
	for _, src := range sc.setup() {
		if _, err := db.Exec(src); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
	}
	p := newInproc(db)
	e0, l0 := p.eng.Stats(), p.log.Stats()
	w, r := phaseLengths(wl, phase)
	ph := runPhase(wl, sc, p, w, r)
	e1, l1 := p.eng.Stats(), p.log.Stats()
	p.eng.SetTrace(nil)
	if err := sc.check(p.query); err != nil {
		rep.fail(fmt.Errorf("in-process run: %w", err))
	}
	for _, q := range []*phaseResult{tcp, ph} {
		rep.Attempted += q.attempted
		rep.Failed += q.failed
		for _, err := range q.errs {
			rep.fail(err)
		}
	}

	// Span means are over the traced ops, counters over all of them.
	self := selfTimes(p.rec.all)
	roots := make(map[string]float64)
	for _, s := range p.rec.all {
		if s.Parent < 0 {
			roots[s.Name]++
		}
	}
	if roots["write"] == 0 || roots["lookup"] == 0 || roots["agg"] == 0 {
		return errors.New("the traced ops include no writes, lookups or aggregates")
	}
	us := func(name string, per float64) float64 { return float64(self[name]) / 1e3 / per }
	tracedOps := roots["write"] + roots["lookup"] + roots["agg"]
	rep.add("wire.encode_us", us("wire.encode", tracedOps), "us")
	rep.add("wire.decode_us", us("wire.decode", tracedOps), "us")
	rep.add("sqlparse.parse_us", us("sqlparse.parse", tracedOps), "us")
	for _, n := range []string{"engine.lock_wait", "engine.external", "rules.consider", "rules.fire", "engine.commit", "wal.wait"} {
		rep.add(n+"_us", us(n, roots["write"]), "us")
	}
	rep.add("exec.lookup_us", us("exec.lookup", roots["lookup"]), "us")
	rep.add("exec.agg_us", us("exec.agg", roots["agg"]), "us")

	txns, ops := float64(ph.acked), float64(ph.acked+ph.readOps)
	rep.add("wire.bytes_per_op", float64(p.wireBytes.Load())/ops, "B")
	rep.add("wal.txns_per_sync", float64(l1.GroupedTxns-l0.GroupedTxns)/float64(max(l1.GroupCommits-l0.GroupCommits, 1)), "count")
	rep.add("wal.bytes_per_txn", float64(l1.Bytes-l0.Bytes)/txns, "B")
	cons, fires := float64(e1.RuleConsiderations-e0.RuleConsiderations), float64(e1.RuleFirings-e0.RuleFirings)
	rep.add("rules.considerations_per_txn", cons/txns, "count")
	rep.add("rules.firings_per_txn", fires/txns, "count")
	rep.add("rules.useful_ratio", fires/max(cons, 1), "ratio")
	rep.add("storage.index_lookups_per_op", float64(e1.IndexLookups-e0.IndexLookups)/ops, "count")
	rep.add("storage.heap_scans_per_op", float64(e1.HeapScans-e0.HeapScans)/ops, "count")
	rep.add("exec.planned_queries_per_op", float64(e1.PlannedQueries-e0.PlannedQueries)/ops, "count")

	var total float64
	for _, x := range p.traced {
		total += x
	}
	rep.add("inproc.write_us", total*1e3/float64(len(p.traced)), "us")
	tcpP50, ok1 := median(tcp.writes)
	plainP50, ok2 := median(p.plain)
	tracedP50, _ := median(p.traced)
	if !ok1 || !ok2 {
		return errors.New("a phase completed no writes")
	}
	rep.add("net.residual_us", (tcpP50-plainP50)*1e3, "us")
	rep.add("trace.overhead_pct", (tracedP50/plainP50-1)*100, "%")

	rep.SpansFile = filepath.Join(cfg.out, "results", fmt.Sprintf("%s-seed%d-spans.jsonl.gz", wl.name, cfg.seed))
	if err := os.MkdirAll(filepath.Dir(rep.SpansFile), 0o755); err != nil {
		return err
	}
	return writeSpans(rep.SpansFile, p.rec.all)
}

// commit is the VCS revision stamped into the binary, when it was built
// inside a git checkout.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func printReport(rep *report) {
	fmt.Printf("soprperf %s seed=%d seconds=%d trace=%d go=%s GOMAXPROCS=%d commit=%s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.GoVersion, rep.GOMAXPROCS, rep.Commit)
	fmt.Printf("soprd: -data on a fresh directory, -fsync %s (flush policy); load through the client package, at most 2 connections\n", rep.Fsync)
	var tables []string
	for t := range rep.Tables {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	fmt.Print("initial table sizes:")
	for _, t := range tables {
		fmt.Printf(" %s=%d", t, rep.Tables[t])
	}
	fmt.Println()
	if rep.Trace == 0 {
		fmt.Println("recovery_s: kill -9 leaves the OS page cache intact, so the re-check proves acknowledged writes reached the log, not the disk; the in-repo DropUnsynced tests cover unflushed writes")
	}
	for _, m := range rep.Metrics {
		extra := ""
		if m.Samples > 0 {
			extra = fmt.Sprintf("  (p%.4g of %d samples)", m.Pct, m.Samples)
		}
		fmt.Printf("  %-30s %14.4f %-6s%s\n", m.Name, m.Value, m.Unit, extra)
	}
	fmt.Printf("attempted=%d failed=%d correct=%v\n", rep.Attempted, rep.Failed, rep.Correct)
	for _, e := range rep.Errors {
		fmt.Println("  error:", e)
	}
}

func saveReport(cfg config, rep *report) error {
	dir := filepath.Join(cfg.out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", rep.Workload, rep.Seed, rep.Trace))
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("results:", path)
	return nil
}

// copyDir copies a flat data directory.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			return fmt.Errorf("copy %s: %s is not a regular file", src, e.Name())
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
