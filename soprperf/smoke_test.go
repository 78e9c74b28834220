package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmoke runs every workload briefly in both modes against a freshly
// built soprd and requires correct results and every reported metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds soprd and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "soprd")
	if out, err := exec.Command("go", "build", "-o", bin, "sopr/cmd/soprd").CombinedOutput(); err != nil {
		t.Fatalf("build soprd: %v\n%s", err, out)
	}
	for _, wl := range workloads {
		for trace, names := range [][]string{endToEnd, perLayer} {
			cfg := config{workload: wl.name, seed: 7, seconds: 2, trace: trace, soprd: bin,
				out: filepath.Join(dir, "out")}
			ds := &daemons{live: make(map[*daemon]bool)}
			rep, err := run(cfg, ds)
			ds.killAll()
			if err != nil {
				t.Fatalf("%s trace=%d: %v", wl.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("%s trace=%d: correct=%v attempted=%d failed=%d errors=%v",
					wl.name, trace, rep.Correct, rep.Attempted, rep.Failed, rep.Errors)
			}
			have := make(map[string]bool)
			for _, m := range rep.Metrics {
				have[m.Name] = true
			}
			for _, n := range names {
				if !have[n] {
					t.Errorf("%s trace=%d: metric %s missing", wl.name, trace, n)
				}
			}
		}
	}
}

// TestSeededInputs checks that a seed fixes the op streams and that
// different seeds differ.
func TestSeededInputs(t *testing.T) {
	for _, wl := range workloads {
		ops := func(seed int64) []op {
			sc := wl.newScenario(seed)
			var out []op
			for i := 0; i < 50; i++ {
				for _, w := range sc.writers() {
					out = append(out, w.next())
					w.acked()
				}
			}
			return out
		}
		if !reflect.DeepEqual(ops(3), ops(3)) {
			t.Errorf("%s: seed 3 gave two different op streams", wl.name)
		}
		if reflect.DeepEqual(ops(3), ops(4)) {
			t.Errorf("%s: seeds 3 and 4 gave the same op stream", wl.name)
		}
	}
}

// TestBenchmarkJSON keeps the repository's BENCHMARK.json in step with the
// workloads and metrics this program reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	var wls []string
	for _, wl := range workloads {
		wls = append(wls, wl.name)
	}
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), wls},
		{"end_to_end", names(spec.EndToEnd), endToEnd},
		{"per_layer", names(spec.PerLayer), perLayer},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, the program reports %v", c.what, c.got, c.want)
		}
	}
}
