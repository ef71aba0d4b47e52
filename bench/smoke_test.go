package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkFileMatchesProgram pins BENCHMARK.json to what the program
// reports: same workloads, same metric names, units, directions and bounds.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the program", i, bf.Workloads[i].Name, w.name)
		}
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q is outside the contract's alphabet", w.name)
		}
	}
	check := func(kind string, file, prog []metricDef) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(file), len(prog))
		}
		seen := make(map[string]bool)
		for i, d := range prog {
			if file[i] != d {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, file[i], d)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("%s: bad or repeated name %q", kind, d.Name)
			}
			seen[d.Name] = true
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd)
	check("per_layer", bf.PerLayer, perLayer)
	if len(bf.PerLayer) > 128 || len(bf.EndToEnd) > 16 {
		t.Errorf("too many metrics: %d end-to-end, %d per-layer", len(bf.EndToEnd), len(bf.PerLayer))
	}
}

func toyRun(t *testing.T, w workload, traced, fault bool) *result {
	t.Helper()
	res, err := runWorkload(w, 7, 0.3, traced, true, fault, t.TempDir())
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	return res
}

// TestSmoke runs every workload at toy size, untraced and traced, and checks
// the result schema, the oracle and the counters that are exact.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := toyRun(t, w, false, false)
			if res.Failed != 0 || !res.Correct || res.Attempted == 0 {
				t.Fatalf("untraced: %d of %d checks failed: %v", res.Failed, res.Attempted, res.Reasons)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit || !(m.Value > 0) {
					t.Errorf("%s = %+v (present %v): want a positive value in %s", d.Name, m, ok, d.Unit)
				}
			}
			if res.Env.CPUs < 1 || res.Env.GoMaxProcs < 1 || res.Env.S < 1 || res.Env.Seed != 7 || len(res.Shape) == 0 {
				t.Errorf("environment block incomplete: %+v shape %v", res.Env, res.Shape)
			}

			tr := toyRun(t, w, true, false)
			if tr.Failed != 0 || !tr.Correct {
				t.Fatalf("traced: %d of %d checks failed: %v", tr.Failed, tr.Attempted, tr.Reasons)
			}
			if len(tr.Metrics) != len(perLayer) {
				t.Fatalf("traced run reports %d metrics, want %d", len(tr.Metrics), len(perLayer))
			}
			v := func(name string) float64 { return tr.Metrics[name].Value }
			if v("calib.sha256_ms") <= 0 || v("calib.ff64_ms") <= 0 || v("proc.e2e_p50_traced_ms") <= 0 {
				t.Errorf("calibration or traced latency missing: %v %v %v", v("calib.sha256_ms"), v("calib.ff64_ms"), v("proc.e2e_p50_traced_ms"))
			}
			switch w.name {
			case "rekey-storm":
				if shards, _ := tr.Shape["shards"].(int); shards == 0 || v("core.solves_per_op") != float64(shards) {
					t.Errorf("core.solves_per_op = %v, want the shard count %v", v("core.solves_per_op"), tr.Shape["shards"])
				}
				if v("core.cache_hits_per_op") != 0 {
					t.Errorf("core.cache_hits_per_op = %v after ResetRekeyCache", v("core.cache_hits_per_op"))
				}
			case "paper-direct":
				if v("core.solves_per_op") != 1 || v("core.cache_hits_per_op") != 2 {
					t.Errorf("solves %v cache hits %v per op, want 1 and 2", v("core.solves_per_op"), v("core.cache_hits_per_op"))
				}
			case "churn-stream":
				if v("relay.resets") != 0 || v("relay.reconnects") != 1 || v("wire.delta_ratio") >= 1 {
					t.Errorf("resets %v reconnects %v delta ratio %v", v("relay.resets"), v("relay.reconnects"), v("wire.delta_ratio"))
				}
			case "onboard":
				if v("g2.lanes_per_env") <= 0 || v("g2.batch_inversions_per_env") <= 0 {
					t.Errorf("lane kernel not used: lanes %v inversions %v per envelope", v("g2.lanes_per_env"), v("g2.batch_inversions_per_env"))
				}
			case "durable-restart":
				if v("store.post_restart_solves") != 0 || v("store.wal_replayed_per_op") <= 0 || v("store.recovered_segments") <= 0 {
					t.Errorf("post-restart solves %v, replayed %v, segments %v", v("store.post_restart_solves"), v("store.wal_replayed_per_op"), v("store.recovered_segments"))
				}
			}
		})
	}
}

// TestOracleCanFail drives every workload with the fault switch on: a green
// run means something only if the checks can go red.
func TestOracleCanFail(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := toyRun(t, w, false, true)
			if res.Failed == 0 || res.Correct {
				t.Fatalf("fault injected, yet %d of %d checks failed", res.Failed, res.Attempted)
			}
		})
	}
}

// TestFaultExitsNonZero checks the last link: a failed check reaches the
// process's exit code and no result line is printed.
func TestFaultExitsNonZero(t *testing.T) {
	cmd := exec.Command("go", "run", ".", "-workload", "paper-direct", "-toy", "-fault", "-seconds", "0.2", "-outdir", t.TempDir())
	out, err := cmd.Output()
	if err == nil {
		t.Fatalf("exit 0 with a fault injected:\n%s", out)
	}
	if regexp.MustCompile(`(?m)^\{"attempted"`).Match(out) {
		t.Errorf("a result line was printed for a failed run:\n%s", out)
	}
}
