// Command bench is the repo's end-to-end benchmark: one process drives the
// path a subdocument travels — token, OCBE registration, table T, ACV solve,
// v3 frame, relay, subscriber key derivation, plaintext — over loopback TCP,
// checks every output, and prints every metric by name with its unit. See
// README.md for the workloads and the meaning of each metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Uint64("seed", 1, "seed of every generated input")
		seconds = flag.Float64("seconds", runSeconds, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		outDir  = flag.String("outdir", "bench/out", "directory for result and trace files")
		runs    = flag.Int("runs", 1, "repeat each selected workload this many times")
		outSet  = flag.String("out", "", "also write every result of this invocation to one file, for -compare")
		toy     = flag.Bool("toy", false, "toy-sized tables (smoke test)")
		fault   = flag.Bool("fault", false, "self-test: hand the oracle an input that must fail")
		compare = flag.Bool("compare", false, "compare two result sets: -compare a.json b.json")
		descr   = flag.Bool("describe", false, "print BENCHMARK.json as this program defines it")
	)
	flag.Parse()
	if *descr {
		if err := describe(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare a.json b.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	failed := false
	var last *result
	var set []*result
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(w, *seed, *seconds, *trace == 1, *toy, *fault, *outDir)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			printResult(res)
			if err := writeJSON(filepath.Join(*outDir, resultFile(res)), res); err != nil {
				fatal(err)
			}
			failed = failed || !res.Correct
			last = res
			set = append(set, res)
		}
	}
	if *outSet != "" {
		if err := writeJSON(*outSet, set); err != nil {
			fatal(err)
		}
	}
	if failed {
		// A failed check is a failed run: no result line.
		fmt.Fprintln(os.Stderr, "bench: correctness checks failed")
		os.Exit(1)
	}
	line, err := json.Marshal(map[string]any{
		"correct": last.Correct, "attempted": last.Attempted, "failed": last.Failed, "metrics": last.Metrics,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// runSeconds is the measured phase the contract's driver asks for.
const runSeconds = 20

// describe writes the benchmark's contract file from the program's own
// tables, so BENCHMARK.json cannot drift from what a run reports.
func describe(w io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds,
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	for _, x := range workloads {
		doc.Workloads = append(doc.Workloads, wl{x.name, x.why})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

func resultFile(r *result) string {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	return fmt.Sprintf("result-%s-%s.json", r.Workload, kind)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// subscriberLanes is S: one lane per CPU, at most 4.
func subscriberLanes() int { return min(runtime.NumCPU(), 4) }

func runWorkload(w workload, seed uint64, seconds float64, traced, toy, fault bool, outDir string) (*result, error) {
	env := &runEnv{
		seed: seed, seconds: seconds, s: subscriberLanes(), setupReps: 3,
		toy: toy, fault: fault, outDir: outDir, orc: &oracle{},
	}
	if toy {
		env.setupReps = 1
	}
	res := &result{Workload: w.name, Why: w.why, Traced: traced, Env: readEnvironment(seed, env.s)}
	if traced {
		env.tr = newTracer()
		calibrate(res)
	}
	steal0, jiffies0 := hostJiffies()
	runErr := w.run(env, res)
	if steal1, jiffies1 := hostJiffies(); jiffies1 > jiffies0 {
		res.HostStealRatio = float64(steal1-steal0) / float64(jiffies1-jiffies0)
	}
	if traced {
		res.set("proc.host_steal_ratio", res.HostStealRatio)
	}
	if err := env.tr.write(outDir, w.name); err != nil {
		return nil, err
	}
	if runErr != nil && env.orc.failed.Load() == 0 {
		return nil, runErr
	}
	if runErr != nil {
		// The oracle already holds the reason; report the run as incorrect.
		res.Attempted, res.Failed, res.Reasons = env.orc.attempted.Load(), env.orc.failed.Load(), env.orc.reasons
		res.Reasons = append(res.Reasons, runErr.Error())
		return res, nil
	}
	if err := res.seal(env.orc); err != nil {
		return nil, err
	}
	return res, nil
}

func printResult(r *result) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced)"
	}
	fmt.Printf("== %s · %s · seed %d · S=%d · %d ops in %.1f s · cpus %d gomaxprocs %d · host steal %.1f %%\n",
		r.Workload, kind, r.Env.Seed, r.Env.S, r.Ops, r.MeasuredSeconds, r.Env.CPUs, r.Env.GoMaxProcs, 100*r.HostStealRatio)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		note := ""
		if c, ok := r.Samples[n]; ok {
			note = fmt.Sprintf("  (n=%d)", c)
		}
		fmt.Printf("  %-40s %14.4f %s%s\n", n, m.Value, m.Unit, note)
	}
	fmt.Printf("  %-40s %14d of %d checks\n", "failed", r.Failed, r.Attempted)
	for _, why := range r.Reasons {
		fmt.Printf("  FAIL: %s\n", why)
	}
}
