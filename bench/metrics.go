package main

import (
	"fmt"
	"sort"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the gated metrics; every workload reports all of them in the
// untraced run. BENCHMARK.json lists the same names, units and bounds (the
// smoke test compares the two). fail_ratio is not among them: it is 0 on
// every accepted run, and is reported as attempted/failed instead. The time
// bounds are the contract's widest: on the shared host the numbers come from,
// a fixed ALU kernel varies by 10 % between runs and by more when the
// hypervisor steals CPU (README.md, Repeatability).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"e2e_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "op/s", "higher", 0.25},
	{"rx_bytes_per_op", "B", "lower", 0.05},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"heap_live_mb", "MB", "lower", 0.15},
}

func defs(unit, better string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

// perLayer are the ungated metrics of the traced run, named after the module
// they time or count. A workload that never enters a layer reports 0 for it.
var perLayer = concat(
	defs("ms", "lower",
		"pubsub.load_ms", "pubsub.mutate_ms", "pubsub.publish_ms", "pubsub.publish_p99_ms",
		"pubsub.diff_ms", "pubsub.register_batch_ms"),
	defs("B", "lower", "pubsub.table_bytes_per_row"),
	defs("count", "lower",
		"core.solves_per_op", "core.rebuilds_per_op", "core.dominance_skips_per_op"),
	defs("count", "higher", "core.cache_hits_per_op"),
	defs("ms", "lower", "core.build_ms", "core.kev_ms"),
	defs("ns", "lower", "core.rowhash_ns"),
	defs("ratio", "higher", "core.parallel_efficiency"),
	defs("ms", "lower",
		"linalg.solve_ms", "sym.seal_open_ms",
		"wire.marshal_snapshot_ms", "wire.marshal_delta_ms", "wire.unmarshal_ms"),
	defs("B", "lower", "wire.delta_bytes", "wire.snapshot_bytes", "wire.header_bytes"),
	defs("ratio", "lower", "wire.delta_ratio"),
	defs("ms", "lower", "fanout.publish_ms", "fanout.enqueue_ms", "transport.tap_lag_ms"),
	defs("B", "lower", "transport.origin_egress_bytes_per_op"),
	defs("count", "lower", "transport.origin_egress_frames_per_op"),
	defs("ms", "lower", "transport.register_rtt_ms", "transport.fetch_ms", "relay.hop_ms"),
	defs("B", "lower", "relay.egress_bytes_per_op"),
	defs("count", "lower", "relay.deltas", "relay.snapshots", "relay.resets", "relay.reconnects"),
	defs("ms", "lower",
		"subscriber.apply_ms", "subscriber.decrypt_ms", "subscriber.cold_decrypt_ms",
		"idtoken.issue_ms", "idtoken.verify_ms",
		"ocbe.prepare_eq_ms", "ocbe.prepare_ge_ms", "ocbe.compose_eq_ms", "ocbe.compose_ge_ms",
		"ocbe.open_eq_ms", "ocbe.open_ge_ms"),
	defs("count", "lower", "g2.lanes_per_env", "g2.batch_inversions_per_env"),
	defs("ms", "lower", "store.commit_ms", "store.snapshot_ms"),
	defs("B", "lower", "store.snapshot_bytes_written"),
	defs("ratio", "lower", "store.dirty_segment_ratio"),
	defs("ms", "lower", "store.close_ms", "store.open_ms", "store.recover_ms"),
	defs("MB/s", "higher", "store.recover_mb_per_s"),
	defs("count", "lower", "store.wal_replayed_per_op", "store.recovered_segments", "store.post_restart_solves"),
	defs("B", "lower", "store.disk_bytes"),
	defs("MB", "lower", "proc.alloc_mb_per_op", "proc.peak_rss_mb"),
	defs("count", "lower", "proc.mallocs_per_op"),
	defs("ms", "lower",
		"proc.gc_pause_ms_per_op", "proc.gen_late_p99_ms", "proc.e2e_p90_ms", "proc.e2e_p99_ms",
		"proc.e2e_p50_traced_ms", "proc.unattributed_ms", "proc.chain_sum_ms"),
	defs("ratio", "lower", "proc.trace_overhead_ratio", "proc.host_steal_ratio"),
	defs("ms", "lower", "calib.sha256_ms", "calib.ff64_ms"),
)

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the last stdout line carries Correct,
// Attempted, Failed and Metrics; the result file carries all of it.
type result struct {
	Workload        string         `json:"workload"`
	Why             string         `json:"why"`
	Traced          bool           `json:"traced"`
	Env             environment    `json:"environment"`
	Shape           map[string]any `json:"shape"`
	Samples         map[string]int `json:"samples"`
	SetupSeconds    []float64      `json:"setup_seconds"`
	MeasuredSeconds float64        `json:"measured_seconds"`
	// HostStealRatio is the share of the run's CPU time the hypervisor gave
	// to other guests: a reading taken under heavy steal says more about
	// the neighbours than about the program.
	HostStealRatio float64                `json:"host_steal_ratio"`
	Ops            int                    `json:"ops"`
	Correct        bool                   `json:"correct"`
	Attempted      int64                  `json:"attempted"`
	Failed         int64                  `json:"failed"`
	Reasons        []string               `json:"failure_reasons,omitempty"`
	Metrics        map[string]metricValue `json:"metrics"`

	vals map[string]float64
}

func (r *result) set(name string, v float64) {
	if r.vals == nil {
		r.vals = make(map[string]float64)
	}
	r.vals[name] = v
}

// seal turns the collected values into the run's metric set: every
// end-to-end metric (untraced) or every per-layer metric (traced). A value
// set under a name outside the run's list is a bug in the bench.
func (r *result) seal(orc *oracle) error {
	list := endToEnd
	if r.Traced {
		list = perLayer
	}
	known := make(map[string]bool, len(list))
	r.Metrics = make(map[string]metricValue, len(list))
	for _, d := range list {
		known[d.Name] = true
		v, ok := r.vals[d.Name]
		if !ok && !r.Traced {
			return fmt.Errorf("bench: workload %s did not report %s", r.Workload, d.Name)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var stray []string
	for name := range r.vals {
		if !known[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("bench: workload %s set unlisted metrics %v", r.Workload, stray)
	}
	r.Attempted, r.Failed = orc.attempted.Load(), orc.failed.Load()
	r.Reasons = orc.reasons
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return nil
}
