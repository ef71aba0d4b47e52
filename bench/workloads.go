package main

import (
	"errors"

	"ppcd/internal/core"
)

type workload struct {
	name string
	why  string
	run  func(env *runEnv, res *result) error
}

// workloads in the order BENCHMARK.json lists them. Each stresses a layer
// the others leave idle; README.md says which and why.
var workloads = []workload{
	{"churn-stream", "steady-state churn: 8 membership events per epoch, small deltas through regroup, ACV cache, diff, relay", runChurnStream},
	{"rekey-storm", "every shard re-solved each op: hashing, scheduler and the snapshot-sized wire path", runRekeyStorm},
	{"paper-direct", "the paper's single N x N ACV per configuration: the null-space solve dominates", runPaperDirect},
	{"onboard", "real OCBE registration through the relay proxy: group arithmetic and the RPC path", runOnboard},
	{"durable-restart", "stop/start cycles on the segmented store: WAL, snapshot, recovery, catch-up", runDurableRestart},
}

var errPoolExhausted = errors.New("bench: revocation pool exhausted; the run is longer than the table allows")

// pool is a seeded order over the rows that may leave.
type pool struct {
	rows []int
	next int
}

func newPool(g *rng, lo, hi, stride, phase int, reserved []int) *pool {
	skip := make(map[int]bool, len(reserved))
	for _, r := range reserved {
		skip[r] = true
	}
	var rows []int
	for i := lo; i < hi; i++ {
		if i%stride == phase && !skip[i] {
			rows = append(rows, i)
		}
	}
	order := g.perm(len(rows))
	p := &pool{rows: make([]int, len(rows))}
	for i, j := range order {
		p.rows[i] = rows[j]
	}
	return p
}

func (p *pool) take() (int, error) {
	if p.next == len(p.rows) {
		return 0, errPoolExhausted
	}
	p.next++
	return p.rows[p.next-1], nil
}

// rejoin re-registers a row that left earlier under a fresh CSS for
// condition 0, as a returning subscriber would after a new registration.
func (r *streamRig) rejoin(row int) error {
	v := r.g.css()
	r.tbl.css[row*len(r.tbl.conds)] = v
	return registerRow(r.pub, rowNym(row), map[string]core.CSS{condID(0): v})
}

// warmOps is the warm-up prefix every rig discards before its first measured
// op (the heap and the caches settle); toy runs keep two.
func warmOps(env *runEnv, n int) int {
	if env.toy {
		return 2
	}
	return n
}

// laneRowsOf picks the lanes' rows: even lanes the most privileged rows
// (full), odd lanes the least (partial), so both "obtains everything" and
// "must not obtain" are checked whenever S >= 2.
func laneRowsOf(full, partial []int) []int {
	var out []int
	for i := 0; i < len(full) && i < len(partial); i++ {
		out = append(out, full[i], partial[i])
	}
	return out
}

func runChurnStream(env *runEnv, res *result) error {
	rows := 25_000
	if env.toy {
		rows = 2_000
	}
	half := rows / 2
	cfg := &streamCfg{
		name: "churn-stream", rows: rows, policies: 2, groupSize: 128, subdocBytes: 1024,
		warmOps: warmOps(env, 30), openRate: 20, openShare: 0.5,
		// The first half of the rows holds attr0 only; the second half both.
		holds:    func(row, pol int) bool { return pol == 0 || row >= half },
		laneRows: laneRowsOf([]int{rows - 1, rows - 2}, []int{0, 1}),
	}
	cfg.shape = map[string]any{
		"rows": rows, "policies": 2, "fill": []float64{1, 0.5}, "conds": 1, "group_size": 128,
		"subdoc_bytes": 1024, "events_per_op": 8, "open_loop_ops_per_s": cfg.openRate, "warm_ops": cfg.warmOps,
	}
	cfg.newMutate = func(r *streamRig) func() (map[string]core.CSS, error) {
		leavers := newPool(r.g, 0, half, 1, 0, cfg.laneRows)
		creds := newPool(r.g, half, rows, 1, 0, cfg.laneRows)
		var gone []int
		return func() (map[string]core.CSS, error) {
			var canary map[string]core.CSS
			for k := 0; k < 5; k++ {
				row, err := leavers.take()
				if err != nil {
					return nil, err
				}
				if k == 0 {
					canary = r.tbl.cells(row)
				}
				if err := r.pub.RevokeSubscription(rowNym(row)); err != nil {
					return nil, err
				}
				gone = append(gone, row)
			}
			row, err := creds.take()
			if err != nil {
				return nil, err
			}
			if err := r.pub.RevokeCredential(rowNym(row), condID(1)); err != nil {
				return nil, err
			}
			// Returning joins trail the leaves by a few ops.
			for k := 0; k < 2 && len(gone) > 16; k++ {
				if err := r.rejoin(gone[0]); err != nil {
					return nil, err
				}
				gone = gone[1:]
			}
			return canary, nil
		}
	}
	return runStream(env, cfg, res)
}

func runRekeyStorm(env *runEnv, res *result) error {
	rows := 8_000
	if env.toy {
		rows = 1_000
	}
	half := rows / 2
	cfg := &streamCfg{
		name: "rekey-storm", rows: rows, policies: 2, groupSize: 128, subdocBytes: 1024, warmOps: warmOps(env, 5),
		scaling:  true,
		holds:    func(row, pol int) bool { return pol == 0 || row >= half },
		laneRows: laneRowsOf([]int{rows - 1, rows - 2}, []int{0, 1}),
	}
	cfg.shape = map[string]any{
		"rows": rows, "policies": 2, "fill": []float64{1, 0.5}, "conds": 1, "group_size": 128,
		"subdoc_bytes": 1024, "warm_ops": cfg.warmOps,
	}
	cfg.newMutate = func(r *streamRig) func() (map[string]core.CSS, error) {
		leavers := newPool(r.g, 0, half, 1, 0, cfg.laneRows)
		return func() (map[string]core.CSS, error) {
			if r.prev == nil {
				return nil, nil // seed publish: the cold solve of an intact table
			}
			row, err := leavers.take()
			if err != nil {
				return nil, err
			}
			canary := r.tbl.cells(row)
			if err := r.pub.RevokeSubscription(rowNym(row)); err != nil {
				return nil, err
			}
			r.pub.ResetRekeyCache()
			return canary, nil
		}
	}
	return runStream(env, cfg, res)
}

func runPaperDirect(env *runEnv, res *result) error {
	n := 512
	if env.toy {
		n = 64
	}
	cfg := &streamCfg{
		name: "paper-direct", rows: n, policies: 3, groupSize: 0, subdocBytes: 1024, warmOps: warmOps(env, 5),
		// Row i holds attr0 always, attr1 iff bit 0 of i, attr2 iff bit 1:
		// fill 100 % / 50 % / 50 %.
		holds:    func(row, pol int) bool { return pol == 0 || row>>(pol-1)&1 == 1 },
		laneRows: laneRowsOf([]int{3, 7}, []int{0, 4}),
	}
	cfg.shape = map[string]any{
		"n": n, "policies": 3, "fill": []float64{1, 0.5, 0.5}, "conds": 1, "group_size": 0,
		"subdoc_bytes": 1024, "warm_ops": cfg.warmOps,
	}
	cfg.newMutate = func(r *streamRig) func() (map[string]core.CSS, error) {
		// Only rows holding attr0 alone leave, so one op dirties exactly the
		// N x N system of acp0's configuration.
		leavers := newPool(r.g, 0, n, 4, 0, cfg.laneRows)
		last := -1
		return func() (map[string]core.CSS, error) {
			if r.prev == nil {
				return nil, nil // seed publish: intact table
			}
			row, err := leavers.take()
			if errors.Is(err, errPoolExhausted) {
				leavers.next = 0
				row, err = leavers.take()
			}
			if err != nil {
				return nil, err
			}
			canary := r.tbl.cells(row)
			if err := r.pub.RevokeSubscription(rowNym(row)); err != nil {
				return nil, err
			}
			// The previous leaver returns, so N stays put and every op solves
			// the same size of system.
			if last >= 0 {
				if err := r.rejoin(last); err != nil {
					return nil, err
				}
			}
			last = row
			return canary, nil
		}
	}
	return runStream(env, cfg, res)
}
