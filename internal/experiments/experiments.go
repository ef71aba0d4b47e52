// Package experiments contains the workload generators and measurement
// harnesses that regenerate every table and figure in the paper's evaluation
// (§VII), plus the ablation comparisons described in DESIGN.md. Both the
// ppcd-bench command and the repository-level Go benchmarks call into this
// package so that the numbers in EXPERIMENTS.md and `go test -bench` agree.
package experiments

import (
	"fmt"
	"math/big"
	"time"

	"ppcd/internal/baseline/direct"
	"ppcd/internal/baseline/lkh"
	"ppcd/internal/baseline/marker"
	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
)

// GKMWorkload builds the subscriber×policy CSS rows for the paper's group
// key management experiments: `policies` policies with `condsPerPolicy`
// conditions each, `subs` current subscribers assigned round-robin to
// policies, every subscriber satisfying its policy (§VII-B: "Each Sub
// satisfies the policy in the policy configuration under consideration").
func GKMWorkload(subs, policies, condsPerPolicy int) ([][]core.CSS, error) {
	if subs < 1 || policies < 1 || condsPerPolicy < 1 {
		return nil, fmt.Errorf("experiments: invalid workload (%d subs, %d policies, %d conds)", subs, policies, condsPerPolicy)
	}
	// Per-policy condition secrets are drawn once; each subscriber gets its
	// own CSS per condition of its policy.
	rows := make([][]core.CSS, subs)
	for i := range rows {
		row := make([]core.CSS, condsPerPolicy)
		for j := range row {
			c, err := core.NewCSS()
			if err != nil {
				return nil, err
			}
			row[j] = c
		}
		rows[i] = row
	}
	return rows, nil
}

// GKMResult is one measured point of Figs. 3–6.
type GKMResult struct {
	N           int
	Subs        int
	CondsPer    int
	ACVGen      time.Duration // Fig. 3 / Fig. 6 left series
	KeyDerive   time.Duration // Fig. 4 / Fig. 6 right series
	HeaderSize  int           // bytes, Fig. 5 as built: X and the nonces
	ShippedSize int           // bytes, Fig. 5 as shipped in a stream frame: X and the nonces' seed
}

// MeasureGKM builds one ACV for the workload and measures generation time,
// key-derivation time (averaged over deriveIters derivations) and header
// size.
func MeasureGKM(subs, n, policies, condsPerPolicy, deriveIters int) (*GKMResult, error) {
	rows, err := GKMWorkload(subs, policies, condsPerPolicy)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	hdr, key, err := core.Build(rows, n)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(start)

	if deriveIters < 1 {
		deriveIters = 1
	}
	start = time.Now()
	for i := 0; i < deriveIters; i++ {
		k, err := core.DeriveKey(rows[i%len(rows)], hdr)
		if err != nil {
			return nil, err
		}
		if k != key {
			return nil, fmt.Errorf("experiments: soundness violation: derived %v, want %v", k, key)
		}
	}
	deriveTime := time.Since(start) / time.Duration(deriveIters)

	return &GKMResult{
		N:           n,
		Subs:        subs,
		CondsPer:    condsPerPolicy,
		ACVGen:      genTime,
		KeyDerive:   deriveTime,
		HeaderSize:  hdr.Size(),
		ShippedSize: hdr.WireSize(),
	}, nil
}

// Fig3to5Point runs one (N, fill) cell of Figures 3, 4 and 5 with the
// paper's fixed workload: 25 policies, 2 conditions per policy.
func Fig3to5Point(n int, fillPercent int) (*GKMResult, error) {
	subs := n * fillPercent / 100
	if subs < 1 {
		subs = 1
	}
	return MeasureGKM(subs, n, 25, 2, 16)
}

// Fig6Point runs one conditions-per-policy cell of Figure 6 with the paper's
// fixed parameters: 25 policies, N = 500, 100% fill.
func Fig6Point(condsPerPolicy int) (*GKMResult, error) {
	return MeasureGKM(500, 500, 25, condsPerPolicy, 16)
}

// OCBEResult is one measured point of Fig. 2 / Table II: the three protocol
// steps' average latencies.
type OCBEResult struct {
	Ell          int
	CreateCommit time.Duration // "Create Extra Commitments (Sub)"
	Compose      time.Duration // "Compose Envelope (Pub)"
	Open         time.Duration // "Open Envelope (Sub)"
}

// MeasureOCBE runs `rounds` full protocol rounds for the predicate
// x ≥ x0 (GE) or x = x0 (EQ, when ge is false) over the given Pedersen
// parameters, with satisfying attribute values (as in §VII-A), and averages
// each step.
func MeasureOCBE(params *pedersen.Params, ge bool, ell, rounds int) (*OCBEResult, error) {
	if rounds < 1 {
		rounds = 1
	}
	res := &OCBEResult{Ell: ell}
	msg := make([]byte, 8) // CSS-sized payload
	for i := 0; i < rounds; i++ {
		// Fresh commitment each round: value satisfies the predicate.
		x := big.NewInt(int64(10 + i))
		x0 := big.NewInt(7)
		var pred ocbe.Predicate
		if ge {
			pred = ocbe.Predicate{Op: ocbe.GE, X0: x0}
		} else {
			pred = ocbe.Predicate{Op: ocbe.EQ, X0: x}
		}
		_, r, err := params.CommitRandom(x)
		if err != nil {
			return nil, err
		}
		recv := ocbe.NewReceiver(params, x, r)

		start := time.Now()
		wit, req, err := recv.Prepare(pred, ell)
		if err != nil {
			return nil, err
		}
		res.CreateCommit += time.Since(start)

		start = time.Now()
		env, err := ocbe.Compose(params, pred, ell, req, msg)
		if err != nil {
			return nil, err
		}
		res.Compose += time.Since(start)

		start = time.Now()
		if _, err := recv.Open(env, wit); err != nil {
			return nil, err
		}
		res.Open += time.Since(start)
	}
	res.CreateCommit /= time.Duration(rounds)
	res.Compose /= time.Duration(rounds)
	res.Open /= time.Duration(rounds)
	return res, nil
}

// AblationResult compares the four GKM designs on one workload.
type AblationResult struct {
	Scheme        string
	RekeyTime     time.Duration // publisher-side cost of one full rekey
	DeriveTime    time.Duration // subscriber-side key recovery
	BroadcastSize int           // bytes pushed to ALL subscribers
	UnicastMsgs   int           // point-to-point messages required
}

// Ablation measures a rekey (triggered by one revocation) for n subscribers
// under the paper's ACV scheme, the §VIII-D marker scheme, direct delivery
// and an LKH tree.
func Ablation(n int) ([]AblationResult, error) {
	rows, err := GKMWorkload(n, 25, 2)
	if err != nil {
		return nil, err
	}
	var out []AblationResult

	// ACV (the paper's scheme): one broadcast, zero unicast.
	start := time.Now()
	hdr, _, err := core.Build(rows, n)
	if err != nil {
		return nil, err
	}
	gen := time.Since(start)
	start = time.Now()
	if _, err := core.DeriveKey(rows[0], hdr); err != nil {
		return nil, err
	}
	out = append(out, AblationResult{
		Scheme: "acv", RekeyTime: gen, DeriveTime: time.Since(start),
		BroadcastSize: hdr.Size(), UnicastMsgs: 0,
	})

	// Marker scheme: one broadcast of N slots.
	start = time.Now()
	mh, _, err := marker.Build(rows)
	if err != nil {
		return nil, err
	}
	gen = time.Since(start)
	start = time.Now()
	if _, err := marker.DeriveKey(rows[n-1], mh); err != nil {
		return nil, err
	}
	out = append(out, AblationResult{
		Scheme: "marker", RekeyTime: gen, DeriveTime: time.Since(start),
		BroadcastSize: mh.Size(), UnicastMsgs: 0,
	})

	// Direct delivery: one unicast per subscriber.
	d := direct.New()
	nyms := make([]string, n)
	for i := range nyms {
		nyms[i] = fmt.Sprintf("pn-%d", i)
		if err := d.RegisterUser(nyms[i]); err != nil {
			return nil, err
		}
	}
	start = time.Now()
	msgs, _, err := d.Rekey(nyms)
	if err != nil {
		return nil, err
	}
	gen = time.Since(start)
	ch, _ := d.ChannelKey(nyms[0])
	start = time.Now()
	if _, err := direct.DeriveKey(nyms[0], ch, msgs); err != nil {
		return nil, err
	}
	out = append(out, AblationResult{
		Scheme: "direct", RekeyTime: gen, DeriveTime: time.Since(start),
		BroadcastSize: 0, UnicastMsgs: len(msgs),
	})

	// LKH: O(log n) multicast messages per membership change.
	tree, err := lkh.New(n)
	if err != nil {
		return nil, err
	}
	for _, nym := range nyms {
		if _, err := tree.Join(nym); err != nil {
			return nil, err
		}
	}
	stayPath, err := tree.PathKeys(nyms[1])
	if err != nil {
		return nil, err
	}
	start = time.Now()
	lm, err := tree.Leave(nyms[0])
	if err != nil {
		return nil, err
	}
	gen = time.Since(start)
	start = time.Now()
	if _, err := lkh.ApplyMessages(stayPath, lm); err != nil {
		return nil, err
	}
	size := 0
	for _, m := range lm {
		size += len(m.Ciphertext) + 8
	}
	out = append(out, AblationResult{
		Scheme: "lkh", RekeyTime: gen, DeriveTime: time.Since(start),
		BroadcastSize: size, UnicastMsgs: 0,
	})
	return out, nil
}

// KernelFieldComparison measures the ACV kernel solve with the word-sized
// field against a naive big.Int implementation of the same elimination, to
// justify DESIGN.md substitution #2.
func KernelFieldComparison(n int) (ff64Time, bigTime time.Duration, err error) {
	rows, err := GKMWorkload(n, 25, 2)
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if _, _, err := core.Build(rows, n); err != nil {
		return 0, 0, err
	}
	ff64Time = time.Since(start)

	// Big-int elimination on an equivalent random matrix.
	p := new(big.Int).SetUint64(ff64.Modulus)
	m := make([][]*big.Int, n)
	for i := range m {
		m[i] = make([]*big.Int, n+1)
		for j := range m[i] {
			e, err := ff64.Rand()
			if err != nil {
				return 0, 0, err
			}
			m[i][j] = new(big.Int).SetUint64(uint64(e))
		}
	}
	start = time.Now()
	bigGaussJordan(m, p)
	bigTime = time.Since(start)
	return ff64Time, bigTime, nil
}

// bigGaussJordan row-reduces m over F_p using big.Int arithmetic.
func bigGaussJordan(m [][]*big.Int, p *big.Int) {
	rows := len(m)
	if rows == 0 {
		return
	}
	cols := len(m[0])
	r := 0
	tmp := new(big.Int)
	for c := 0; c < cols && r < rows; c++ {
		piv := -1
		for i := r; i < rows; i++ {
			if m[i][c].Sign() != 0 {
				piv = i
				break
			}
		}
		if piv < 0 {
			continue
		}
		m[piv], m[r] = m[r], m[piv]
		inv := new(big.Int).ModInverse(m[r][c], p)
		for k := c; k < cols; k++ {
			m[r][k].Mod(tmp.Mul(m[r][k], inv), p)
		}
		for i := 0; i < rows; i++ {
			if i == r || m[i][c].Sign() == 0 {
				continue
			}
			f := new(big.Int).Set(m[i][c])
			for k := c; k < cols; k++ {
				prod := new(big.Int).Mul(f, m[r][k])
				m[i][k].Mod(m[i][k].Sub(m[i][k], prod), p)
			}
		}
		r++
	}
}
