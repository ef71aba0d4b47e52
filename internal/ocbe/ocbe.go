// Package ocbe implements the Oblivious Commitment-Based Envelope protocols
// of Li & Li (OACerts), as used by the paper for privacy-preserving CSS
// delivery (§IV-C, §V-B). A sender with an access-control predicate composes
// an envelope around a message; a receiver holding a Pedersen commitment
// c = g^x·h^r can open the envelope if and only if its committed value x
// satisfies the predicate. The sender learns nothing about x — not even
// whether the opening succeeded.
//
// Supported predicates: =, ≠, >, ≥, <, ≤. EQ-OCBE follows §IV-C directly;
// the inequality protocols are the bit-by-bit GE-OCBE construction (and its
// mirror LE-OCBE); > , < and ≠ are derived:
//
//	x > x0  ⇔  x ≥ x0+1
//	x < x0  ⇔  x ≤ x0−1
//	x ≠ x0  ⇔  x ≥ x0+1  ∨  x ≤ x0−1   (two envelopes, same payload)
package ocbe

import (
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"runtime"
	"sync"

	"ppcd/internal/core"
	"ppcd/internal/group"
	"ppcd/internal/pedersen"
	"ppcd/internal/sym"
)

// CompareOp enumerates the comparison predicates supported by OCBE.
type CompareOp int

// The six comparison predicates.
const (
	EQ CompareOp = iota // =
	NE                  // ≠
	GT                  // >
	GE                  // ≥
	LT                  // <
	LE                  // ≤
)

// String implements fmt.Stringer.
func (op CompareOp) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case GT:
		return ">"
	case GE:
		return ">="
	case LT:
		return "<"
	case LE:
		return "<="
	default:
		return fmt.Sprintf("CompareOp(%d)", int(op))
	}
}

// ParseOp parses the textual form of a comparison operator.
func ParseOp(s string) (CompareOp, error) {
	switch s {
	case "=", "==":
		return EQ, nil
	case "!=", "<>":
		return NE, nil
	case ">":
		return GT, nil
	case ">=":
		return GE, nil
	case "<":
		return LT, nil
	case "<=":
		return LE, nil
	}
	return 0, fmt.Errorf("ocbe: unknown comparison operator %q", s)
}

// Predicate is a comparison predicate "x op X0" over committed values.
type Predicate struct {
	Op CompareOp
	X0 *big.Int
}

// Eval reports whether the predicate holds for the plaintext value x (used
// in tests and by honest receivers deciding which branch to take).
func (p Predicate) Eval(x *big.Int) bool {
	c := x.Cmp(p.X0)
	switch p.Op {
	case EQ:
		return c == 0
	case NE:
		return c != 0
	case GT:
		return c > 0
	case GE:
		return c >= 0
	case LT:
		return c < 0
	case LE:
		return c <= 0
	}
	return false
}

// String implements fmt.Stringer.
func (p Predicate) String() string { return fmt.Sprintf("x %s %s", p.Op, p.X0) }

// padLen is the byte length of the per-bit XOR pads k_i and H(σ_i^j).
const padLen = sha256.Size

// Errors returned by the protocol functions.
var (
	// ErrOpenFailed reports that the envelope could not be opened — the
	// committed value does not satisfy the predicate (or the envelope is
	// corrupt). This is the *receiver's* local observation; the sender never
	// learns it.
	ErrOpenFailed = errors.New("ocbe: cannot open envelope (predicate not satisfied?)")
	// ErrBadCommitments reports that the receiver's auxiliary bit
	// commitments do not recombine to the registered commitment; the sender
	// aborts (paper §IV-C interaction step).
	ErrBadCommitments = errors.New("ocbe: bit commitments do not match registered commitment")
	// ErrEllRange reports an out-of-range bit-length parameter.
	ErrEllRange = errors.New("ocbe: ell must satisfy 1 <= ell and 2^ell < p/2")
)

// Receiver holds the committed attribute of the subscriber: the value x, the
// blinding r and the commitment c = g^x·h^r (from the identity token).
type Receiver struct {
	Params *pedersen.Params
	X, R   *big.Int
	C      group.Element
}

// NewReceiver builds the receiver state, recomputing the commitment from
// (x, r).
func NewReceiver(params *pedersen.Params, x, r *big.Int) *Receiver {
	return &Receiver{Params: params, X: x, R: r, C: params.Commit(x, r)}
}

// BitWitness is the receiver's private state for one bitwise (GE/LE-style)
// sub-protocol: the decomposition digits d_i and blindings r_i.
type BitWitness struct {
	ds []*big.Int
	rs []*big.Int
}

// BitCommitments is the public part the receiver sends to the sender: the
// marshaled commitments c_i = g^{d_i}·h^{r_i}.
type BitCommitments struct {
	Cs [][]byte
}

// Request is the receiver's registration message for one predicate: the
// marshaled attribute commitment and, for predicates with bitwise
// sub-protocols, one BitCommitments per sub-predicate.
type Request struct {
	Commitment []byte
	Bits       []*BitCommitments
}

// Witness is the receiver's private opening state matching a Request.
type Witness struct {
	wits []*BitWitness
}

// Envelope is the sender's response. For EQ it carries (η, C); for bitwise
// predicates additionally the pad pairs C_i^0, C_i^1; for ≠ it contains two
// sub-envelopes with the same payload.
type Envelope struct {
	Op   CompareOp
	X0   *big.Int
	Ell  int
	Eta  []byte    // marshaled η = h^y
	C    []byte    // payload ciphertext
	Bits []BitPair // bitwise protocols only
	Sub  []*Envelope
}

// BitPair is the pad pair (C_i^0, C_i^1) for one bit position.
type BitPair struct {
	C0, C1 []byte
}

// subOp is a normalized primitive sub-predicate: equality, or a
// greater-equal / less-equal test with an adjusted threshold.
type subOp struct {
	kind int // 0 = EQ, 1 = GE-raw, 2 = LE-raw
	x0   *big.Int
}

// normalize rewrites a predicate into primitive sub-predicates.
func normalize(p Predicate) []subOp {
	one := big.NewInt(1)
	switch p.Op {
	case EQ:
		return []subOp{{kind: 0, x0: p.X0}}
	case GE:
		return []subOp{{kind: 1, x0: p.X0}}
	case GT:
		return []subOp{{kind: 1, x0: new(big.Int).Add(p.X0, one)}}
	case LE:
		return []subOp{{kind: 2, x0: p.X0}}
	case LT:
		return []subOp{{kind: 2, x0: new(big.Int).Sub(p.X0, one)}}
	case NE:
		return []subOp{
			{kind: 1, x0: new(big.Int).Add(p.X0, one)},
			{kind: 2, x0: new(big.Int).Sub(p.X0, one)},
		}
	}
	return nil
}

func checkEll(params *pedersen.Params, ell int) error {
	if ell < 1 {
		return ErrEllRange
	}
	// 2^ell < p/2  ⇔  2^(ell+1) < p.
	bound := new(big.Int).Lsh(big.NewInt(1), uint(ell)+1)
	if bound.Cmp(params.Order()) >= 0 {
		return ErrEllRange
	}
	return nil
}

// Prepare builds the receiver's registration message and private witness for
// a predicate. ell is the attribute bit-length bound for bitwise
// sub-protocols (ignored for EQ).
func (r *Receiver) Prepare(pred Predicate, ell int) (*Witness, *Request, error) {
	subs := normalize(pred)
	req := &Request{Commitment: r.Params.G.Marshal(r.C)}
	wit := &Witness{}
	for _, s := range subs {
		if s.kind == 0 {
			// Equality needs no bit commitments; an empty (not nil)
			// placeholder keeps Bits one entry per sub-predicate, and it is
			// what the registration codec decodes an empty entry to, so a
			// request crosses the wire unchanged.
			req.Bits = append(req.Bits, &BitCommitments{})
			wit.wits = append(wit.wits, nil)
			continue
		}
		if err := checkEll(r.Params, ell); err != nil {
			return nil, nil, err
		}
		w, bc, err := r.bitCommit(s, ell)
		if err != nil {
			return nil, nil, err
		}
		req.Bits = append(req.Bits, bc)
		wit.wits = append(wit.wits, w)
	}
	return wit, req, nil
}

// bitCommit runs the receiver's commitment phase of GE-OCBE (or its LE
// mirror) for one sub-predicate: decompose d into ℓ digits and commit to
// each so that the commitments recombine to the shifted attribute
// commitment.
func (r *Receiver) bitCommit(s subOp, ell int) (*BitWitness, *BitCommitments, error) {
	f := r.Params.Order()
	g := r.Params.G

	// GE: d = x − x0 and the blindings must recombine to r.
	// LE: d = x0 − x and the blindings must recombine to −r.
	var d, rTarget *big.Int
	var satisfied bool
	if s.kind == 1 {
		d = new(big.Int).Sub(r.X, s.x0)
		rTarget = new(big.Int).Set(r.R)
		satisfied = r.X.Cmp(s.x0) >= 0
	} else {
		d = new(big.Int).Sub(s.x0, r.X)
		rTarget = new(big.Int).Neg(r.R)
		satisfied = r.X.Cmp(s.x0) <= 0
	}
	d.Mod(d, f)

	ds := make([]*big.Int, ell)
	if satisfied {
		// True branch: d < 2^ell, use its real binary digits.
		for i := 0; i < ell; i++ {
			ds[i] = big.NewInt(int64(d.Bit(i)))
		}
	} else {
		// False branch: random high digits; d_0 absorbs the difference and
		// is a full field element, so no pad index will match it.
		acc := big.NewInt(0)
		for i := ell - 1; i >= 1; i-- {
			b, err := rand.Int(rand.Reader, big.NewInt(2))
			if err != nil {
				return nil, nil, fmt.Errorf("ocbe: sampling digit: %w", err)
			}
			ds[i] = b
			acc.Add(acc, new(big.Int).Lsh(b, uint(i)))
		}
		d0 := new(big.Int).Sub(d, acc)
		d0.Mod(d0, f)
		ds[0] = d0
	}

	// Blindings: r_1..r_{ell-1} random, r_0 = rTarget − Σ 2^i r_i.
	rs := make([]*big.Int, ell)
	sum := big.NewInt(0)
	for i := 1; i < ell; i++ {
		ri, err := rand.Int(rand.Reader, f)
		if err != nil {
			return nil, nil, fmt.Errorf("ocbe: sampling blinding: %w", err)
		}
		rs[i] = ri
		sum.Add(sum, new(big.Int).Lsh(ri, uint(i)))
	}
	r0 := new(big.Int).Sub(rTarget, sum)
	r0.Mod(r0, f)
	rs[0] = r0

	bc := &BitCommitments{Cs: make([][]byte, ell)}
	parallelFor(ell, func(i int) error {
		bc.Cs[i] = g.Marshal(r.Params.Commit(ds[i], rs[i]))
		return nil
	})
	return &BitWitness{ds: ds, rs: rs}, bc, nil
}

// parallelFor runs f(0..n-1) across the shared bounded scheduler of
// internal/core and returns the first error. The bitwise OCBE steps are
// embarrassingly parallel across bit positions (Fig. 2 of the paper), and
// RegisterBatch stacks per-envelope parallelism on top of its own pool —
// routing both through core.Parallel bounds the total goroutine count
// instead of spawning a fresh fan-out per call.
func parallelFor(n int, f func(i int) error) error {
	var (
		mu  sync.Mutex
		got error
	)
	core.Parallel(runtime.GOMAXPROCS(0), n, func(i int) {
		if err := f(i); err != nil {
			mu.Lock()
			if got == nil {
				got = err
			}
			mu.Unlock()
		}
	})
	return got
}

// laneSigmas computes bases[i]^{ks[i]} (bases[i]^{ks[0]} when len(ks)==1)
// through the group's lane-parallel kernel when it has one; groups without
// one (schnorr) serve each lane through the scalar Exp in parallel.
func laneSigmas(g group.Group, bases []group.Element, ks []*big.Int) []group.Element {
	if lg, ok := g.(group.LaneExpGroup); ok {
		return lg.LaneExp(bases, ks)
	}
	out := make([]group.Element, len(bases))
	parallelFor(len(bases), func(i int) error {
		k := ks[0]
		if len(ks) > 1 {
			k = ks[i]
		}
		out[i] = g.Exp(bases[i], k)
		return nil
	})
	return out
}

// Compose builds the sender's envelope around msg for the given predicate
// and the receiver's request. The sender verifies that any auxiliary bit
// commitments recombine to the registered commitment and otherwise learns
// nothing about the committed value.
func Compose(params *pedersen.Params, pred Predicate, ell int, req *Request, msg []byte) (*Envelope, error) {
	g := params.G
	c, err := g.Unmarshal(req.Commitment)
	if err != nil {
		return nil, fmt.Errorf("ocbe: bad commitment: %w", err)
	}
	subs := normalize(pred)
	if len(req.Bits) != len(subs) {
		return nil, fmt.Errorf("ocbe: request has %d sub-parts, predicate needs %d", len(req.Bits), len(subs))
	}
	if len(subs) == 1 {
		return composeSub(params, c, subs[0], ell, req.Bits[0], msg, pred)
	}
	// Disjunction (≠): one envelope per branch, same payload.
	env := &Envelope{Op: pred.Op, X0: pred.X0, Ell: ell}
	for i, s := range subs {
		sub, err := composeSub(params, c, s, ell, req.Bits[i], msg, pred)
		if err != nil {
			return nil, err
		}
		env.Sub = append(env.Sub, sub)
	}
	return env, nil
}

func composeSub(params *pedersen.Params, c group.Element, s subOp, ell int, bits *BitCommitments, msg []byte, pred Predicate) (*Envelope, error) {
	if s.kind == 0 {
		return composeEQ(params, c, s.x0, msg, pred)
	}
	if err := checkEll(params, ell); err != nil {
		return nil, err
	}
	if bits == nil || len(bits.Cs) != ell {
		return nil, fmt.Errorf("ocbe: predicate needs %d bit commitments", ell)
	}
	return composeBitwise(params, c, s, ell, bits, msg, pred)
}

// eqPlan is the deferred-exponentiation form of EQ-OCBE: everything except
// σ = (c·g^{−x0})^y is done at plan time, so a batch can pool the single σ
// exponentiation with every other envelope's lanes.
type eqPlan struct {
	env  *Envelope
	base group.Element // c·g^{−x0}
	y    *big.Int
	msg  []byte
}

func planEQ(params *pedersen.Params, c group.Element, x0 *big.Int, msg []byte, pred Predicate) (*eqPlan, error) {
	g := params.G
	y, err := randNonZero(g.Order())
	if err != nil {
		return nil, err
	}
	eta := params.ExpH(y)
	env := &Envelope{Op: pred.Op, X0: pred.X0, Eta: g.Marshal(eta)}
	return &eqPlan{env: env, base: params.Shift(c, x0), y: y, msg: msg}, nil
}

// finish derives the payload key from σ and seals the message.
func (p *eqPlan) finish(g group.Group, sigma group.Element) error {
	key := sym.DeriveKey([]byte("ocbe/eq"), g.Marshal(sigma))
	ct, err := sym.Encrypt(key, p.msg)
	if err != nil {
		return err
	}
	p.env.C = ct
	return nil
}

// composeEQ implements the sender side of EQ-OCBE: σ = (c·g^{−x0})^y,
// η = h^y, C = E_{H(σ)}[msg].
func composeEQ(params *pedersen.Params, c group.Element, x0 *big.Int, msg []byte, pred Predicate) (*Envelope, error) {
	p, err := planEQ(params, c, x0, msg, pred)
	if err != nil {
		return nil, err
	}
	if err := p.finish(params.G, params.G.Exp(p.base, p.y)); err != nil {
		return nil, err
	}
	return p.env, nil
}

// bitwisePlan is the deferred-exponentiation form of one GE/LE-OCBE
// envelope: the recombination check, pads, payload ciphertext and η are
// all computed at plan time; what remains are the 2ℓ σ exponentiations
// [c_0^y, (c_0·g⁻¹)^y, c_1^y, …], all sharing the scalar y — exactly the
// shape the lane kernel batches.
type bitwisePlan struct {
	env   *Envelope
	pads  []byte          // ℓ·padLen bytes; pad i is pads[i·padLen:(i+1)·padLen]
	bases []group.Element // 2ℓ lanes: bases[2i] = c_i, bases[2i+1] = c_i·g⁻¹
	y     *big.Int
}

func planBitwise(params *pedersen.Params, c group.Element, s subOp, ell int, bits *BitCommitments, msg []byte, pred Predicate) (*bitwisePlan, error) {
	g := params.G
	cis := make([]group.Element, ell)
	for i, enc := range bits.Cs {
		ci, err := g.Unmarshal(enc)
		if err != nil {
			return nil, fmt.Errorf("ocbe: bad bit commitment %d: %w", i, err)
		}
		cis[i] = ci
	}

	// Verify recombination: GE: c·g^{−x0} = Π c_i^{2^i};
	// LE: g^{x0}·c^{−1} = Π c_i^{2^i}. One Horner pass
	// (…(c_{ℓ−1}² · c_{ℓ−2})² …)² · c_0 costs ℓ−1 doublings + ℓ−1
	// additions, against the O(ℓ²) doublings of ℓ separate
	// exponentiations by 2^i.
	var target group.Element
	if s.kind == 1 {
		target = params.Shift(c, s.x0)
	} else {
		target = g.Op(params.ExpG(s.x0), g.Inverse(c))
	}
	recomb := cis[ell-1]
	for i := ell - 2; i >= 0; i-- {
		recomb = g.Op(g.Op(recomb, recomb), cis[i])
	}
	if !g.Equal(recomb, target) {
		return nil, ErrBadCommitments
	}

	// Random pads k_i — one read, sliced — and the session key
	// k = H(k_0‖…‖k_{ℓ−1}); the flat buffer is that concatenation.
	pads := make([]byte, ell*padLen)
	if _, err := rand.Read(pads); err != nil {
		return nil, fmt.Errorf("ocbe: pad: %w", err)
	}
	key := sym.DeriveKey([]byte("ocbe/bitwise"), pads)
	ct, err := sym.Encrypt(key, msg)
	if err != nil {
		return nil, err
	}

	y, err := randNonZero(g.Order())
	if err != nil {
		return nil, err
	}
	eta := params.ExpH(y)
	gBase, _ := params.Bases()
	gInv := g.Inverse(gBase)

	bases := make([]group.Element, 2*ell)
	for i, ci := range cis {
		bases[2*i] = ci
		bases[2*i+1] = g.Op(ci, gInv)
	}
	env := &Envelope{Op: pred.Op, X0: pred.X0, Ell: ell, Eta: g.Marshal(eta), C: ct, Bits: make([]BitPair, ell)}
	return &bitwisePlan{env: env, pads: pads, bases: bases, y: y}, nil
}

// finish fills the pad pairs from the lane results: sigmas[2i] = σ_i^0,
// sigmas[2i+1] = σ_i^1.
func (p *bitwisePlan) finish(g group.Group, sigmas []group.Element) {
	for i := range p.env.Bits {
		pad := p.pads[i*padLen : (i+1)*padLen]
		p.env.Bits[i] = BitPair{
			C0: xorPad(hashSigma(g, sigmas[2*i]), pad),
			C1: xorPad(hashSigma(g, sigmas[2*i+1]), pad),
		}
	}
}

// composeBitwise implements the sender side of GE-OCBE (kind 1) and LE-OCBE
// (kind 2): the plan stage up front, then all 2ℓ σ exponentiations as one
// shared-scalar lane batch.
func composeBitwise(params *pedersen.Params, c group.Element, s subOp, ell int, bits *BitCommitments, msg []byte, pred Predicate) (*Envelope, error) {
	p, err := planBitwise(params, c, s, ell, bits, msg, pred)
	if err != nil {
		return nil, err
	}
	p.finish(params.G, laneSigmas(params.G, p.bases, []*big.Int{p.y}))
	return p.env, nil
}

// ComposeItem is one envelope request inside ComposeBatch.
type ComposeItem struct {
	Pred Predicate
	Ell  int
	Req  *Request
	Msg  []byte
}

// subPlan is one sub-envelope's share of a ComposeBatch lane pool: its
// bases (all driven by the one scalar y), the slice of the pooled results
// assigned back to it, and the completion consuming them.
type subPlan struct {
	bases  []group.Element
	y      *big.Int
	sigmas []group.Element
	fin    func(sigmas []group.Element) error
}

// ComposeBatch builds one envelope per item, pooling every σ
// exponentiation — 2ℓ per bitwise sub-envelope, one per EQ envelope —
// across all items into a single lane-batched multi-exponentiation, so a
// registration batch of many conditions amortizes field inversions across
// hundreds of lanes. Failures are per item: errs[i] == nil guarantees
// envs[i] is a complete envelope, and one bad request never blocks the
// rest of the batch.
func ComposeBatch(params *pedersen.Params, items []ComposeItem) (envs []*Envelope, errs []error) {
	g := params.G
	envs = make([]*Envelope, len(items))
	errs = make([]error, len(items))
	type itemState struct {
		env  *Envelope
		subs []*subPlan
	}
	states := make([]*itemState, len(items))

	// Stage 1 — plan: unmarshal, recombination checks, pads, payload
	// encryption and η for every item, parallel across items.
	plan := func(idx int) error {
		it := items[idx]
		c, err := g.Unmarshal(it.Req.Commitment)
		if err != nil {
			return fmt.Errorf("ocbe: bad commitment: %w", err)
		}
		subs := normalize(it.Pred)
		if len(it.Req.Bits) != len(subs) {
			return fmt.Errorf("ocbe: request has %d sub-parts, predicate needs %d", len(it.Req.Bits), len(subs))
		}
		st := &itemState{}
		var subEnvs []*Envelope
		for i, s := range subs {
			if s.kind == 0 {
				ep, err := planEQ(params, c, s.x0, it.Msg, it.Pred)
				if err != nil {
					return err
				}
				st.subs = append(st.subs, &subPlan{
					bases: []group.Element{ep.base},
					y:     ep.y,
					fin:   func(sig []group.Element) error { return ep.finish(g, sig[0]) },
				})
				subEnvs = append(subEnvs, ep.env)
				continue
			}
			if err := checkEll(params, it.Ell); err != nil {
				return err
			}
			bits := it.Req.Bits[i]
			if bits == nil || len(bits.Cs) != it.Ell {
				return fmt.Errorf("ocbe: predicate needs %d bit commitments", it.Ell)
			}
			bp, err := planBitwise(params, c, s, it.Ell, bits, it.Msg, it.Pred)
			if err != nil {
				return err
			}
			st.subs = append(st.subs, &subPlan{
				bases: bp.bases,
				y:     bp.y,
				fin:   func(sig []group.Element) error { bp.finish(g, sig); return nil },
			})
			subEnvs = append(subEnvs, bp.env)
		}
		if len(subEnvs) == 1 {
			st.env = subEnvs[0]
		} else {
			st.env = &Envelope{Op: it.Pred.Op, X0: it.Pred.X0, Ell: it.Ell, Sub: subEnvs}
		}
		states[idx] = st
		return nil
	}
	parallelFor(len(items), func(idx int) error {
		if err := plan(idx); err != nil {
			errs[idx] = err
		}
		return nil
	})

	// Stage 2 — one pooled lane exponentiation across every surviving
	// item. Lanes of one sub-envelope share a *big.Int, so the lane
	// kernel decomposes each distinct y once.
	var bases []group.Element
	var ks []*big.Int
	for _, st := range states {
		if st == nil {
			continue
		}
		for _, sp := range st.subs {
			for _, b := range sp.bases {
				bases = append(bases, b)
				ks = append(ks, sp.y)
			}
		}
	}
	if len(bases) > 0 {
		sigmas := laneSigmas(g, bases, ks)
		off := 0
		for _, st := range states {
			if st == nil {
				continue
			}
			for _, sp := range st.subs {
				sp.sigmas = sigmas[off : off+len(sp.bases)]
				off += len(sp.bases)
			}
		}
	}

	// Stage 3 — finish: hash σ's into pad pairs, seal EQ payloads.
	parallelFor(len(items), func(idx int) error {
		st := states[idx]
		if st == nil {
			return nil
		}
		for _, sp := range st.subs {
			if err := sp.fin(sp.sigmas); err != nil {
				errs[idx] = err
				return nil
			}
		}
		envs[idx] = st.env
		return nil
	})
	return envs, errs
}

func hashSigma(g group.Group, e group.Element) []byte {
	h := sha256.New()
	h.Write([]byte("ocbe/sigma-pad"))
	h.Write(g.Marshal(e))
	return h.Sum(nil)
}

func xorPad(a, b []byte) []byte {
	out := make([]byte, padLen)
	for i := range out {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// Open attempts to open the envelope with the receiver's witness from
// Prepare. It returns the payload on success and ErrOpenFailed when the
// committed value does not satisfy the predicate.
func (r *Receiver) Open(env *Envelope, wit *Witness) ([]byte, error) {
	subs := normalize(Predicate{Op: env.Op, X0: env.X0})
	envs := env.Sub
	if len(envs) == 0 {
		envs = []*Envelope{env}
	}
	if len(envs) != len(subs) || wit == nil || len(wit.wits) != len(subs) {
		return nil, fmt.Errorf("ocbe: envelope/witness shape mismatch")
	}
	var lastErr error = ErrOpenFailed
	for i, sub := range envs {
		var msg []byte
		var err error
		if subs[i].kind == 0 {
			msg, err = r.openEQ(sub)
		} else {
			msg, err = r.openBitwise(sub, wit.wits[i])
		}
		if err == nil {
			return msg, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// openEQ implements the receiver side of EQ-OCBE: σ' = η^r.
func (r *Receiver) openEQ(env *Envelope) ([]byte, error) {
	g := r.Params.G
	eta, err := g.Unmarshal(env.Eta)
	if err != nil {
		return nil, fmt.Errorf("ocbe: bad eta: %w", err)
	}
	sigma := g.Exp(eta, r.R)
	key := sym.DeriveKey([]byte("ocbe/eq"), g.Marshal(sigma))
	msg, err := sym.Decrypt(key, env.C)
	if err != nil {
		return nil, ErrOpenFailed
	}
	return msg, nil
}

// openBitwise implements the receiver side of GE/LE-OCBE: recover each pad
// as k'_i = H(η^{r_i}) ⊕ C_i^{d_i} and rebuild the session key.
func (r *Receiver) openBitwise(env *Envelope, wit *BitWitness) ([]byte, error) {
	if wit == nil || len(wit.ds) != len(env.Bits) {
		return nil, fmt.Errorf("ocbe: witness does not match envelope")
	}
	g := r.Params.G
	eta, err := g.Unmarshal(env.Eta)
	if err != nil {
		return nil, fmt.Errorf("ocbe: bad eta: %w", err)
	}
	// Select each bit's pad first: a non-bit digit means the receiver is on
	// the false branch and cannot open (paper GE-OCBE Open can only index
	// j∈{0,1}), so no exponentiations are spent on a doomed envelope.
	pads := make([][]byte, len(env.Bits))
	for i := range env.Bits {
		switch {
		case wit.ds[i].Sign() == 0:
			pads[i] = env.Bits[i].C0
		case wit.ds[i].Cmp(big.NewInt(1)) == 0:
			pads[i] = env.Bits[i].C1
		default:
			return nil, ErrOpenFailed
		}
	}
	// σ'_i = η^{r_i}: one lane batch over the shared base η with per-lane
	// scalars, so the lane kernel builds a single odd-multiples table.
	bases := make([]group.Element, len(env.Bits))
	for i := range bases {
		bases[i] = eta
	}
	sigmas := laneSigmas(g, bases, wit.rs)
	keyMaterial := make([]byte, 0, len(env.Bits)*padLen)
	for i := range sigmas {
		keyMaterial = append(keyMaterial, xorPad(hashSigma(g, sigmas[i]), pads[i])...)
	}
	key := sym.DeriveKey([]byte("ocbe/bitwise"), keyMaterial)
	msg, err := sym.Decrypt(key, env.C)
	if err != nil {
		return nil, ErrOpenFailed
	}
	return msg, nil
}

func randNonZero(order *big.Int) (*big.Int, error) {
	for {
		y, err := rand.Int(rand.Reader, order)
		if err != nil {
			return nil, fmt.Errorf("ocbe: sampling exponent: %w", err)
		}
		if y.Sign() != 0 {
			return y, nil
		}
	}
}
