// Package pedersen implements the Pedersen commitment scheme (paper §IV-B)
// over the genus-2 Jacobian of package g2. A commitment to x with blinding r
// is c = g^x · h^r; the scheme is unconditionally hiding and computationally
// binding as long as log_g(h) is unknown, which the setup guarantees by
// deriving h with the curve's hash-to-element map.
package pedersen

import (
	"crypto/rand"
	"errors"
	"fmt"
	"math/big"

	"ppcd/internal/g2"
)

// Params holds the public commitment parameters (G, g, h) published by the
// trusted third party (the IdMgr in the paper's deployment), with one
// precomputed exponentiation table per base. The tables are read-only after
// construction, so a single Params value is safely shared across the batch
// registration worker pool.
type Params struct {
	G          *g2.Curve
	g, h       *g2.Divisor
	gTab, hTab *g2.FixedBase
}

// Setup derives commitment parameters over G. The second base h is obtained
// from the curve's hash-to-element map on the given domain-separation seed,
// so that no party knows log_g(h).
func Setup(g *g2.Curve, seed []byte) (*Params, error) {
	if g == nil {
		return nil, errors.New("pedersen: nil group")
	}
	h, err := g.HashToElement(append([]byte("ppcd/pedersen/h/"), seed...))
	if err != nil {
		return nil, fmt.Errorf("pedersen: deriving h: %w", err)
	}
	gen := g.Generator()
	if g.IsIdentity(h) || g.Equal(h, gen) {
		return nil, errors.New("pedersen: degenerate second base")
	}
	return &Params{G: g, g: gen, h: h, gTab: g.NewFixedBase(gen), hTab: g.NewFixedBase(h)}, nil
}

// ExpG returns g^k through the precomputed table.
func (p *Params) ExpG(k *big.Int) *g2.Divisor { return p.gTab.Exp(k) }

// ExpH returns h^k through the precomputed table.
func (p *Params) ExpH(k *big.Int) *g2.Divisor { return p.hTab.Exp(k) }

// Bases returns the two commitment bases (g, h).
func (p *Params) Bases() (*g2.Divisor, *g2.Divisor) { return p.g, p.h }

// Order returns the order of the commitment group; committed values and
// blinding factors live in F_order.
func (p *Params) Order() *big.Int { return p.G.Order() }

// Commit returns c = g^x · h^r. Values are reduced modulo the group order.
func (p *Params) Commit(x, r *big.Int) *g2.Divisor {
	return p.G.Op(p.ExpG(x), p.ExpH(r))
}

// CommitRandom commits to x under a fresh uniformly random blinding factor
// and returns both the commitment and the blinding.
func (p *Params) CommitRandom(x *big.Int) (*g2.Divisor, *big.Int, error) {
	r, err := rand.Int(rand.Reader, p.G.Order())
	if err != nil {
		return nil, nil, fmt.Errorf("pedersen: sampling blinding: %w", err)
	}
	return p.Commit(x, r), r, nil
}

// Verify reports whether c opens to (x, r).
func (p *Params) Verify(c *g2.Divisor, x, r *big.Int) bool {
	return p.G.Equal(c, p.Commit(x, r))
}

// Shift returns c · g^(−x0), the commitment re-based so that it commits to
// x − x0 under the same blinding. The OCBE protocols use this to turn an
// equality predicate "x = x0" into "committed value is 0".
func (p *Params) Shift(c *g2.Divisor, x0 *big.Int) *g2.Divisor {
	return p.G.Op(c, p.ExpG(new(big.Int).Neg(x0)))
}
