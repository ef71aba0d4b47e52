package main

import (
	"encoding/json"
	"fmt"

	"ppcd"
	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/pubsub"
)

// rng is splitmix64. Every benchmark input — CSS values, payload bytes, the
// order in which rows leave and return — is drawn from one rng seeded by
// -seed, so the same seed replays the same inputs. (The program under test
// draws its own nonces and keys from crypto/rand; those are not inputs.)
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	r := &rng{s: seed}
	for _, c := range []byte(stream) {
		r.s = r.s*0x100000001b3 ^ uint64(c)
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) css() core.CSS { return core.CSS(r.next()%(ff64.Modulus-1) + 1) }

func (r *rng) bytes(n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; i += 8 {
		v := r.next()
		for j := 0; j < 8 && i+j < n; j++ {
			b[i+j] = byte(v >> (8 * j))
		}
	}
	return b
}

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// table is a synthetic table T: row i is pseudonym "pn-<i>" and holds a CSS
// for condition c iff holds(i, c). The CSS values are kept so the bench can
// hand any row to a Subscriber (its own lanes, and the canary leavers).
type table struct {
	rows  int
	conds []string // condition IDs, one per policy (single-condition policies)
	holds func(row, cond int) bool
	css   []core.CSS // rows × len(conds); 0 = not held
}

func rowNym(i int) string { return fmt.Sprintf("pn-%d", i) }

func newTable(g *rng, rows int, conds []string, holds func(row, cond int) bool) *table {
	t := &table{rows: rows, conds: conds, holds: holds, css: make([]core.CSS, rows*len(conds))}
	for i := 0; i < rows; i++ {
		for c := range conds {
			if holds(i, c) {
				t.css[i*len(conds)+c] = g.css()
			}
		}
	}
	return t
}

func (t *table) cells(row int) map[string]core.CSS {
	m := make(map[string]core.CSS, len(t.conds))
	for c, id := range t.conds {
		if v := t.css[row*len(t.conds)+c]; v != 0 {
			m[id] = v
		}
	}
	return m
}

// load bulk-loads the table through the replication-event path (no OCBE).
func (t *table) load(pub *ppcd.Publisher) error {
	for i := 0; i < t.rows; i++ {
		if err := registerRow(pub, rowNym(i), t.cells(i)); err != nil {
			return err
		}
	}
	return nil
}

func registerRow(pub *ppcd.Publisher, nym string, cells map[string]core.CSS) error {
	return pub.ApplyStateEvent(pubsub.StateEvent{Kind: pubsub.StateEventRegister, Nym: nym, Cells: cells})
}

// subscriberFor builds a Subscriber holding exactly the given cells, through
// the public ImportCSS path.
func subscriberFor(nym string, cells map[string]core.CSS) (*ppcd.Subscriber, error) {
	sub, err := ppcd.NewSubscriber(nym)
	if err != nil {
		return nil, err
	}
	raw := make(map[string]uint64, len(cells))
	for id, v := range cells {
		raw[id] = uint64(v)
	}
	data, err := json.Marshal(map[string]any{"version": 1, "nym": nym, "css": raw})
	if err != nil {
		return nil, err
	}
	if err := sub.ImportCSS(data); err != nil {
		return nil, err
	}
	return sub, nil
}

// payloads draws one fresh plaintext per subdocument; every op publishes new
// content, so a verified plaintext is tied to its epoch.
func payloads(g *rng, names []string, size int) (*ppcd.Document, map[string][]byte, error) {
	plain := make(map[string][]byte, len(names))
	subdocs := make([]ppcd.Subdocument, len(names))
	for i, n := range names {
		plain[n] = g.bytes(size)
		subdocs[i] = ppcd.Subdocument{Name: n, Content: plain[n]}
	}
	doc, err := ppcd.NewDocument(docName, subdocs...)
	return doc, plain, err
}

const docName = "doc"
