package pubsub

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/idtoken"
	"ppcd/internal/linalg"
	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/sym"
)

// Registrar is the publisher-side interface a subscriber registers against:
// the public setup, then every registration of one subscriber as one batch —
// one network round trip. *Publisher satisfies it directly for in-process
// use; the transport package provides a network client with the same shape.
type Registrar interface {
	Params() *pedersen.Params
	Ell() int
	Conditions() []policy.Condition
	RegisterBatch([]*RegistrationRequest) ([]BatchResult, error)
}

// Subscriber is a content consumer. It holds identity tokens with their
// private openings and the CSSs it managed to extract during registration;
// from those plus public broadcast headers it derives decryption keys
// locally — no further interaction with the publisher is ever needed.
type Subscriber struct {
	mu     sync.Mutex
	nym    string
	tokens map[string]tokenSecret // by tag
	css    map[string]core.CSS    // by condition ID

	// kev caches key extraction vectors by (CSS row, nonce seed) (§VIII-D,
	// receiver half): a session's headers name prefixes of the run their seed
	// expands to — they hold the seed, not the nonces, and core.KEV expands
	// it only when a vector is hashed, so a hit touches no nonce — and the
	// KEV over a prefix is a prefix of the KEV over the run,
	// so the shards of a shared-nonce session, steady-state republishes and
	// the clean shards of grouped headers hash each row once per run; every
	// later derivation is a single inner product. A vector lives as long as
	// its document's Decrypts keep using it: kevUsed collects what the running
	// Decrypt (number kevPass) used, kevLast holds that of each document's
	// previous one, and what a Decrypt no longer uses — the run of a session
	// since rekeyed — is dropped when it ends. kevMisses counts vectors
	// actually hashed (white-box test observability).
	kev       map[string]*kevEntry
	kevBytes  int
	kevMisses uint64
	kevPass   uint64
	kevUsed   []*kevEntry
	kevLast   map[string][]*kevEntry

	// grpHint remembers, per configuration, the shard index that last
	// decrypted successfully. Sticky grouping keeps the index stable across
	// rekeys, so the trial-derivation scan over a grouped header almost
	// always succeeds on the first try.
	grpHint map[policy.ConfigKey]int

	// stream holds the subscriber's current broadcast state per document,
	// maintained incrementally: a snapshot seeds it, deltas patch it.
	// Entries are replaced wholesale (Apply never mutates), so readers that
	// grabbed a state keep a consistent broadcast.
	stream map[string]*Broadcast
}

// kevEntry is one cached key extraction vector: the longest hashed so far
// over its (row, seed) key, stamped with the Decrypt that last used it.
type kevEntry struct {
	key  string
	vec  linalg.Vector
	pass uint64
}

// maxKEVCacheBytes bounds the memory the KEV cache's vectors hold; crossing
// it drops the whole cache (the vectors still in use do not fit by then: a
// non-member's scan over thousands of shards, or a great many documents).
const maxKEVCacheBytes = 1 << 20

type tokenSecret struct {
	token  *idtoken.Token
	secret *idtoken.Secret
}

// NewSubscriber creates a subscriber under the given pseudonym.
func NewSubscriber(nym string) (*Subscriber, error) {
	if nym == "" {
		return nil, errors.New("pubsub: empty pseudonym")
	}
	return &Subscriber{
		nym:     nym,
		tokens:  make(map[string]tokenSecret),
		css:     make(map[string]core.CSS),
		kev:     make(map[string]*kevEntry),
		kevLast: make(map[string][]*kevEntry),
		grpHint: make(map[policy.ConfigKey]int),
		stream:  make(map[string]*Broadcast),
	}, nil
}

// ApplySnapshot seeds (or resets) the subscriber's held broadcast state for
// the snapshot's document. The subscriber never mutates the broadcast, so
// callers may hand over shared instances.
func (s *Subscriber) ApplySnapshot(b *Broadcast) error {
	if b == nil {
		return errors.New("pubsub: nil broadcast")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stream[b.DocName] = b
	return nil
}

// ApplyDelta patches the subscriber's held broadcast state with a delta. The
// cached KEVs and group sub-header keys of clean shards stay valid across
// the patch (unchanged sub-headers are shared, and the KEV cache is keyed by
// their nonce seed). A mismatched base epoch returns ErrDeltaBaseMismatch —
// the caller fell behind the retention window and must refetch a snapshot.
func (s *Subscriber) ApplyDelta(d *BroadcastDelta) error {
	if d == nil {
		return errors.New("pubsub: nil delta")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	base, ok := s.stream[d.DocName]
	if !ok {
		return fmt.Errorf("%w: no state for %q", ErrDeltaBaseMismatch, d.DocName)
	}
	next, err := d.Apply(base)
	if err != nil {
		return err
	}
	s.stream[d.DocName] = next
	return nil
}

// Current returns the subscriber's held broadcast state for a document (nil
// if none). The returned broadcast is shared and must not be mutated.
func (s *Subscriber) Current(docName string) *Broadcast {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stream[docName]
}

// DecryptCurrent decrypts the held broadcast state for a document.
func (s *Subscriber) DecryptCurrent(docName string) (map[string][]byte, error) {
	b := s.Current(docName)
	if b == nil {
		return nil, fmt.Errorf("pubsub: no broadcast state for %q", docName)
	}
	return s.Decrypt(b)
}

// Nym returns the subscriber's pseudonym.
func (s *Subscriber) Nym() string { return s.nym }

// AddToken stores an identity token and its private opening. All tokens of
// one subscriber must carry the same pseudonym (paper §V-A).
func (s *Subscriber) AddToken(tok *idtoken.Token, sec *idtoken.Secret) error {
	if tok == nil || sec == nil {
		return errors.New("pubsub: nil token or secret")
	}
	if tok.Nym != s.nym {
		return fmt.Errorf("pubsub: token pseudonym %q does not match subscriber %q", tok.Nym, s.nym)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tokens[tok.Tag] = tokenSecret{token: tok, secret: sec}
	return nil
}

// CSSCount returns the number of conditional subscription secrets the
// subscriber successfully extracted.
func (s *Subscriber) CSSCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.css)
}

// HasCSS reports whether the subscriber extracted a CSS for the condition.
func (s *Subscriber) HasCSS(condID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.css[condID]
	return ok
}

// RegisterAll runs the registration phase against a publisher: for every
// held token and every publisher condition whose attribute matches the
// token's tag, it executes one OCBE exchange. To preserve privacy the
// subscriber registers for ALL matching conditions — including mutually
// exclusive ones — so the publisher cannot infer which condition it actually
// satisfies (§V-B, Example 3). Envelopes that fail to open are skipped
// silently. It returns the number of CSSs extracted. All matching
// conditions travel in a single RegisterBatch call.
func (s *Subscriber) RegisterAll(r Registrar) (int, error) {
	params := r.Params()
	ell := r.Ell()
	conds := r.Conditions()

	// Prepare the OCBE receiver messages for every matching condition.
	type prepared struct {
		cond policy.Condition
		recv *ocbe.Receiver
		wit  *ocbe.Witness
	}
	var items []prepared
	var reqs []*RegistrationRequest
	for _, cond := range conds {
		s.mu.Lock()
		ts, ok := s.tokens[cond.Attr]
		s.mu.Unlock()
		if !ok {
			continue // no identity token with this tag; cannot register
		}
		recv := ocbe.NewReceiver(params, ts.secret.Value, ts.secret.Blinding)
		pred := ocbe.Predicate{Op: cond.Op, X0: idtoken.EncodeValue(params.Order(), cond.Value)}
		wit, req, err := recv.Prepare(pred, ell)
		if err != nil {
			return 0, fmt.Errorf("pubsub: preparing for %q: %w", cond.ID(), err)
		}
		items = append(items, prepared{cond: cond, recv: recv, wit: wit})
		reqs = append(reqs, &RegistrationRequest{Token: ts.token, CondID: cond.ID(), OCBE: req})
	}
	if len(items) == 0 {
		return 0, nil
	}

	results, err := r.RegisterBatch(reqs)
	if err != nil {
		return 0, fmt.Errorf("pubsub: batch registration: %w", err)
	}
	if len(results) != len(items) {
		return 0, fmt.Errorf("pubsub: batch returned %d results for %d requests", len(results), len(items))
	}
	// An item-level failure is remembered but must not discard the other
	// envelopes — the publisher has already committed their CSS cells to
	// table T, so dropping them here would leave this subscriber counted in
	// ACVs it cannot use.
	var itemErr error
	extracted := 0
	for i, it := range items {
		res := results[i]
		if res.Err != "" {
			if itemErr == nil {
				itemErr = fmt.Errorf("pubsub: registering for %q: %s", it.cond.ID(), res.Err)
			}
			continue
		}
		if res.Envelope == nil {
			continue
		}
		payload, err := it.recv.Open(res.Envelope, it.wit)
		if err != nil {
			continue // condition not satisfied; indistinguishable to the publisher
		}
		css, err := core.CSSFromBytes(payload)
		if err != nil {
			// Record and keep going: aborting here would abandon envelopes
			// whose cells the publisher has already committed.
			if itemErr == nil {
				itemErr = fmt.Errorf("pubsub: bad CSS payload for %q: %w", it.cond.ID(), err)
			}
			continue
		}
		s.mu.Lock()
		s.css[it.cond.ID()] = css
		s.mu.Unlock()
		extracted++
	}
	return extracted, itemErr
}

// Decrypt recovers every subdocument of a broadcast the subscriber is
// authorized for. For each configuration it searches for a policy whose
// conditions it holds CSSs for, derives the key from the public header
// (paper "Decryption Key Derivation"), and decrypts the matching items.
// Grouped headers (§VIII-C) are located via the remembered group-index hint
// first, falling back to a trial-derivation scan verified by authenticated
// decryption. Subdocuments it cannot decrypt are simply absent from the
// result.
func (s *Subscriber) Decrypt(b *Broadcast) (map[string][]byte, error) {
	if b == nil {
		return nil, errors.New("pubsub: nil broadcast")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kevPass++
	defer s.retireKEVs(b.DocName)

	polByID := make(map[string]PolicyInfo, len(b.Policies))
	for _, pi := range b.Policies {
		polByID[pi.ID] = pi
	}
	// The shortest ciphertext of each configuration doubles as the verifier
	// for grouped trial derivation: all of a configuration's items share the
	// key, and a wrong-shard candidate then costs one small AEAD attempt
	// instead of a full-payload decryption.
	verifyCT := make(map[policy.ConfigKey][]byte, len(b.Configs))
	for _, item := range b.Items {
		if ct, ok := verifyCT[item.Config]; !ok || len(item.Ciphertext) < len(ct) {
			verifyCT[item.Config] = item.Ciphertext
		}
	}

	keys := make(map[policy.ConfigKey][sym.KeySize]byte)
	for _, ci := range b.Configs {
		for _, acpID := range ci.Key.IDs() {
			pi, ok := polByID[acpID]
			if !ok {
				continue
			}
			row, ok := s.rowFor(pi)
			if !ok {
				continue
			}
			var key [sym.KeySize]byte
			var derived bool
			var err error
			switch {
			case ci.Grouped != nil:
				key, derived, err = s.groupedKey(row, ci, verifyCT[ci.Key])
			case ci.Header != nil:
				key, derived, err = s.headerKey(row, ci.Header)
			default:
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("pubsub: deriving key for %q: %w", ci.Key, err)
			}
			if derived {
				keys[ci.Key] = key
				break
			}
		}
	}

	out := make(map[string][]byte)
	for _, item := range b.Items {
		key, ok := keys[item.Config]
		if !ok {
			continue
		}
		pt, err := sym.Decrypt(key, item.Ciphertext)
		if err != nil {
			// Wrong key (e.g. our CSSs are stale after a credential change):
			// treat as unauthorized rather than failing the whole broadcast.
			continue
		}
		out[item.Subdoc] = pt
	}
	return out, nil
}

// headerKey derives the configuration key from a classic single-ACV header
// through the KEV cache. Callers hold s.mu.
func (s *Subscriber) headerKey(row []core.CSS, hdr *core.Header) ([sym.KeySize]byte, bool, error) {
	kev, err := s.cachedKEV(row, hdr)
	if err != nil {
		return [sym.KeySize]byte{}, false, err
	}
	k, err := kev.Dot(hdr.X)
	if err != nil {
		return [sym.KeySize]byte{}, false, err
	}
	return core.ExpandKey(k), true, nil
}

// groupedKey locates the subscriber's shard inside a grouped header: the
// remembered hint index first, then a scan over the remaining shards. Each
// candidate key is verified by authenticated decryption of the
// configuration's verifier ciphertext — a wrong shard yields an
// unpredictable key, not an error. Callers hold s.mu.
func (s *Subscriber) groupedKey(row []core.CSS, ci ConfigInfo, verifyCT []byte) ([sym.KeySize]byte, bool, error) {
	g := ci.Grouped
	if len(g.Shards) == 0 || verifyCT == nil {
		return [sym.KeySize]byte{}, false, nil
	}
	order := make([]int, 0, len(g.Shards))
	if hint, ok := s.grpHint[ci.Key]; ok && hint >= 0 && hint < len(g.Shards) {
		order = append(order, hint)
	}
	for i := range g.Shards {
		if len(order) > 0 && i == order[0] {
			continue
		}
		order = append(order, i)
	}
	// One verifier-sized buffer serves the whole scan: a wrong shard fails
	// its tag check without a plaintext allocated for it.
	scratch := make([]byte, 0, len(verifyCT))
	for _, i := range order {
		kev, err := s.cachedKEV(row, g.Shards[i].Hdr)
		if err != nil {
			return [sym.KeySize]byte{}, false, err
		}
		shardKey, err := kev.Dot(g.Shards[i].Hdr.X)
		if err != nil {
			return [sym.KeySize]byte{}, false, err
		}
		key := core.ExpandKey(g.Unwrap(i, shardKey))
		if _, err := sym.Open(scratch, key, verifyCT); err == nil {
			s.grpHint[ci.Key] = i
			return key, true, nil
		}
	}
	return [sym.KeySize]byte{}, false, nil
}

// cachedKEV returns the key extraction vector of a CSS row against a
// header's nonces, hashing only on first sight of the row's run (§VIII-D:
// "the Sub can compute the hash values and cache the resultant vector for
// future use"). The cache is keyed by the row and the seed that names the
// run, and keeps the longest vector hashed over it, served cut to the
// header's length; a header without a seed is hashed each time. Callers hold
// s.mu.
func (s *Subscriber) cachedKEV(row []core.CSS, hdr *core.Header) (linalg.Vector, error) {
	if !hdr.Seeded() {
		s.kevMisses++
		return core.KEV(row, hdr)
	}
	key := make([]byte, 0, 64)
	key = binary.BigEndian.AppendUint32(key, uint32(len(row)))
	for _, css := range row {
		key = append(key, css.Bytes()...)
	}
	key = append(key, hdr.Seed...)
	e := s.kev[string(key)]
	if e == nil || len(e.vec) < len(hdr.X) {
		kev, err := core.KEV(row, hdr)
		if err != nil {
			return nil, err
		}
		if e != nil {
			s.kevBytes -= 8 * len(e.vec)
		}
		e = &kevEntry{key: string(key), vec: kev}
		if s.kevBytes += 8 * len(kev); s.kevBytes > maxKEVCacheBytes {
			s.kev = make(map[string]*kevEntry)
			s.kevBytes = 8 * len(kev)
			clear(s.kevLast)
			s.kevUsed = nil
		}
		s.kev[e.key] = e
		s.kevMisses++
	}
	if e.pass != s.kevPass {
		e.pass = s.kevPass
		s.kevUsed = append(s.kevUsed, e)
	}
	return e.vec[:len(hdr.X)], nil
}

// retireKEVs ends a Decrypt of doc: the vectors the document's previous
// Decrypt used and this one did not belong to sessions rekeyed since and are
// dropped, so the cache holds what is in use and not a history of runs.
// Callers hold s.mu.
func (s *Subscriber) retireKEVs(doc string) {
	last := s.kevLast[doc]
	for _, e := range last {
		if e.pass != s.kevPass && s.kev[e.key] == e {
			s.kevBytes -= 8 * len(e.vec)
			delete(s.kev, e.key)
		}
	}
	clear(last)
	s.kevLast[doc], s.kevUsed = s.kevUsed, last[:0]
}

// ExportCSS serializes the subscriber's extracted CSSs so a command-line
// client can keep them across runs. Like the publisher's table T, this is
// secret material.
func (s *Subscriber) ExportCSS() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := struct {
		Version int               `json:"version"`
		Nym     string            `json:"nym"`
		CSS     map[string]uint64 `json:"css"`
	}{Version: 1, Nym: s.nym, CSS: make(map[string]uint64, len(s.css))}
	for cond, v := range s.css {
		out.CSS[cond] = uint64(v)
	}
	return json.Marshal(out)
}

// ImportCSS restores CSSs saved by ExportCSS, merging over the current set.
func (s *Subscriber) ImportCSS(data []byte) error {
	var in struct {
		Version int               `json:"version"`
		Nym     string            `json:"nym"`
		CSS     map[string]uint64 `json:"css"`
	}
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("pubsub: parsing CSS state: %w", err)
	}
	if in.Version != 1 {
		return fmt.Errorf("pubsub: unsupported CSS state version %d", in.Version)
	}
	if in.Nym != s.nym {
		return fmt.Errorf("pubsub: CSS state belongs to %q, not %q", in.Nym, s.nym)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for cond, v := range in.CSS {
		if v == 0 || v >= ff64.Modulus {
			return fmt.Errorf("pubsub: invalid CSS for %q", cond)
		}
		s.css[cond] = core.CSS(v)
	}
	return nil
}

// rowFor returns the subscriber's ordered CSS list for one policy, or false
// if any condition's CSS is missing.
func (s *Subscriber) rowFor(pi PolicyInfo) ([]core.CSS, bool) {
	row := make([]core.CSS, 0, len(pi.CondIDs))
	for _, id := range pi.CondIDs {
		v, ok := s.css[id]
		if !ok {
			return nil, false
		}
		row = append(row, v)
	}
	return row, true
}
