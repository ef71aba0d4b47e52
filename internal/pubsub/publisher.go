// Package pubsub implements the paper's three-phase system end to end: the
// Publisher (Pub) with its conditional-subscription-secret table T,
// privacy-preserving registration via OCBE, selective broadcast with
// ACV-based group key management, and the Subscriber (Sub) that registers
// identity tokens and derives decryption keys from broadcast headers alone.
//
// The publisher is a layered engine:
//
//   - registry (registry.go) owns table T with snapshot semantics and
//     per-policy membership versions; registrations and revocations never
//     serialize against broadcast crypto.
//   - keymgr (keymgr.go) maps registry snapshots to per-configuration
//     headers and keys through the incremental core.Engine: only
//     configurations whose subscriber set changed since the last publish are
//     re-solved, the rest reuse cached headers.
//   - broadcast (broadcast.go) encrypts documents under the configuration
//     keys and assembles the public broadcast package.
//
// Registration is batched end to end: Subscriber.RegisterAll sends all
// matching conditions in one RegisterBatch call, the only way a
// registration reaches the publisher.
package pubsub

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"ppcd/internal/core"
	"ppcd/internal/idtoken"
	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/sig"
)

// Options tunes a publisher.
type Options struct {
	// Ell is the bit-length bound ℓ for inequality OCBE; attribute values
	// compared with <,≤,>,≥ must be below 2^Ell. Default 16.
	Ell int
	// MinN forces a lower bound on the maximum-user parameter N of every
	// header (headroom for joins without resizing). Default: exactly the
	// number of qualified rows. Ignored in grouped mode (GroupSize > 0),
	// where shard capacity is exactly the shard's row count.
	MinN int
	// GroupSize enables subscriber grouping (§VIII-C): each policy's
	// qualified rows are partitioned into sticky groups of at most GroupSize
	// members, each solved as its own small ACV. A full rebuild then costs
	// ~N³/g² instead of N³ and a single join/leave re-solves one shard
	// instead of whole configurations, at the price of g sub-headers per
	// configuration. 0 (the default) keeps the classic one-ACV mode.
	GroupSize int
	// Workers bounds the parallel pools for ACV solving and batch envelope
	// composition. Default GOMAXPROCS.
	Workers int
}

// Publisher is the content distributor. It never sees attribute values: it
// verifies IdMgr signatures on identity tokens and runs OCBE as the sender.
type Publisher struct {
	params   *pedersen.Params
	idmgrKey sig.PublicKey
	acps     []*policy.ACP
	conds    []policy.Condition
	condByID map[string]policy.Condition
	// predByID holds each condition's OCBE predicate with the threshold
	// already encoded into the commitment field, computed once at
	// construction instead of per registration request.
	predByID map[string]ocbe.Predicate
	opts     Options

	// reg is the paper's table T behind snapshot semantics; keys caches
	// per-configuration rekey material.
	reg  *registry
	keys *keyManager

	// pubMu guards the epoch counter and the per-document diff bases
	// (broadcast.go): Publish stamps epochs and derives revisions under it,
	// independently of the registry locks.
	pubMu   sync.Mutex
	epoch   uint64
	gen     uint64
	lastPub map[string]*lastBroadcast

	// journal, when set, commits every durable mutation and every publish
	// (state.go) before the triggering operation returns — the write-ahead
	// discipline the internal/store WAL implements. mutMu orders each
	// mutation's place in the journal with its in-memory apply: without it,
	// two racing mutations of the same pseudonym could journal in one order
	// and apply in the other, and a later crash replay (which runs in
	// journal order) would resurrect state the live publisher never held.
	// Envelope crypto stays outside mutMu; only Begin serializes. journal is
	// written under mutMu and then pubMu (SetJournal); a mutation reads it
	// under mutMu, a publish under pubMu. Lock order: mutMu → grpMu → mu →
	// pubMu.
	mutMu   sync.Mutex
	journal Journal
}

// NewPublisher builds a publisher enforcing the given access control
// policies. idmgrKey is the IdMgr's signature verification key.
func NewPublisher(params *pedersen.Params, idmgrKey sig.PublicKey, acps []*policy.ACP, opts Options) (*Publisher, error) {
	if params == nil {
		return nil, errors.New("pubsub: nil commitment parameters")
	}
	if len(acps) == 0 {
		return nil, errors.New("pubsub: publisher needs at least one policy")
	}
	if opts.Ell == 0 {
		opts.Ell = 16
	}
	if opts.Ell < 1 {
		return nil, errors.New("pubsub: Ell must be positive")
	}
	if opts.GroupSize < 0 {
		return nil, errors.New("pubsub: GroupSize must be non-negative")
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	for _, a := range acps {
		// The durable-state format caps identifier lengths; reject policies
		// that could never round-trip through a state file up front.
		if len(a.ID) == 0 || len(a.ID) > maxStateCondLen {
			return nil, fmt.Errorf("pubsub: policy ID of %d bytes (want 1..%d)", len(a.ID), maxStateCondLen)
		}
		for _, c := range a.Conds {
			if err := c.Validate(); err != nil {
				return nil, err
			}
			if len(c.ID()) > maxStateCondLen {
				return nil, fmt.Errorf("pubsub: condition ID of %d bytes exceeds the %d limit", len(c.ID()), maxStateCondLen)
			}
		}
	}
	conds := policy.Conditions(acps)
	byID := make(map[string]policy.Condition, len(conds))
	predByID := make(map[string]ocbe.Predicate, len(conds))
	for _, c := range conds {
		byID[c.ID()] = c
		predByID[c.ID()] = ocbe.Predicate{Op: c.Op, X0: idtoken.EncodeValue(params.Order(), c.Value)}
	}
	// The generation stamp distinguishes this publisher incarnation's epoch
	// numbering from any predecessor's: a restarted publisher reuses small
	// epoch numbers, and without the stamp a subscriber holding pre-restart
	// state could accept a delta against the wrong base (broadcast.go).
	var genBytes [8]byte
	if _, err := rand.Read(genBytes[:]); err != nil {
		return nil, fmt.Errorf("pubsub: generation stamp: %w", err)
	}
	gen := binary.BigEndian.Uint64(genBytes[:]) | 1 // nonzero
	return &Publisher{
		params:   params,
		idmgrKey: idmgrKey,
		acps:     acps,
		conds:    conds,
		condByID: byID,
		predByID: predByID,
		opts:     opts,
		reg:      newRegistry(acps, opts.GroupSize),
		keys:     newKeyManager(opts.Workers, opts.MinN),
		gen:      gen,
		lastPub:  make(map[string]*lastBroadcast),
	}, nil
}

// Params returns the commitment parameters (shared with the IdMgr).
func (p *Publisher) Params() *pedersen.Params { return p.params }

// Ell returns the inequality bit-length bound ℓ.
func (p *Publisher) Ell() int { return p.opts.Ell }

// Conditions returns all attribute conditions appearing in the publisher's
// policies; subscribers register their tokens against every condition whose
// attribute matches a token tag.
func (p *Publisher) Conditions() []policy.Condition {
	return append([]policy.Condition(nil), p.conds...)
}

// Policies returns the publisher's access control policy set.
func (p *Publisher) Policies() []*policy.ACP {
	return append([]*policy.ACP(nil), p.acps...)
}

// Stats returns the rekey work counters: how many configurations were
// re-solved vs. served from the incremental cache (in grouped mode Solves
// counts per-shard solves), plus §VIII-B dominance skips. A steady-state
// publish (no table change since the previous one) adds zero solves.
func (p *Publisher) Stats() Stats {
	st := p.keys.stats()
	st.FullRegroups = p.reg.fullRegroups.Load()
	return st
}

// RegistrationRequest is one condition registration from a subscriber: the
// identity token, the target condition and the OCBE receiver message.
type RegistrationRequest struct {
	Token  *idtoken.Token
	CondID string
	OCBE   *ocbe.Request
}

// Per-item refusals of RegisterBatch; BatchResult.Err carries their text.
var (
	ErrUnknownCondition   = errors.New("pubsub: condition not in any policy")
	ErrTagMismatch        = errors.New("pubsub: token tag does not match condition attribute")
	ErrCommitmentMismatch = errors.New("pubsub: OCBE commitment does not match the token's certified commitment")
)

// validateRegistration checks everything about one request that needs no
// signature or group arithmetic: shape, condition, pseudonym cap, tag and
// certified commitment.
func (p *Publisher) validateRegistration(req *RegistrationRequest) error {
	if req == nil || req.Token == nil || req.OCBE == nil {
		return errors.New("pubsub: incomplete registration request")
	}
	cond, ok := p.condByID[req.CondID]
	if !ok {
		return ErrUnknownCondition
	}
	// Enforce the durable-state pseudonym cap at admission: a longer nym
	// would register fine but poison every later state import/WAL replay
	// (a one-request persistent denial of recovery).
	if err := validateStateNym(req.Token.Nym); err != nil {
		return err
	}
	if req.Token.Tag != cond.Attr {
		return ErrTagMismatch
	}
	// The OCBE exchange must run against the IdMgr-certified commitment —
	// otherwise a subscriber could attach a valid token while running OCBE
	// on a self-chosen commitment to a satisfying value, bypassing the
	// access control entirely.
	if !bytes.Equal(req.OCBE.Commitment, req.Token.Commitment) {
		return ErrCommitmentMismatch
	}
	return nil
}

// BatchResult is the outcome of one item of a RegisterBatch call: either an
// envelope or a per-item error message (the batch as a whole still
// succeeds).
type BatchResult struct {
	CondID   string
	Envelope *ocbe.Envelope
	Err      string
}

// MaxRegistrationBatch caps the items accepted in one RegisterBatch call;
// the cap bounds memory on the network-exposed path (a subscriber
// registering every condition of even a very large policy set stays far
// below it).
const MaxRegistrationBatch = 4096

// RegisterBatch handles the registration requests of a subscriber in one
// call — one round trip on the wire. For each request that passes, it draws
// a fresh CSS, records it in table T under (nym, condition), and returns the
// OCBE envelope containing the CSS. The subscriber can extract the CSS iff
// its committed attribute value satisfies the condition; the publisher never
// learns whether it could (§V-B).
//
// Each distinct token is verified once, envelope composition runs through
// ocbe.ComposeBatch in bounded chunks — pooling every envelope's σ
// exponentiations into the group's lane-batched multi-exponentiation kernel
// — and all resulting CSS cells are committed to table T as one journal
// commit, all or nothing. Item-level failures are reported in the
// corresponding BatchResult; the call errs only on an empty or oversized
// batch.
func (p *Publisher) RegisterBatch(reqs []*RegistrationRequest) ([]BatchResult, error) {
	if len(reqs) == 0 {
		return nil, errors.New("pubsub: empty registration batch")
	}
	if len(reqs) > MaxRegistrationBatch {
		return nil, fmt.Errorf("pubsub: registration batch of %d exceeds limit %d", len(reqs), MaxRegistrationBatch)
	}

	results := make([]BatchResult, len(reqs))
	// Validate every item up front — the cheap checks first, then the token
	// signature, each distinct token once (the paper's Sub registers one
	// token against many conditions) — and collect the survivors into one
	// compose batch, so ocbe.ComposeBatch can pool every envelope's σ
	// exponentiations into shared lanes instead of composing one envelope
	// per worker.
	tokErrs := make(map[string]error)
	items := make([]ocbe.ComposeItem, 0, len(reqs))
	itemIdx := make([]int, 0, len(reqs)) // items[j] composes reqs[itemIdx[j]]
	cssFor := make([]core.CSS, len(reqs))
	for i, req := range reqs {
		if req != nil {
			results[i].CondID = req.CondID
		}
		if err := p.validateRegistration(req); err != nil {
			results[i].Err = err.Error()
			continue
		}
		tok := req.Token
		// Length-prefixed fields: a plain-separator join would let crafted
		// byte fields containing the separator collide with a different
		// token and skip its signature check.
		key := fmt.Sprintf("%d:%s|%d:%s|%d:%x|%d:%x",
			len(tok.Nym), tok.Nym, len(tok.Tag), tok.Tag,
			len(tok.Commitment), tok.Commitment, len(tok.Sig), tok.Sig)
		err, ok := tokErrs[key]
		if !ok {
			if err = idtoken.Verify(p.params, p.idmgrKey, tok); err != nil {
				err = fmt.Errorf("pubsub: token rejected: %w", err)
			}
			tokErrs[key] = err
		}
		if err != nil {
			results[i].Err = err.Error()
			continue
		}
		css, err := core.NewCSS()
		if err != nil {
			results[i].Err = err.Error()
			continue
		}
		cssFor[i] = css
		items = append(items, ocbe.ComposeItem{
			Pred: p.predByID[req.CondID],
			Ell:  p.opts.Ell,
			Req:  req.OCBE,
			Msg:  css.Bytes(),
		})
		itemIdx = append(itemIdx, i)
	}
	// Compose in bounded chunks: the batch is network-supplied, so plan
	// memory must stay proportional to the chunk, not the batch length — a
	// chunk still pools hundreds of lanes per batch inversion.
	const composeChunk = 256
	for lo := 0; lo < len(items); lo += composeChunk {
		hi := min(lo+composeChunk, len(items))
		envs, errs := ocbe.ComposeBatch(p.params, items[lo:hi])
		for j := lo; j < hi; j++ {
			i := itemIdx[j]
			if err := errs[j-lo]; err != nil {
				results[i].Err = fmt.Sprintf("pubsub: composing envelope: %v", err)
				continue
			}
			results[i].Envelope = envs[j-lo]
		}
	}

	// Commit every successful cell, grouped by pseudonym, as one
	// write-ahead unit: the batch enters the journal in pseudonym order and
	// commits or fails whole. A journal failure voids every envelope — their
	// CSSs never entered T, so they can never decrypt anything and the
	// subscriber must re-register.
	cellsByNym := make(map[string]map[string]core.CSS)
	for i := range results {
		if results[i].Envelope == nil {
			continue
		}
		nym := reqs[i].Token.Nym
		cells, ok := cellsByNym[nym]
		if !ok {
			cells = make(map[string]core.CSS)
			cellsByNym[nym] = cells
		}
		cells[reqs[i].CondID] = cssFor[i]
	}
	if len(cellsByNym) == 0 {
		return results, nil
	}
	nyms := make([]string, 0, len(cellsByNym))
	for nym := range cellsByNym {
		nyms = append(nyms, nym)
	}
	sort.Strings(nyms)
	evs := make([]StateEvent, len(nyms))
	for i, nym := range nyms {
		evs[i] = StateEvent{Kind: StateEventRegister, Nym: nym, Cells: cellsByNym[nym]}
	}
	err := p.commitMutation(nil, func() {
		for _, nym := range nyms {
			p.reg.setCells(nym, cellsByNym[nym])
		}
	}, evs...)
	if err != nil {
		for i := range results {
			if results[i].Envelope != nil {
				results[i].Envelope = nil
				results[i].Err = err.Error()
			}
		}
	}
	return results, nil
}

// RevokeSubscription removes a subscriber entirely (paper "Subscription
// Revocation"): its row disappears from T and the next Publish rekeys every
// affected configuration.
func (p *Publisher) RevokeSubscription(nym string) error {
	// commitMutation makes existence check + journal + apply one ordered
	// step: journal order equals apply order, so crash replay can never
	// resurrect a row a racing registration committed on the other side of
	// this revocation.
	var applyErr error
	err := p.commitMutation(
		func() error {
			// Journal only revocations that can take effect (an unknown
			// pseudonym is the caller's error, not a state change).
			if !p.reg.has(nym, "") {
				return fmt.Errorf("pubsub: unknown subscriber %q", nym)
			}
			return nil
		},
		func() { applyErr = p.reg.revokeSubscription(nym) },
		StateEvent{Kind: StateEventRevokeSubscription, Nym: nym})
	if err != nil {
		return err
	}
	return applyErr
}

// RevokeCredential removes a single CSS cell (paper "Credential
// Revocation"), enabling fine-tuned user management. Removing a pseudonym's
// last cell removes the row itself.
func (p *Publisher) RevokeCredential(nym, condID string) error {
	var applyErr error
	err := p.commitMutation(
		func() error {
			if !p.reg.has(nym, condID) {
				if !p.reg.has(nym, "") {
					return fmt.Errorf("pubsub: unknown subscriber %q", nym)
				}
				return fmt.Errorf("pubsub: subscriber %q has no CSS for %q", nym, condID)
			}
			return nil
		},
		func() { applyErr = p.reg.revokeCredential(nym, condID) },
		StateEvent{Kind: StateEventRevokeCredential, Nym: nym, Cond: condID})
	if err != nil {
		return err
	}
	return applyErr
}

// SubscriberCount returns the number of registered pseudonyms.
func (p *Publisher) SubscriberCount() int {
	return p.reg.count()
}

// TableMemory returns the number of registered pseudonyms and the estimated
// resident bytes of table T's columnar backing — the bytes-per-subscriber
// metric reported by the scale benchmark.
func (p *Publisher) TableMemory() (subscribers int, bytes int64) {
	return p.reg.tableMemory()
}

// GroupMemory returns the number of grouped policy rows — §VIII-C group
// members summed over the policies — and the estimated resident bytes of the
// grouping layer that indexes them, beside TableMemory's table T.
func (p *Publisher) GroupMemory() (policyRows int, bytes int64) {
	return p.reg.groupMemory()
}
