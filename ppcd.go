// Package ppcd is a Go implementation of the privacy-preserving
// policy-based content dissemination system of Shang, Nabeel, Paci and
// Bertino (ICDE 2010): selective document broadcast under attribute-based
// access control policies, where subscribers never reveal their identity
// attribute values — not even to the publisher — and rekeying is a pure
// broadcast operation driven by access control vectors (ACVs).
//
// This package is the public facade over the implementation packages:
//
//   - identity tokens and the Identity Manager (Pedersen commitments,
//     signatures): NewIdentityManager, Token
//   - privacy-preserving registration (OCBE protocols): Subscriber.RegisterAll
//   - policy model: NewPolicy, ParseCondition
//   - selective broadcast + ACV group key management: Publisher.Publish,
//     Subscriber.Decrypt
//   - wire transport: NewServer, Dial
//
// A minimal flow (see examples/quickstart for a runnable version):
//
//	params, _ := ppcd.Setup(ppcd.PaperCurve(), []byte("demo"))
//	idmgr, _ := ppcd.NewIdentityManager(params)
//
//	acp, _ := ppcd.NewPolicy("adults", "age >= 18", "news", "body")
//	pub, _ := ppcd.NewPublisher(params, idmgr.PublicKey(), []*ppcd.Policy{acp}, ppcd.Options{})
//
//	alice, _ := ppcd.NewSubscriber("pn-alice")
//	tok, sec, _ := idmgr.IssueString("pn-alice", "age", "30")
//	alice.AddToken(tok, sec)
//	alice.RegisterAll(pub)                        // oblivious: pub learns nothing
//
//	doc, _ := ppcd.NewDocument("news", ppcd.Subdocument{Name: "body", Content: []byte("…")})
//	b, _ := pub.Publish(doc)
//	plain, _ := alice.Decrypt(b)                  // derives keys from public header
package ppcd

import (
	"ppcd/internal/document"
	"ppcd/internal/g2"
	"ppcd/internal/idtoken"
	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
	"ppcd/internal/relay"
	"ppcd/internal/store"
	"ppcd/internal/transport"
	"ppcd/internal/wire"
)

// Group is the commitment group: the Jacobian of a genus-2 hyperelliptic
// curve, the prime-order group of the paper's Pedersen commitments and OCBE
// protocols (§VII).
type Group = *g2.Curve

// PaperCurve returns the genus-2 Jacobian group over the exact curve used in
// the paper's experiments (implemented from scratch with Cantor's
// algorithm).
func PaperCurve() Group { return g2.MustPaperCurve() }

// SchnorrGroup returns PaperCurve.
//
// Deprecated: the Jacobian is the only commitment group. This name remains
// for the end-to-end benchmark module under bench/, which still calls it and
// changes only with the benchmark itself; use PaperCurve.
func SchnorrGroup() Group { return PaperCurve() }

// CommitmentParams are the system-wide Pedersen parameters ⟨G, g, h⟩
// published by the Identity Manager.
type CommitmentParams = pedersen.Params

// Setup derives Pedersen commitment parameters over a group with a
// nothing-up-my-sleeve second base.
func Setup(g Group, seed []byte) (*CommitmentParams, error) { return pedersen.Setup(g, seed) }

// IdentityManager issues identity tokens binding committed attribute values
// to pseudonyms.
type IdentityManager = idtoken.Manager

// Token is a signed identity token (nym, id-tag, commitment, σ).
type Token = idtoken.Token

// TokenSecret is the private opening (x, r) of a token's commitment.
type TokenSecret = idtoken.Secret

// NewIdentityManager creates an IdMgr with a fresh signing key.
func NewIdentityManager(params *CommitmentParams) (*IdentityManager, error) {
	return idtoken.NewManager(params)
}

// Condition is an attribute condition "name op value".
type Condition = policy.Condition

// ParseCondition parses "level >= 59"-style condition strings.
func ParseCondition(s string) (Condition, error) { return policy.ParseCondition(s) }

// Policy is an access control policy: a conjunction of conditions over a set
// of subdocuments.
type Policy = policy.ACP

// NewPolicy parses a policy from a conjunction expression such as
// "role = nur && level >= 59".
func NewPolicy(id, condExpr, doc string, objects ...string) (*Policy, error) {
	return policy.New(id, condExpr, doc, objects...)
}

// Document is an ordered collection of named subdocuments.
type Document = document.Document

// Subdocument is a named portion of a document.
type Subdocument = document.Subdocument

// NewDocument builds a document from subdocuments.
func NewDocument(name string, subdocs ...Subdocument) (*Document, error) {
	return document.New(name, subdocs...)
}

// SplitXML segments an XML document into subdocuments by element name.
func SplitXML(name string, data []byte, marks []string) (*Document, error) {
	return document.SplitXML(name, data, marks)
}

// Publisher distributes selectively encrypted documents.
type Publisher = pubsub.Publisher

// Options tunes a publisher (inequality bit bound ℓ, header capacity,
// subscriber grouping via GroupSize — §VIII-C).
type Options = pubsub.Options

// Broadcast is a selectively encrypted document package; everything in it is
// public.
type Broadcast = pubsub.Broadcast

// NewPublisher builds a publisher enforcing the given policies.
func NewPublisher(params *CommitmentParams, idmgrKey []byte, acps []*Policy, opts Options) (*Publisher, error) {
	return pubsub.NewPublisher(params, idmgrKey, acps, opts)
}

// Subscriber registers identity tokens and decrypts authorized subdocuments.
type Subscriber = pubsub.Subscriber

// Registrar is the publisher-side interface a subscriber registers against,
// one batch per subscriber (satisfied by *Publisher and by the transport
// client).
type Registrar = pubsub.Registrar

// RekeyStats are the publisher's rekey work counters (see Publisher.Stats):
// configurations re-solved vs. served from the incremental ACV cache (shard
// solves in grouped mode), plus §VIII-B dominance skips.
type RekeyStats = pubsub.Stats

// NewSubscriber creates a subscriber under a pseudonym.
func NewSubscriber(nym string) (*Subscriber, error) { return pubsub.NewSubscriber(nym) }

// BroadcastDelta is the incremental dissemination unit: everything that
// changed between two epochs of one document's broadcasts (re-solved shard
// sub-headers, per-shard wraps, re-encrypted items, removals).
type BroadcastDelta = pubsub.BroadcastDelta

// Diff computes the delta turning the base broadcast into cur (two epochs
// of the same document). Subscriber.ApplySnapshot / ApplyDelta consume it.
func Diff(base, cur *Broadcast) (*BroadcastDelta, error) { return pubsub.Diff(base, cur) }

// Server exposes a publisher over TCP.
type Server = transport.Server

// Client is a network connection to a publisher; it implements Registrar.
type Client = transport.Client

// Stream is a subscriber-side push stream: the server sends epoch-stamped
// snapshot, delta and heartbeat frames as broadcasts are published (see
// Client.Subscribe).
type Stream = transport.Stream

// StreamFrame is one decoded frame of a broadcast stream.
type StreamFrame = wire.Frame

// Stream frame kinds.
const (
	FrameSnapshot  = wire.FrameSnapshot
	FrameDelta     = wire.FrameDelta
	FrameHeartbeat = wire.FrameHeartbeat
)

// NewServer wraps a publisher for network serving.
func NewServer(pub *Publisher) (*Server, error) { return transport.NewServer(pub) }

// Dial connects a subscriber-side client to a publisher server.
func Dial(addr string, params *CommitmentParams) (*Client, error) {
	return transport.Dial(addr, params)
}

// Relay is a stateless dissemination edge: it subscribes upstream (to the
// origin or to another relay), retains the raw wire frames in its own
// bounded epoch ring, and re-serves them to downstream subscribers while
// proxying registrations to the origin. Relays hold no key material and
// chain into trees, making the origin's egress O(direct children) instead
// of O(total subscribers).
type Relay = relay.Relay

// RelayOptions tunes a relay (retention, queue depth, heartbeat cadence,
// upstream reconnect behaviour).
type RelayOptions = relay.Options

// NewRelay builds a relay for the given upstream address; opts may be nil
// for defaults. Call Listen to bind its downstream side.
func NewRelay(upstream string, params *CommitmentParams, opts *RelayOptions) (*Relay, error) {
	return relay.New(upstream, params, opts)
}

// StateStore is the publisher's durable-state subsystem: an AEAD-encrypted
// write-ahead log of registration/revocation/publish events plus compacted
// full-state snapshots (internal/store). A publisher recovered through it
// keeps table T, its sticky group assignments, its epoch counter and its
// incarnation generation, so the first post-restart publish is a zero-solve
// steady-state publish and streaming subscribers catch up with deltas.
type StateStore = store.Store

// StateRecovery describes what StateStore.Recover restored.
type StateRecovery = store.RecoveryStats

// OpenStore opens (creating if necessary) a durable-state directory under a
// 32-byte operator key. Typical lifecycle:
//
//	st, _ := ppcd.OpenStore(dir, key)
//	rec, _ := st.Recover(pub)   // warm restart: table, epochs, caches return
//	pub.SetJournal(st)          // subsequent mutations hit the WAL
//	defer func() { st.Snapshot(pub); st.Close() }()
func OpenStore(dir string, key [32]byte) (*StateStore, error) { return store.Open(dir, key) }

// LoadOrCreateKeyFile reads a hex-encoded operator key, generating a fresh
// random one (file mode 0600) if absent.
func LoadOrCreateKeyFile(path string) ([32]byte, error) { return store.LoadOrCreateKeyFile(path) }
