// Package transport puts the registration and dissemination phases on the
// wire: a publisher-side TCP server and a subscriber-side client. Requests
// travel as gob envelopes; broadcast payloads travel as the deterministic
// stream-frame encoding, marshaled at most ONCE per epoch on the server and
// fanned out as the same bytes to every connection (gob remains as a per-connection
// fallback for clients predating the wire path, negotiated through the
// "info" capability advertisement).
//
// The client implements pubsub.BatchRegistrar, so a subscriber registering
// over the network sends all matching conditions in a single register-batch
// round trip. Dissemination is either pull (Fetch, served from a bounded
// ring of recent epochs) or push: Subscribe opens a long-lived stream over
// which the server sends epoch-stamped snapshot/delta/heartbeat frames; a
// reconnecting subscriber presents its last applied epoch and receives a
// delta catch-up when the server still retains that epoch, else a fresh
// snapshot (see stream.go).
//
// The retention ring and the per-connection fan-out live in
// internal/fanout, shared with the relay tier (internal/relay): the server
// here is simply a registration backend (a local publisher at the origin, a
// proxy to the origin at a relay) glued to a fanout.Hub.
//
// The Pedersen parameters themselves are system-wide public setup (group
// choice + derivation seed) and are established out of band, as in the
// paper, where the IdMgr publishes Param = ⟨G, g, h⟩ once.
package transport

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ppcd/internal/fanout"
	"ppcd/internal/ocbe"
	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
	"ppcd/internal/wire"
)

// request is the single wire request envelope.
type request struct {
	Kind  string // "info", "register", "register-batch", "fetch", "subscribe"
	Reg   *pubsub.RegistrationRequest
	Batch []*pubsub.RegistrationRequest
	Doc   string // fetch: document name ("" = latest); subscribe: doc filter ("" = all)
	// Wire asks for the broadcast as stream-frame bytes (marshaled once
	// per epoch server-side) instead of a per-connection gob encode. Old
	// servers ignore the field and answer with gob.
	Wire bool
	// LastEpoch / LastGen are the subscriber's last applied epoch and its
	// publisher generation ("subscribe"): the server answers with a delta
	// catch-up when it retains that exact state, else a snapshot.
	LastEpoch uint64
	LastGen   uint64
}

// response is the single wire response envelope.
type response struct {
	Err        string
	Conditions []policy.Condition
	Ell        int
	// HasBatch advertises the register-batch RPC in "info" responses;
	// servers that predate it leave the field unset, steering clients to
	// the per-condition path without error-text sniffing.
	HasBatch bool
	// HasWire / HasStream advertise the stream-frame fetch encoding and the
	// subscribe stream RPC, with the same unset-means-absent convention.
	HasWire   bool
	HasStream bool
	// Origin names the authoritative publisher address when this server is
	// a relay ("" when the server IS the origin, and on servers predating
	// the relay tier). Clients may use it for logging or to reach the
	// origin directly.
	Origin    string
	Envelope  *ocbe.Envelope
	Batch     []pubsub.BatchResult
	Broadcast *pubsub.Broadcast
	// Raw is the snapshot frame of the fetched broadcast (when the
	// request set Wire and the server supports it).
	Raw []byte
}

// DefaultRetention is the number of recent epochs the server keeps for
// fetch serving and delta catch-ups.
const DefaultRetention = fanout.DefaultRetention

// Server exposes a registration backend plus a broadcast fan-out over TCP.
// At the origin the backend is the local *pubsub.Publisher; at a relay it
// is a proxy that forwards registrations upstream while broadcasts are
// re-served from the relay's own retention ring.
type Server struct {
	reg pubsub.BatchRegistrar
	hub *fanout.Hub

	heartbeat time.Duration
	streaming bool

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	origin string
	wg     sync.WaitGroup
	closed bool
}

// NewServer wraps a publisher. Call Listen to start accepting connections.
func NewServer(pub *pubsub.Publisher) (*Server, error) {
	if pub == nil {
		return nil, errors.New("transport: nil publisher")
	}
	return NewServerWithBackend(pub, "")
}

// NewServerWithBackend wraps any registration backend — a relay passes its
// upstream proxy and the origin's address (advertised to clients in "info"
// responses; "" when this server is itself the origin).
func NewServerWithBackend(reg pubsub.BatchRegistrar, origin string) (*Server, error) {
	if reg == nil {
		return nil, errors.New("transport: nil registration backend")
	}
	return &Server{
		reg:       reg,
		hub:       fanout.NewHub(),
		heartbeat: defaultHeartbeat,
		streaming: true,
		conns:     make(map[net.Conn]struct{}),
		origin:    origin,
	}, nil
}

// SetRetention bounds how many recent epochs the server keeps (default
// DefaultRetention, minimum 1). Call before Listen.
func (s *Server) SetRetention(k int) { s.hub.SetRetention(k) }

// SetHeartbeatInterval tunes the stream heartbeat cadence (default 30s;
// 0 disables heartbeats). Call before Listen.
func (s *Server) SetHeartbeatInterval(d time.Duration) { s.heartbeat = d }

// SetWriteTimeout tunes the per-frame write deadline after which a stream
// consumer is considered dead (default 10s). Call before Listen.
func (s *Server) SetWriteTimeout(d time.Duration) { s.hub.SetWriteTimeout(d) }

// SetQueueDepth bounds each stream connection's outbound frame queue
// (default fanout.DefaultQueueDepth, minimum 1). Relays facing thousands of
// consumers want deeper queues than origin-attached subscribers.
func (s *Server) SetQueueDepth(d int) { s.hub.SetQueueDepth(d) }

// SetStreaming enables or disables the subscribe stream RPC (default
// enabled). Call before Listen.
func (s *Server) SetStreaming(on bool) { s.streaming = on }

// SetOrigin updates the origin address advertised in "info" responses (a
// relay learns it from its upstream after connecting).
func (s *Server) SetOrigin(addr string) {
	s.mu.Lock()
	s.origin = addr
	s.mu.Unlock()
}

// Streams is the number of live subscribe streams.
func (s *Server) Streams() int { return s.hub.Conns() }

// RingLen is the number of retained epochs.
func (s *Server) RingLen() int { return s.hub.RingLen() }

// Egress reports cumulative frames and bytes pushed to subscribe streams —
// the measured cost of this node's fan-out.
func (s *Server) Egress() (frames, bytes int64) { return s.hub.Egress() }

// Snapshots reports the snapshot frames this server has marshaled — none
// while every stream is current, at most one per (document, epoch) however
// many joiners, fetches and reconnects ask — and the snapshot bytes its ring
// holds now.
func (s *Server) Snapshots() (built, heldBytes int64) { return s.hub.Snapshots() }

// Current returns the decoded broadcast of the newest retained epoch for
// the named document, nil when none is retained. A relay uses it as the
// application base for incoming upstream deltas.
func (s *Server) Current(doc string) *pubsub.Broadcast { return s.hub.Current(doc) }

// Listen binds the server to addr (e.g. "127.0.0.1:0") and starts serving in
// the background. It returns the bound address.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: %w", err)
	}
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	if s.streaming {
		s.hub.StartHeartbeats(s.heartbeat)
	}
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Track the conn so Close can unblock a handler idling in Decode
		// (e.g. a relay's long-lived registration-proxy connection).
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.handle(conn)
		}()
	}
}

// maxRequestBytes bounds how much a single gob-encoded request may read
// from the connection before it is decoded — without it, a hostile client
// could stream an arbitrarily large batch that is fully materialized before
// the publisher's batch-size cap can reject it. The same constant bounds a
// stream frame on the client side.
const maxRequestBytes = 64 << 20

func (s *Server) handle(conn net.Conn) {
	lim := &io.LimitedReader{R: conn}
	dec := gob.NewDecoder(lim)
	enc := gob.NewEncoder(conn)
	for {
		lim.N = maxRequestBytes
		var req request
		if err := dec.Decode(&req); err != nil {
			return // client closed, over-limit, or garbage; drop the connection
		}
		if req.Kind == "subscribe" && s.streaming {
			// The connection leaves the request/response protocol and
			// becomes a one-way frame stream until either side closes it.
			s.hub.ServeConn(conn, req.Doc, req.LastEpoch, req.LastGen)
			return
		}
		resp := s.dispatch(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
	}
}

func (s *Server) dispatch(req *request) *response {
	switch req.Kind {
	case "info":
		s.mu.Lock()
		origin := s.origin
		s.mu.Unlock()
		return &response{
			Conditions: s.reg.Conditions(),
			Ell:        s.reg.Ell(),
			HasBatch:   true,
			HasWire:    true,
			HasStream:  s.streaming,
			Origin:     origin,
		}
	case "register":
		env, err := s.reg.Register(req.Reg)
		if err != nil {
			return &response{Err: err.Error()}
		}
		return &response{Envelope: env}
	case "register-batch":
		results, err := s.reg.RegisterBatch(req.Batch)
		if err != nil {
			return &response{Err: err.Error()}
		}
		return &response{Batch: results}
	case "fetch":
		known, raw, b := s.hub.Lookup(req.Doc)
		if !known {
			return &response{Err: fmt.Sprintf("transport: no broadcast for %q", req.Doc)}
		}
		if raw == nil {
			return &response{Err: "transport: no broadcast published yet"}
		}
		if req.Wire {
			return &response{Raw: raw}
		}
		return &response{Broadcast: b}
	case "subscribe":
		return &response{Err: "transport: streaming disabled on this server"}
	default:
		return &response{Err: fmt.Sprintf("transport: unknown request kind %q", req.Kind)}
	}
}

// PublishBroadcast makes a broadcast available to clients: its delta frame
// against the previous epoch of the same document is marshaled once, it is
// appended to the bounded retention ring, and fanned out to every connected
// stream — subscribers current at the previous epoch receive only the delta
// bytes. Its snapshot frame is marshaled only when a stream that is not at
// that base, a joiner or a fetch first needs it.
func (s *Server) PublishBroadcast(b *pubsub.Broadcast) error {
	return s.PublishRaw(b, nil, nil, 0)
}

// PublishRaw is PublishBroadcast for callers that already hold the exact
// wire frames — a relay retains and re-serves the bytes it received
// upstream rather than re-marshaling. rawSnapshot and rawDelta are optional
// (nil = marshal on demand / diff locally); deltaBase names rawDelta's base
// epoch.
func (s *Server) PublishRaw(b *pubsub.Broadcast, rawSnapshot, rawDelta []byte, deltaBase uint64) error {
	if b == nil {
		return errors.New("transport: nil broadcast")
	}
	s.hub.Publish(b, rawSnapshot, rawDelta, deltaBase)
	return nil
}

// Close stops the listener, shuts every stream and waits for in-flight
// handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		delete(s.conns, conn)
		conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.hub.Close()
	s.wg.Wait()
	return err
}

// Client is the subscriber-side connection to a publisher server (or a
// relay re-serving one). It implements pubsub.Registrar.
type Client struct {
	addr string

	mu        sync.Mutex
	conn      net.Conn
	enc       *gob.Encoder
	dec       *gob.Decoder
	params    *pedersen.Params
	ell       int
	conds     []policy.Condition
	hasBatch  bool
	hasWire   bool
	hasStream bool
	origin    string
	haveIn    bool
}

// Dial connects to a publisher server. params must match the system-wide
// Pedersen setup.
func Dial(addr string, params *pedersen.Params) (*Client, error) {
	if params == nil {
		return nil, errors.New("transport: nil params")
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: %w", err)
	}
	return &Client{addr: addr, conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn), params: params}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(req *request) (*response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.enc.Encode(req); err != nil {
		return nil, fmt.Errorf("transport: send: %w", err)
	}
	var resp response
	if err := c.dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("transport: receive: %w", err)
	}
	if resp.Err != "" {
		return nil, errors.New(resp.Err)
	}
	return &resp, nil
}

func (c *Client) ensureInfo() error {
	c.mu.Lock()
	have := c.haveIn
	c.mu.Unlock()
	if have {
		return nil
	}
	resp, err := c.roundTrip(&request{Kind: "info"})
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.conds = resp.Conditions
	c.ell = resp.Ell
	c.hasBatch = resp.HasBatch
	c.hasWire = resp.HasWire
	c.hasStream = resp.HasStream
	c.origin = resp.Origin
	c.haveIn = true
	c.mu.Unlock()
	return nil
}

// Params implements pubsub.Registrar.
func (c *Client) Params() *pedersen.Params { return c.params }

// Ell implements pubsub.Registrar.
func (c *Client) Ell() int {
	if err := c.ensureInfo(); err != nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ell
}

// Conditions implements pubsub.Registrar.
func (c *Client) Conditions() []policy.Condition {
	if err := c.ensureInfo(); err != nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]policy.Condition(nil), c.conds...)
}

// Origin reports the authoritative publisher address advertised by the
// server, "" when the dialed server is itself the origin (or predates the
// relay tier). Useful to detect that a connection landed on a relay.
func (c *Client) Origin() string {
	if err := c.ensureInfo(); err != nil {
		return ""
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.origin
}

// Register implements pubsub.Registrar.
func (c *Client) Register(reg *pubsub.RegistrationRequest) (*ocbe.Envelope, error) {
	resp, err := c.roundTrip(&request{Kind: "register", Reg: reg})
	if err != nil {
		return nil, err
	}
	if resp.Envelope == nil {
		return nil, errors.New("transport: empty envelope in response")
	}
	return resp.Envelope, nil
}

// RegisterBatch implements pubsub.BatchRegistrar: all registrations of one
// subscriber travel in a single round trip instead of one per condition.
// Against a server whose "info" response does not advertise the batch RPC
// (one predating it), it transparently degrades to one Register round trip
// per item.
func (c *Client) RegisterBatch(reqs []*pubsub.RegistrationRequest) ([]pubsub.BatchResult, error) {
	if err := c.ensureInfo(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	hasBatch := c.hasBatch
	c.mu.Unlock()
	if !hasBatch {
		// Old server: fall back to the per-condition RPC.
		results := make([]pubsub.BatchResult, len(reqs))
		for i, req := range reqs {
			if req == nil {
				results[i].Err = "pubsub: incomplete registration request"
				continue
			}
			results[i].CondID = req.CondID
			env, err := c.Register(req)
			if err != nil {
				results[i].Err = err.Error()
				continue
			}
			results[i].Envelope = env
		}
		return results, nil
	}
	resp, err := c.roundTrip(&request{Kind: "register-batch", Batch: reqs})
	if err != nil {
		return nil, err
	}
	if len(resp.Batch) != len(reqs) {
		return nil, fmt.Errorf("transport: %d batch results for %d requests", len(resp.Batch), len(reqs))
	}
	return resp.Batch, nil
}

// Fetch retrieves the broadcast for a document name ("" = latest published).
// Against a stream-frame server the payload arrives as the server's per-epoch wire
// bytes; older servers answer with per-connection gob. A fetch naming a
// document that rotated out of the server's retention ring is answered with
// the nearest retained snapshot — check Broadcast.DocName when that matters.
func (c *Client) Fetch(docName string) (*pubsub.Broadcast, error) {
	// Capability discovery is best-effort: if info fails the fetch round
	// trip below will surface the real error.
	_ = c.ensureInfo()
	c.mu.Lock()
	hasWire := c.hasWire
	c.mu.Unlock()
	resp, err := c.roundTrip(&request{Kind: "fetch", Doc: docName, Wire: hasWire})
	if err != nil {
		return nil, err
	}
	if len(resp.Raw) > 0 {
		f, err := wire.UnmarshalFrame(resp.Raw)
		if err != nil {
			return nil, fmt.Errorf("transport: decoding fetched snapshot: %w", err)
		}
		if f.Type != wire.FrameSnapshot || f.Snapshot == nil {
			return nil, fmt.Errorf("transport: fetch answered with frame type %d", f.Type)
		}
		return f.Snapshot, nil
	}
	if resp.Broadcast == nil {
		return nil, errors.New("transport: empty broadcast in response")
	}
	return resp.Broadcast, nil
}

var _ pubsub.BatchRegistrar = (*Client)(nil)
