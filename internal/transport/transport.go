// Package transport puts the registration and dissemination phases on the
// network: a publisher-side TCP server and a subscriber-side client. It
// moves bytes and owns none of their layout. Every message on a connection
// is
//
//	u32 length ‖ payload        (big-endian; the payload's length, at most 64 MiB)
//
// and every payload is an internal/wire message: a request (kind ‖ body), a
// reply (status ‖ body) or a stream frame. One bounded reader takes all
// three off the network (msgReader). A connection carries requests and their
// replies until it subscribes; from then on the server pushes
// epoch-stamped snapshot, delta and heartbeat frames over it (see
// stream.go). A refused request is answered with the error status and the
// refusal's text, which the client returns as a *wire.RemoteError.
//
// The client implements pubsub.Registrar, so a subscriber registering over
// the network sends all matching conditions in a single register-batch
// round trip. Dissemination is either pull (Fetch, served the retained
// snapshot frame) or push (Subscribe): a reconnecting subscriber presents its
// last applied epoch and receives a delta catch-up when the server still
// retains that epoch, else a fresh snapshot. A broadcast's frames are
// marshaled at most once per epoch on the server and fanned out as the same
// bytes to every connection.
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
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"ppcd/internal/fanout"
	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
	"ppcd/internal/wire"
)

// DefaultRetention is the number of recent epochs the server keeps for
// fetch serving and delta catch-ups.
const DefaultRetention = fanout.DefaultRetention

// maxRequestBytes bounds one message's payload — a request, a reply or a
// stream frame — before any of it is decoded: a hostile peer cannot stream
// an arbitrarily large batch that is fully materialized before the
// publisher's batch-size cap can reject it.
const maxRequestBytes = 64 << 20

// readChunk is what a message's buffer starts at and the most it grows by
// ahead of the bytes that fill it.
const readChunk = 1 << 20

// msgReader takes messages off one connection. The prefix buffer lives as
// long as the connection, so a message costs one allocation: its payload.
type msgReader struct {
	r      io.Reader
	prefix [4]byte
}

// next reads one message and returns its payload. The announced length is
// bounded by maxRequestBytes and does not size the allocation: the buffer
// starts at min(n, readChunk) and doubles only as bytes arrive, so a peer
// that announces 64 MiB and stalls costs 1 MiB, and a payload of at most
// readChunk costs exactly one allocation.
func (m *msgReader) next() ([]byte, error) {
	if _, err := io.ReadFull(m.r, m.prefix[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(m.prefix[:]))
	if n == 0 || n > maxRequestBytes {
		return nil, fmt.Errorf("message of %d bytes exceeds limits", n)
	}
	buf := make([]byte, min(n, readChunk))
	for off := 0; ; off = len(buf) {
		if _, err := io.ReadFull(m.r, buf[off:]); err != nil {
			return nil, fmt.Errorf("message truncated: %w", err)
		}
		if len(buf) == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-len(buf), len(buf)))...)
	}
}

// writeMsg writes one message whose payload is parts, concatenated, in one
// vectored write.
func writeMsg(w io.Writer, parts ...[]byte) error {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if n > maxRequestBytes {
		return fmt.Errorf("transport: message of %d bytes exceeds limits", n)
	}
	var prefix [4]byte
	binary.BigEndian.PutUint32(prefix[:], uint32(n))
	bufs := append(net.Buffers{prefix[:]}, parts...)
	_, err := bufs.WriteTo(w)
	return err
}

// The status bytes that open a reply's payload.
var (
	statusOK    = []byte{wire.StatusOK}
	statusError = []byte{wire.StatusError}
)

// Server exposes a registration backend plus a broadcast fan-out over TCP.
// At the origin the backend is the local *pubsub.Publisher; at a relay it
// is a proxy that forwards registrations upstream while broadcasts are
// re-served from the relay's own retention ring.
type Server struct {
	reg pubsub.Registrar
	hub *fanout.Hub

	heartbeat time.Duration

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
// replies; "" when this server is itself the origin).
func NewServerWithBackend(reg pubsub.Registrar, origin string) (*Server, error) {
	if reg == nil {
		return nil, errors.New("transport: nil registration backend")
	}
	return &Server{
		reg:       reg,
		hub:       fanout.NewHub(),
		heartbeat: defaultHeartbeat,
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

// SetOrigin updates the origin address advertised in "info" replies (a
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
	s.hub.StartHeartbeats(s.heartbeat)
	return ln.Addr().String(), nil
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Track the conn so Close can unblock a handler idling in a read
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

// handle serves one connection's requests in order. A message over the
// bound, one that does not decode and a peer that goes away all end the
// connection; a request the backend refuses is answered with its error.
func (s *Server) handle(conn net.Conn) {
	in := &msgReader{r: conn}
	for {
		msg, err := in.next()
		if err != nil {
			return
		}
		req, err := wire.UnmarshalRequest(msg)
		if err != nil {
			return
		}
		if req.Kind == wire.KindSubscribe {
			// The connection leaves the request/reply protocol and becomes a
			// one-way frame stream until either side closes it.
			if !s.hub.ServeConn(conn, req.Doc, req.LastEpoch, req.LastGen) {
				writeMsg(conn, statusError, []byte("transport: server closing"))
			}
			return
		}
		body, err := s.serve(req)
		if err != nil {
			err = writeMsg(conn, statusError, []byte(err.Error()))
		} else {
			err = writeMsg(conn, statusOK, body)
		}
		if err != nil {
			return
		}
	}
}

// serve answers an info, register-batch or fetch request with its reply
// body. A fetch is answered with the retained snapshot frame as the ring
// holds it.
func (s *Server) serve(req *wire.Request) ([]byte, error) {
	switch req.Kind {
	case wire.KindInfo:
		s.mu.Lock()
		origin := s.origin
		s.mu.Unlock()
		return wire.MarshalInfo(&wire.Info{Ell: s.reg.Ell(), Origin: origin, Conditions: s.reg.Conditions()}), nil
	case wire.KindRegisterBatch:
		results, err := s.reg.RegisterBatch(req.Batch)
		if err != nil {
			return nil, err
		}
		return wire.MarshalBatchReply(results), nil
	default: // wire.KindFetch
		known, raw, _ := s.hub.Lookup(req.Doc)
		if !known {
			return nil, fmt.Errorf("transport: no broadcast for %q", req.Doc)
		}
		if raw == nil {
			return nil, errors.New("transport: no broadcast published yet")
		}
		return raw, nil
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
	addr   string
	params *pedersen.Params

	mu   sync.Mutex // one request and its reply at a time
	conn net.Conn
	in   msgReader
	info *wire.Info // the server's, from its first info reply
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
	return &Client{addr: addr, conn: conn, in: msgReader{r: conn}, params: params}, nil
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(req *wire.Request) (*wire.Reply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.exchange(req)
}

// exchange sends req and decodes its reply; the caller holds c.mu. A refusal
// is returned as the *wire.RemoteError carrying the server's text.
func (c *Client) exchange(req *wire.Request) (*wire.Reply, error) {
	if err := writeMsg(c.conn, wire.MarshalRequest(req)); err != nil {
		return nil, fmt.Errorf("transport: send: %w", err)
	}
	msg, err := c.in.next()
	if err != nil {
		return nil, fmt.Errorf("transport: receive: %w", err)
	}
	return wire.UnmarshalReply(req.Kind, msg)
}

// serverInfo returns the server's info, asking for it on first use.
func (c *Client) serverInfo() (*wire.Info, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.info == nil {
		rep, err := c.exchange(&wire.Request{Kind: wire.KindInfo})
		if err != nil {
			return nil, err
		}
		c.info = rep.Info
	}
	return c.info, nil
}

// Params implements pubsub.Registrar.
func (c *Client) Params() *pedersen.Params { return c.params }

// Ell implements pubsub.Registrar.
func (c *Client) Ell() int {
	info, err := c.serverInfo()
	if err != nil {
		return 0
	}
	return info.Ell
}

// Conditions implements pubsub.Registrar.
func (c *Client) Conditions() []policy.Condition {
	info, err := c.serverInfo()
	if err != nil {
		return nil
	}
	return append([]policy.Condition(nil), info.Conditions...)
}

// Origin reports the authoritative publisher address advertised by the
// server, "" when the dialed server is itself the origin. Useful to detect
// that a connection landed on a relay.
func (c *Client) Origin() string {
	info, err := c.serverInfo()
	if err != nil {
		return ""
	}
	return info.Origin
}

// RegisterBatch implements pubsub.Registrar: all registrations of one
// subscriber travel in a single round trip.
func (c *Client) RegisterBatch(reqs []*pubsub.RegistrationRequest) ([]pubsub.BatchResult, error) {
	rep, err := c.roundTrip(&wire.Request{Kind: wire.KindRegisterBatch, Batch: reqs})
	if err != nil {
		return nil, err
	}
	if len(rep.Batch) != len(reqs) {
		return nil, fmt.Errorf("transport: %d batch results for %d requests", len(rep.Batch), len(reqs))
	}
	return rep.Batch, nil
}

// Fetch retrieves the broadcast for a document name ("" = latest published),
// decoded from the server's per-epoch snapshot frame. A fetch naming a
// document that rotated out of the server's retention ring is answered with
// the nearest retained snapshot — check Broadcast.DocName when that matters.
func (c *Client) Fetch(docName string) (*pubsub.Broadcast, error) {
	rep, err := c.roundTrip(&wire.Request{Kind: wire.KindFetch, Doc: docName})
	if err != nil {
		return nil, err
	}
	return rep.Snapshot, nil
}

var _ pubsub.Registrar = (*Client)(nil)
