// Package relay is the stateless edge tier: a relay opens ONE upstream
// subscribe stream, retains the raw stream frames it receives in its own
// bounded epoch ring (internal/fanout — the same hub the origin server
// uses), and re-serves snapshot/delta/heartbeat frames plus reconnect
// catch-up to any number of downstream subscribers. An epoch that arrived
// as a delta has its snapshot frame marshaled only if a downstream joins or
// fetches at it (the canonical encoding makes those the origin's bytes).
// Because every frame is publicly distributable by construction (all
// secrecy lives inside the ACV headers), the relay needs no key material
// and never decrypts anything.
//
// A relay's downstream side speaks exactly the protocol its upstream side
// consumes, so relays chain into a tree: origin → relay → relay → … → subs,
// with the origin's egress O(direct children), not O(total subscribers).
// Registration and info requests are proxied to the upstream (which forwards
// again if it is itself a relay), so an unmodified subscriber works against
// a relay address.
//
// Restart discipline: the upstream loop reconnects with its last applied
// (epoch, Gen) for a one-delta catch-up; any base or generation mismatch —
// a restarted origin renumbers epochs under a fresh Gen — resets the relay
// to a fresh snapshot subscribe, so a relay restart never poisons its
// subtree with frames from a stale generation.
package relay

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ppcd/internal/pedersen"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
	"ppcd/internal/transport"
	"ppcd/internal/wire"
)

// Options tunes a relay. The zero value picks defaults suited to an edge
// in front of many consumers.
type Options struct {
	// Retain bounds the relay's own epoch retention ring (default
	// fanout.DefaultRetention).
	Retain int
	// QueueDepth bounds each downstream connection's outbound frame queue
	// (default 128 — deeper than the origin default, since an edge absorbs
	// burstier consumer populations).
	QueueDepth int
	// WriteTimeout is the per-write deadline after which a downstream
	// consumer is evicted (default 10s).
	WriteTimeout time.Duration
	// Heartbeat is the downstream heartbeat cadence (default 30s; the
	// relay runs its own ticker rather than forwarding upstream
	// heartbeats, so cadence is local policy).
	Heartbeat time.Duration
	// Doc filters the upstream subscription to one document ("" = all).
	Doc string
	// IdleTimeout bounds how long the upstream stream may stay silent —
	// no data, no heartbeat — before the relay reconnects (default 2m).
	IdleTimeout time.Duration
	// ReconnectDelay is the pause between upstream redial attempts
	// (default 1s).
	ReconnectDelay time.Duration
}

// DefaultQueueDepth is the relay's downstream queue depth default.
const DefaultQueueDepth = 128

func (o *Options) withDefaults() Options {
	out := *o
	if out.QueueDepth <= 0 {
		out.QueueDepth = DefaultQueueDepth
	}
	if out.IdleTimeout <= 0 {
		out.IdleTimeout = 2 * time.Minute
	}
	if out.ReconnectDelay <= 0 {
		out.ReconnectDelay = time.Second
	}
	if out.Heartbeat == 0 {
		out.Heartbeat = 30 * time.Second
	}
	return out
}

// Stats is a snapshot of the relay's upstream-side counters.
type Stats struct {
	Snapshots  int64 // snapshot frames applied from upstream
	Deltas     int64 // delta frames applied from upstream
	Reconnects int64 // upstream dials (first connect included)
	Resets     int64 // catch-up resets after base/Gen mismatch
	// SnapshotsBuilt counts the snapshot frames the relay marshaled itself
	// (a downstream asked for an epoch that arrived as a delta);
	// SnapshotBytesHeld is what its ring holds now, built or received.
	SnapshotsBuilt    int64
	SnapshotBytesHeld int64
}

// Relay is one edge process: an upstream consumer loop feeding a local
// transport.Server whose registration backend proxies to the upstream.
type Relay struct {
	upstream string
	opt      Options
	srv      *transport.Server
	backend  *proxyBackend

	mu      sync.Mutex
	stream  *transport.Stream
	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
	closed  bool

	lastEpoch atomic.Uint64
	lastGen   atomic.Uint64

	snapshots  atomic.Int64
	deltas     atomic.Int64
	reconnects atomic.Int64
	resets     atomic.Int64
}

// New builds a relay for the given upstream address (an origin server or
// another relay). params must match the system-wide Pedersen setup; opt may
// be nil for defaults.
func New(upstream string, params *pedersen.Params, opt *Options) (*Relay, error) {
	if upstream == "" {
		return nil, errors.New("relay: empty upstream address")
	}
	if params == nil {
		return nil, errors.New("relay: nil params")
	}
	var o Options
	if opt != nil {
		o = *opt
	}
	o = o.withDefaults()
	backend := &proxyBackend{addr: upstream, params: params}
	srv, err := transport.NewServerWithBackend(backend, upstream)
	if err != nil {
		return nil, err
	}
	if o.Retain > 0 {
		srv.SetRetention(o.Retain)
	}
	srv.SetQueueDepth(o.QueueDepth)
	if o.WriteTimeout > 0 {
		srv.SetWriteTimeout(o.WriteTimeout)
	}
	srv.SetHeartbeatInterval(o.Heartbeat)
	return &Relay{upstream: upstream, opt: o, srv: srv, backend: backend, stop: make(chan struct{})}, nil
}

// Listen binds the relay's downstream side to addr and starts the upstream
// consumer loop. It returns the bound address.
func (r *Relay) Listen(addr string) (string, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return "", errors.New("relay: closed")
	}
	if r.started {
		r.mu.Unlock()
		return "", errors.New("relay: already listening")
	}
	r.started = true
	r.mu.Unlock()
	bound, err := r.srv.Listen(addr)
	if err != nil {
		return "", err
	}
	r.wg.Add(1)
	go r.upstreamLoop()
	return bound, nil
}

// upstreamLoop dials the upstream, subscribes with the relay's last applied
// (epoch, Gen) and applies frames into the local hub, reconnecting forever
// until Close.
func (r *Relay) upstreamLoop() {
	defer r.wg.Done()
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if err := r.consumeUpstream(); err != nil {
			select {
			case <-r.stop:
				return
			case <-time.After(r.opt.ReconnectDelay):
			}
		}
	}
}

// consumeUpstream runs one upstream session: dial, subscribe, apply frames
// until an error or shutdown.
func (r *Relay) consumeUpstream() error {
	client, err := transport.Dial(r.upstream, r.backend.params)
	if err != nil {
		return err
	}
	defer client.Close()
	r.reconnects.Add(1)
	st, err := client.Subscribe(r.opt.Doc, r.lastEpoch.Load(), r.lastGen.Load())
	if err != nil {
		return err
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		st.Close()
		return errors.New("relay: closed")
	}
	r.stream = st
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.stream = nil
		r.mu.Unlock()
		st.Close()
	}()
	// Advertise the true origin downstream: our upstream may itself be a
	// relay, in which case it advertises where IT got the frames from.
	if o := client.Origin(); o != "" {
		r.srv.SetOrigin(o)
	} else {
		r.srv.SetOrigin(r.upstream)
	}
	for {
		st.SetReadDeadline(time.Now().Add(r.opt.IdleTimeout))
		f, raw, err := st.NextRaw()
		if err != nil {
			return err
		}
		switch f.Type {
		case wire.FrameSnapshot:
			b := f.Snapshot
			r.snapshots.Add(1)
			r.srv.PublishRaw(b, raw, nil, 0)
			r.applied(b)
		case wire.FrameDelta:
			d := f.Delta
			base := r.srv.Current(d.DocName)
			if base == nil || base.Epoch != d.BaseEpoch || base.Gen != d.Gen {
				// The delta does not chain onto what we retain — a missed
				// epoch or a restarted publisher generation. Reset to a
				// fresh snapshot subscribe rather than serving a guess.
				r.lastEpoch.Store(0)
				r.lastGen.Store(0)
				r.resets.Add(1)
				return fmt.Errorf("relay: delta base mismatch for %q (have %v, need epoch %d gen %d)",
					d.DocName, base != nil, d.BaseEpoch, d.Gen)
			}
			b, err := d.Apply(base)
			if err != nil {
				r.lastEpoch.Store(0)
				r.lastGen.Store(0)
				r.resets.Add(1)
				return fmt.Errorf("relay: applying delta: %w", err)
			}
			r.deltas.Add(1)
			r.srv.PublishRaw(b, nil, raw, d.BaseEpoch)
			r.applied(b)
		case wire.FrameHeartbeat:
			// Upstream liveness only; the relay runs its own downstream
			// heartbeat cadence.
		}
	}
}

// applied records b as the relay's position. It runs after PublishRaw, so
// LastEpoch never names an epoch a Fetch would not yet be served.
func (r *Relay) applied(b *pubsub.Broadcast) {
	r.lastEpoch.Store(b.Epoch)
	r.lastGen.Store(b.Gen)
}

// LastEpoch reports the newest epoch applied from upstream.
func (r *Relay) LastEpoch() uint64 { return r.lastEpoch.Load() }

// Streams is the number of live downstream subscribe streams.
func (r *Relay) Streams() int { return r.srv.Streams() }

// Egress reports cumulative frames and bytes pushed downstream.
func (r *Relay) Egress() (frames, bytes int64) { return r.srv.Egress() }

// Stats snapshots the upstream-side counters.
func (r *Relay) Stats() Stats {
	built, held := r.srv.Snapshots()
	return Stats{
		Snapshots:         r.snapshots.Load(),
		Deltas:            r.deltas.Load(),
		Reconnects:        r.reconnects.Load(),
		Resets:            r.resets.Load(),
		SnapshotsBuilt:    built,
		SnapshotBytesHeld: held,
	}
}

// Close shuts the relay down: upstream loop, downstream server, proxy.
func (r *Relay) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.stop)
	st := r.stream
	r.mu.Unlock()
	if st != nil {
		st.Close() // unblock NextRaw
	}
	err := r.srv.Close()
	r.wg.Wait()
	r.backend.close()
	return err
}

// proxyBackend forwards registration RPCs to the upstream over a lazily
// dialed request/reply connection, making the relay transparent to
// registering subscribers. It implements pubsub.Registrar. A refusal the
// upstream sends (a *wire.RemoteError: an empty or oversized batch) is
// passed on with the connection kept; any other failure drops the
// connection and the next call redials.
type proxyBackend struct {
	addr   string
	params *pedersen.Params

	mu sync.Mutex
	c  *transport.Client
}

func (p *proxyBackend) client() (*transport.Client, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.c != nil {
		return p.c, nil
	}
	c, err := transport.Dial(p.addr, p.params)
	if err != nil {
		return nil, fmt.Errorf("relay: dialing upstream: %w", err)
	}
	p.c = c
	return c, nil
}

func (p *proxyBackend) fail(c *transport.Client) {
	p.mu.Lock()
	if p.c == c {
		p.c = nil
	}
	p.mu.Unlock()
	c.Close()
}

func (p *proxyBackend) close() {
	p.mu.Lock()
	c := p.c
	p.c = nil
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Params implements pubsub.Registrar.
func (p *proxyBackend) Params() *pedersen.Params { return p.params }

// Ell implements pubsub.Registrar.
func (p *proxyBackend) Ell() int {
	c, err := p.client()
	if err != nil {
		return 0
	}
	return c.Ell()
}

// Conditions implements pubsub.Registrar.
func (p *proxyBackend) Conditions() []policy.Condition {
	c, err := p.client()
	if err != nil {
		return nil
	}
	conds := c.Conditions()
	if conds == nil {
		p.fail(c)
	}
	return conds
}

// RegisterBatch implements pubsub.Registrar.
func (p *proxyBackend) RegisterBatch(reqs []*pubsub.RegistrationRequest) ([]pubsub.BatchResult, error) {
	c, err := p.client()
	if err != nil {
		return nil, err
	}
	results, err := c.RegisterBatch(reqs)
	var refused *wire.RemoteError
	if err != nil && !errors.As(err, &refused) {
		p.fail(c)
	}
	return results, err
}

var _ pubsub.Registrar = (*proxyBackend)(nil)
