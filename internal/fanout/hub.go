// The fan-out hub: downstream connection registry, per-connection bounded
// queues, batched deadline writes and slow-consumer eviction. One hub
// instance backs an origin transport server or a relay's downstream side.
package fanout

import (
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ppcd/internal/pubsub"
	"ppcd/internal/wire"
)

const (
	// DefaultQueueDepth bounds each connection's outbound frame queue; a
	// consumer this far behind the publish rate is evicted and must
	// reconnect (its catch-up is then one delta or snapshot, cheaper than
	// an unbounded backlog).
	DefaultQueueDepth = 32
	// DefaultWriteTimeout is the per-write deadline after which a stream
	// consumer is considered dead.
	DefaultWriteTimeout = 10 * time.Second
)

// lastSeen is the (epoch, generation) pair last enqueued to a connection
// for one document. The generation matters at relays: a restarted publisher
// renumbers epochs under a fresh Gen, so epoch numbers alone would make the
// new incarnation's frames look like duplicates.
type lastSeen struct {
	epoch uint64
	gen   uint64
}

// Conn is one subscribed downstream connection. epochs (per-document last
// state enqueued) is guarded by the hub mutex; the bounded queue decouples
// the fan-out from the consumer's socket. pending and vecs are the writer
// goroutine's preallocated batching scratch — reused every wakeup so the
// steady-state write path performs no allocations.
type Conn struct {
	nc      net.Conn
	doc     string // "" = all documents
	ch      chan *Frame
	done    chan struct{}
	once    sync.Once
	epochs  map[string]lastSeen
	pending []*Frame
	vecs    [][]byte
}

// shutdown wakes the writer loop and unblocks any in-flight socket I/O.
// Idempotent; callers additionally remove the conn from the hub under its
// mutex.
func (c *Conn) shutdown() {
	c.once.Do(func() {
		close(c.done)
		c.nc.Close()
	})
}

// Hub owns the retention ring and the set of live downstream connections.
type Hub struct {
	mu    sync.Mutex
	ring  *ring
	conns map[*Conn]struct{}

	retain       int
	depth        int
	writeTimeout time.Duration

	hbStop chan struct{}
	wg     sync.WaitGroup
	closed bool

	egressFrames atomic.Int64
	egressBytes  atomic.Int64
}

// NewHub creates a hub with default retention, queue depth and write
// timeout. Tune with the setters before serving connections.
func NewHub() *Hub {
	return &Hub{
		ring:         newRing(DefaultRetention),
		conns:        make(map[*Conn]struct{}),
		retain:       DefaultRetention,
		depth:        DefaultQueueDepth,
		writeTimeout: DefaultWriteTimeout,
		hbStop:       make(chan struct{}),
	}
}

// SetRetention bounds how many recent epochs the ring keeps (minimum 1).
func (h *Hub) SetRetention(k int) {
	if k < 1 {
		k = 1
	}
	h.mu.Lock()
	h.retain = k
	h.ring.retain = k
	h.mu.Unlock()
}

// SetQueueDepth bounds each downstream connection's outbound frame queue
// (minimum 1). Relays sit in front of thousands of consumers and want
// deeper queues than origin-attached subscribers; applies to connections
// accepted after the call.
func (h *Hub) SetQueueDepth(d int) {
	if d < 1 {
		d = 1
	}
	h.mu.Lock()
	h.depth = d
	h.mu.Unlock()
}

// SetWriteTimeout tunes the per-write deadline after which a consumer is
// evicted.
func (h *Hub) SetWriteTimeout(d time.Duration) {
	if d > 0 {
		h.mu.Lock()
		h.writeTimeout = d
		h.mu.Unlock()
	}
}

// QueueDepth reports the configured per-connection queue depth.
func (h *Hub) QueueDepth() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.depth
}

// Conns is the number of live downstream stream connections.
func (h *Hub) Conns() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.conns)
}

// RingLen is the number of retained epochs.
func (h *Hub) RingLen() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.ring.entries)
}

// Egress reports the cumulative frames and bytes written to downstream
// stream connections — the measured cost of this node's push fan-out.
func (h *Hub) Egress() (frames, bytes int64) {
	return h.egressFrames.Load(), h.egressBytes.Load()
}

// Snapshots reports the snapshot frames this hub has marshaled and the
// snapshot bytes its ring holds now (at most one frame per document).
func (h *Hub) Snapshots() (built, heldBytes int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, ent := range h.ring.entries {
		if ent.snap != nil {
			heldBytes += int64(ent.snap.held())
		}
	}
	return h.ring.built.Load(), heldBytes
}

// Publish retains a broadcast and fans its frame out to every matching
// connection: subscribers current at the delta's base epoch receive only
// the delta bytes, everyone else the snapshot (built here if there is such
// a subscriber). rawSnapshot/rawDelta/deltaBase follow ring.add semantics
// (nil = marshal/diff locally; a relay passes the bytes it received upstream).
func (h *Hub) Publish(b *pubsub.Broadcast, rawSnapshot, rawDelta []byte, deltaBase uint64) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	ent := h.ring.add(b, rawSnapshot, rawDelta, deltaBase)
	// The delta frame is acquired at most once per publish and shared by
	// reference across every queue, as the entry's snapshot frame is.
	var deltaFrame *Frame
	for c := range h.conns {
		if c.doc != "" && c.doc != ent.doc {
			continue
		}
		var f *Frame
		if last, ok := c.epochs[ent.doc]; ok {
			if last.epoch == ent.epoch && last.gen == ent.b.Gen {
				continue
			}
			if ent.delta != nil && last.epoch == ent.prevEpoch && last.gen == ent.b.Gen {
				if deltaFrame == nil {
					deltaFrame = NewFrame(ent.delta)
				}
				f = deltaFrame
			}
		}
		if f == nil {
			f = ent.snap.frame()
		}
		c.epochs[ent.doc] = lastSeen{epoch: ent.epoch, gen: ent.b.Gen}
		h.offer(c, f)
	}
	h.mu.Unlock()
	if deltaFrame != nil {
		deltaFrame.Release()
	}
}

// Lookup serves the fetch path: the newest retained epoch for the named
// document ("" = latest overall), substituting the nearest retained
// snapshot for rotated-out documents. known is false for names never
// published; raw is nil while the ring is empty. The frame is built outside
// the hub lock (a join storm's fetches do not stall the next delta's
// fan-out) and raw stays valid after a newer epoch supersedes it.
func (h *Hub) Lookup(doc string) (known bool, raw []byte, b *pubsub.Broadcast) {
	h.mu.Lock()
	var snap *snapshot
	if known = h.ring.known(doc); known {
		if ent := h.ring.nearest(doc); ent != nil {
			snap, b = ent.snap, ent.b
		}
	}
	h.mu.Unlock()
	if snap != nil {
		raw = snap.frame().Payload()
	}
	return known, raw, b
}

// Current returns the decoded broadcast of the newest retained epoch for
// the named document (nil when none is retained). Relays use it as the
// delta application base.
func (h *Hub) Current(doc string) *pubsub.Broadcast {
	h.mu.Lock()
	defer h.mu.Unlock()
	if ent := h.ring.nearest(doc); ent != nil && (doc == "" || ent.doc == doc) {
		return ent.b
	}
	return nil
}

// offer enqueues a frame without blocking; a full queue evicts the
// consumer. Callers hold h.mu.
func (h *Hub) offer(c *Conn, f *Frame) {
	f.Ref()
	select {
	case c.ch <- f:
	default:
		f.Release()
		delete(h.conns, c)
		c.shutdown()
	}
}

// drop removes a connection (writer error, consumer hangup).
func (h *Hub) drop(c *Conn) {
	h.mu.Lock()
	delete(h.conns, c)
	h.mu.Unlock()
	c.shutdown()
}

// ServeConn turns an accepted connection into a one-way frame stream: it
// registers the conn, enqueues the catch-up frame for every retained
// document the subscriber is behind on (one delta when (lastEpoch, lastGen)
// is exactly retained, else the epoch's shared snapshot), then writes
// queued frames until the consumer goes away or the hub closes. Blocks on
// the caller's goroutine; a watchdog goroutine detects consumer hangup
// (subscribers never send after the subscribe request). It returns false,
// having written nothing, when the hub is already closed.
func (h *Hub) ServeConn(nc net.Conn, doc string, lastEpoch, lastGen uint64) bool {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return false
	}
	c := &Conn{
		nc:      nc,
		doc:     doc,
		ch:      make(chan *Frame, h.depth),
		done:    make(chan struct{}),
		epochs:  make(map[string]lastSeen),
		pending: make([]*Frame, 0, h.depth),
		vecs:    make([][]byte, 0, h.depth),
	}
	h.conns[c] = struct{}{}
	for d, ent := range h.ring.latest(doc) {
		c.epochs[d] = lastSeen{epoch: ent.epoch, gen: ent.b.Gen}
		if delta, current := h.ring.catchup(ent, lastEpoch, lastGen); delta != nil {
			f := NewFrame(delta)
			h.offer(c, f)
			f.Release()
		} else if !current {
			h.offer(c, ent.snap.frame())
		}
	}
	h.mu.Unlock()

	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		var one [1]byte
		nc.Read(one[:])
		h.drop(c)
	}()
	h.writeLoop(c)
	return true
}

// writeLoop drains the connection's queue. Each wakeup batches every
// already-queued frame into one deadline-bounded vectored write (writev on
// TCP), so a consumer that fell a few frames behind catches up in one
// syscall; the common steady-state case of a single frame takes the direct
// Write path. All scratch state is preallocated on the Conn — the loop
// allocates nothing.
//
//ppcd:hotpath
func (h *Hub) writeLoop(c *Conn) {
	defer func() {
		h.drop(c)
		// Release whatever is still queued: the conn is out of the registry,
		// so no further offers can race this drain.
		for {
			select {
			case f := <-c.ch:
				f.Release()
			default:
				return
			}
		}
	}()
	for {
		select {
		case f := <-c.ch:
			c.pending = append(c.pending[:0], f)
		gather:
			for len(c.pending) < cap(c.pending) {
				select {
				case f2 := <-c.ch:
					c.pending = append(c.pending, f2)
				default:
					break gather
				}
			}
			var written int64
			err := c.nc.SetWriteDeadline(time.Now().Add(h.writeTimeout))
			if err == nil {
				if len(c.pending) == 1 {
					var n int
					n, err = c.nc.Write(c.pending[0].buf)
					written = int64(n)
				} else {
					c.vecs = c.vecs[:0]
					for _, p := range c.pending {
						c.vecs = append(c.vecs, p.buf)
					}
					// net.Buffers consumes the slice header it is handed;
					// aliasing c.vecs keeps the backing array for reuse.
					bufs := net.Buffers(c.vecs)
					written, err = bufs.WriteTo(c.nc)
				}
			}
			h.egressFrames.Add(int64(len(c.pending)))
			h.egressBytes.Add(written)
			for i, p := range c.pending {
				p.Release()
				c.pending[i] = nil
			}
			c.pending = c.pending[:0]
			if err != nil {
				return
			}
		case <-c.done:
			return
		}
	}
}

// StartHeartbeats begins fanning a heartbeat frame (carrying the newest
// retained epoch) to every connection on the given cadence, so idle
// consumers can detect a dead server and the server evicts dead consumers
// via the write path. No-op for d <= 0; stops at Close.
func (h *Hub) StartHeartbeats(d time.Duration) {
	if d <= 0 {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.wg.Add(1)
	h.mu.Unlock()
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.mu.Lock()
				payload := wire.MarshalHeartbeatFrame(h.ring.latestEpoch())
				f := NewFrame(payload)
				for c := range h.conns {
					h.offer(c, f)
				}
				f.Release()
				h.mu.Unlock()
			case <-h.hbStop:
				return
			}
		}
	}()
}

// Close shuts every connection down, stops heartbeats and waits for the
// hub's internal goroutines. ServeConn callers return once their conn is
// shut.
func (h *Hub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	close(h.hbStop)
	for c := range h.conns {
		delete(h.conns, c)
		c.shutdown()
	}
	h.mu.Unlock()
	h.wg.Wait()
}
