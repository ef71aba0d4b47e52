// Package fanout is the shared dissemination edge used by both the origin
// transport server and the relay tier: a bounded retention ring of recent
// epochs (the delta wire frame marshaled once, the snapshot frame on first
// demand and kept for a document's newest epoch alone) and a fan-out hub
// that re-serves those frames to any number of downstream subscriber
// connections.
//
// The hot path is engineered for large fan-out degrees: every frame is a
// single immutable length-prefixed buffer shared by reference across all
// downstream queues (zero per-subscriber copies), buffers are pooled and
// refcounted so a broadcast wakes N writers without N allocations, each
// connection has a bounded queue with write deadlines and slow-consumer
// eviction, and writers batch queued frames into one vectored write.
package fanout

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Frame is one immutable wire frame, length-prefixed for the stream
// protocol. The payload bytes are copied exactly once — into a pooled buffer
// at acquire time — and the frame is then shared by reference across every
// downstream queue; the buffer returns to the pool when the last holder
// releases it. Offering a frame to N connections therefore performs zero
// per-connection copies and zero per-connection allocations.
type Frame struct {
	buf  []byte // 4-byte big-endian payload length, then the payload
	refs atomic.Int32
}

var framePool = sync.Pool{New: func() any { return new(Frame) }}

// NewFrame acquires a frame holding the given payload with a reference
// count of one. Callers release their reference with Release once every
// Offer has been issued.
func NewFrame(payload []byte) *Frame { return framePool.Get().(*Frame).set(payload) }

// heldFrame is NewFrame for a ring entry's snapshot, whose reference is never
// released: the buffer is exactly the frame's size and never enters framePool
// (a fetch may still be encoding it after the entry is superseded).
func heldFrame(payload []byte) *Frame { return new(Frame).set(payload) }

func (f *Frame) set(payload []byte) *Frame {
	need := 4 + len(payload)
	if cap(f.buf) < need {
		f.buf = make([]byte, need)
	}
	f.buf = f.buf[:need]
	binary.BigEndian.PutUint32(f.buf[:4], uint32(len(payload)))
	copy(f.buf[4:], payload)
	f.refs.Store(1)
	return f
}

// Payload returns the frame bytes without the length prefix. The slice
// aliases the pooled buffer: valid only while the caller holds a reference.
func (f *Frame) Payload() []byte { return f.buf[4:] }

// WireLen is the on-the-wire size of the frame (prefix + payload).
func (f *Frame) WireLen() int { return len(f.buf) }

// Ref takes an additional reference.
func (f *Frame) Ref() { f.refs.Add(1) }

// Release drops one reference; the last release returns the buffer to the
// pool for the next NewFrame.
func (f *Frame) Release() {
	if f.refs.Add(-1) == 0 {
		framePool.Put(f)
	}
}
