// The bounded epoch retention ring, extracted from internal/transport so
// the origin server and the relay tier share one implementation. Each entry
// keeps the decoded broadcast; a document's newest entry also keeps the
// delta frame against the previous retained epoch of the document, marshaled
// once, and a per-base cache of catch-up deltas so a reconnect storm diffs
// each (base, target) pair once. The snapshot frame is built on first
// demand, once per epoch. An older entry keeps only what a diff reads of its
// broadcast (pubsub.Broadcast.DiffBase), as the base a catch-up to the newest
// is diffed from: current streams consume deltas.
package fanout

import (
	"sync"
	"sync/atomic"

	"ppcd/internal/pubsub"
	"ppcd/internal/wire"
)

// DefaultRetention is the number of recent epochs kept for fetch serving
// and delta catch-ups.
const DefaultRetention = 8

// snapshot is one epoch's snapshot frame, built on first demand and shared
// by every joiner, out-of-window reconnect, fetch and off-base recipient. Its
// own lock lets a fetch marshal outside the hub's; order Hub.mu → snapshot.mu.
type snapshot struct {
	b     *pubsub.Broadcast
	built *atomic.Int64 // the ring's count of frames marshaled here

	mu  sync.Mutex
	raw []byte // the frame as the caller of add already held it, until wrapped
	f   *Frame
}

// frame returns the shared frame, the bytes of wire.MarshalSnapshotFrame(b).
// Callers borrow the entry's reference (see heldFrame); offer takes its own.
func (s *snapshot) frame() *Frame {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		raw := s.raw
		if raw == nil {
			raw = wire.MarshalSnapshotFrame(s.b)
			s.built.Add(1)
		}
		s.f, s.raw = heldFrame(raw), nil
	}
	return s.f
}

// held is the number of snapshot bytes the entry pins right now.
func (s *snapshot) held() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		return len(s.f.Payload())
	}
	return len(s.raw)
}

// entry is one retained epoch. Guarded by the owning hub's mutex.
type entry struct {
	epoch uint64
	doc   string
	// b is the broadcast, cut down to its DiffBase once a newer epoch of the
	// document is retained.
	b *pubsub.Broadcast
	// snap, delta and catchup are nil once a newer epoch of the document is
	// retained: only the newest entry is ever served, so a ring holds one
	// snapshot frame and one delta frame per document.
	snap *snapshot
	// delta is the delta frame against the previous retained epoch of the
	// same document (nil for the first), with prevEpoch naming that base.
	delta     []byte
	prevEpoch uint64
	// catchup caches marshaled delta frames for older retained bases
	// (keyed by base epoch), so a reconnect storm after a blip computes
	// each diff once instead of once per subscriber.
	catchup map[uint64][]byte
}

// ring is the bounded retention ring plus the names-only memory of every
// document ever published (so a fetch for a rotated-out document is served
// with the nearest retained snapshot while an unknown name stays an error).
// Not safe for concurrent use; the owning hub serializes access.
type ring struct {
	retain  int
	entries []*entry
	docs    map[string]bool
	built   atomic.Int64 // snapshot frames marshaled by this ring's entries
}

func newRing(retain int) *ring {
	if retain < 1 {
		retain = 1
	}
	return &ring{retain: retain, docs: make(map[string]bool)}
}

// add retains a broadcast. rawSnapshot and rawDelta are optional
// pre-marshaled frames (a relay passes the bytes it received upstream, the
// origin passes nil): a nil snapshot is marshaled when first asked for, a
// nil delta is diffed against the newest retained epoch of the same document.
// deltaBase names rawDelta's base epoch and is ignored when rawDelta is nil.
func (r *ring) add(b *pubsub.Broadcast, rawSnapshot, rawDelta []byte, deltaBase uint64) *entry {
	ent := &entry{epoch: b.Epoch, doc: b.DocName, b: b,
		snap: &snapshot{b: b, built: &r.built, raw: rawSnapshot}}
	prev := r.nearest(b.DocName)
	if prev != nil && prev.doc == b.DocName {
		// Nothing serves prev's frames once it is superseded: publishes send
		// the newest entry's delta and catch-ups target the newest entry. It
		// stays only as the base a catch-up is diffed from, and keeps only
		// what a diff reads of it.
		prev.snap, prev.delta, prev.catchup = nil, nil, nil
		prev.b = prev.b.DiffBase()
	} else {
		prev = nil
	}
	if rawDelta != nil {
		ent.delta, ent.prevEpoch = rawDelta, deltaBase
	} else if prev != nil && prev.epoch < b.Epoch {
		if d, err := pubsub.Diff(prev.b, b); err == nil {
			ent.delta = wire.MarshalDeltaFrame(d)
			ent.prevEpoch = prev.epoch
		}
	}
	r.docs[b.DocName] = true
	r.entries = append(r.entries, ent)
	if len(r.entries) > r.retain {
		// Drop the oldest; the slice is small (retain entries), so the copy
		// is cheap and the backing array does not pin evicted broadcasts.
		r.entries = append(r.entries[:0:0], r.entries[len(r.entries)-r.retain:]...)
	}
	return ent
}

// nearest returns the newest retained epoch for the named document, or —
// when the document rotated out of the bounded ring (or name is "") — the
// newest retained epoch overall. Callers detect the substitution through
// Broadcast.DocName.
func (r *ring) nearest(name string) *entry {
	for i := len(r.entries) - 1; i >= 0; i-- {
		if name == "" || r.entries[i].doc == name {
			return r.entries[i]
		}
	}
	if len(r.entries) > 0 && name != "" {
		return r.entries[len(r.entries)-1]
	}
	return nil
}

// find returns the retained entry for (doc, epoch), nil if it rotated out.
func (r *ring) find(doc string, epoch uint64) *entry {
	for i := len(r.entries) - 1; i >= 0; i-- {
		if r.entries[i].doc == doc && r.entries[i].epoch == epoch {
			return r.entries[i]
		}
	}
	return nil
}

// known reports whether the document was ever published ("" = any).
func (r *ring) known(name string) bool { return name == "" || r.docs[name] }

// latestEpoch is the newest retained epoch overall (0 when empty).
func (r *ring) latestEpoch() uint64 {
	if len(r.entries) == 0 {
		return 0
	}
	return r.entries[len(r.entries)-1].epoch
}

// latest collects the newest retained entry per document matching the
// filter ("" = all).
func (r *ring) latest(docFilter string) map[string]*entry {
	out := make(map[string]*entry)
	for _, ent := range r.entries {
		if docFilter == "" || docFilter == ent.doc {
			out[ent.doc] = ent
		}
	}
	return out
}

// catchup returns the delta frame bytes bringing a subscriber that last
// applied (lastEpoch, lastGen) up to ent; current reports that it needs
// nothing, and a nil delta otherwise that only ent's snapshot will do. The
// delta path is taken only against the exact retained state the subscriber
// holds: same document, same epoch, same publisher generation (a restarted
// publisher renumbers epochs under a fresh generation).
func (r *ring) catchup(ent *entry, lastEpoch, lastGen uint64) (delta []byte, current bool) {
	if lastEpoch == ent.epoch && lastGen == ent.b.Gen {
		return nil, true
	}
	base := r.find(ent.doc, lastEpoch)
	if base == nil || base.epoch >= ent.epoch || base.b.Gen != lastGen {
		return nil, false
	}
	if ent.delta != nil && base.epoch == ent.prevEpoch {
		return ent.delta, false
	}
	if cached, ok := ent.catchup[base.epoch]; ok {
		return cached, false
	}
	d, err := pubsub.Diff(base.b, ent.b)
	if err != nil {
		return nil, false
	}
	raw := wire.MarshalDeltaFrame(d)
	if ent.catchup == nil {
		ent.catchup = make(map[uint64][]byte)
	}
	ent.catchup[base.epoch] = raw
	return raw, false
}
