// Stream frames: the units of the epoch-versioned dissemination pipeline —
// full snapshots stamped with epoch and revisions, deltas that ship only
// what changed since a base epoch, and heartbeats. A frame is marshalled
// once per epoch and the same bytes fan out to every connected subscriber.
//
// A header's nonces are not written with the header. §VIII-D shares one
// nonce sequence across a rekey session, so the k same-session shards of a
// frame use prefixes of one run; a data frame therefore opens with a table
// of its distinct nonce runs and every header body is its X plus an index
// into that table. A run is the expansion of a seed (core.ExpandNonces), and
// its table entry is that seed:
//
//	frame   = version(6) ‖ type ‖ runs ‖ snapshot | delta      (heartbeat: version ‖ type ‖ epoch)
//	runs    = count ‖ per run: n ‖ seededRun ‖ seed             (40 bytes)
//	header  = |X| ‖ X… ‖ run index                              (N = |X| − 1; no index when N = 0)
//
// A grouped configuration in a delta ships its rekey nonce and every wrap,
// and for its shards only what the subscriber's base does not already say:
//
//	patch     = nonce ‖ n ‖ n × wrap ‖ m ‖ m × exception           (indices increasing)
//	exception = index ‖ base index                                 (a kept shard that moved)
//	          | index ‖ fromFresh ‖ header                         (re-solved at the delta's epoch)
//	          | index ‖ fromFreshAt ‖ revision ‖ header            (re-solved earlier: a catch-up)
//
// A shard no exception names keeps the base's shard at its own index, and
// with it the base's revision; a shard shipped at the delta's epoch has that
// epoch for revision. Apply derives both, so a patch carries neither, and a
// reference to the same index is never written.
//
// Nothing here expands a seed. A header rests as X and the seed
// (core.Header), the table is collected from seeds and lengths, and a
// decoded header is its X plus the one copy of the seed its run's entry
// decoded to: a relay, which decodes, diffs and re-marshals and never
// hashes, never pays the AES, and a subscriber pays it in core.KEV, on a
// KEV-cache miss.
//
// A seed is the one run form: a header of N > 0 carries one, and the decoder
// refuses a run whose marker is not seededRun.
//
// A frame has one encoding: runs appear in the order the headers first use
// them, each exactly as long as its longest header, none a duplicate of
// another. The decoder re-collects the table from the headers it decoded
// and rejects a frame whose table differs, so an accepted frame re-marshals
// byte-identically.
//
// Decoding is hardened: every count, length and reference is clamped before
// use — a run's length by the X entries its longest header still has to
// bring. A run allocates its 32-byte seed whatever length it claims; 8·|X|
// per header is charged against the per-message 64 MiB budget, and field
// elements must arrive reduced.
package wire

import (
	"errors"
	"fmt"
	"sync"

	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/policy"
	"ppcd/internal/pubsub"
)

// VersionStream marks epoch-versioned stream frames (snapshot | delta |
// heartbeat). There is exactly one frame version: a delta frame rests in
// every WAL publish record, and the store names its format by its own magic.
const VersionStream = 6

// versionRevPatch is the frame version whose grouped patches carried every
// shard's revision and base index; it has no reader.
const versionRevPatch = 5

// FrameType discriminates the stream frame kinds.
type FrameType byte

const (
	// FrameSnapshot carries a complete epoch-stamped broadcast.
	FrameSnapshot FrameType = 1
	// FrameDelta carries a BroadcastDelta between two epochs.
	FrameDelta FrameType = 2
	// FrameHeartbeat carries only the server's current epoch (liveness).
	FrameHeartbeat FrameType = 3
)

// Frame is one decoded stream frame. Exactly one of Snapshot/Delta is
// non-nil for data frames; Epoch is always set (the snapshot's or delta's
// target epoch, or the heartbeat epoch).
type Frame struct {
	Type     FrameType
	Epoch    uint64
	Snapshot *pubsub.Broadcast
	Delta    *pubsub.BroadcastDelta
}

// maxDeltaShards clamps the shard count of one grouped patch, mirroring
// maxGroupShards of a grouped header.
const maxDeltaShards = maxGroupShards

// fromFresh and fromFreshAt are the on-wire sentinels of an exception that
// ships a sub-header instead of referencing a base shard: re-solved at the
// delta's epoch, or at the revision that follows.
const (
	fromFresh   = ^uint32(0)
	fromFreshAt = fromFresh - 1
)

// maxFrameRuns clamps the run count of one frame's table. A run is used by
// at least one header, so it sits at the per-message config and shard clamps.
const maxFrameRuns = 1 << 20

// seededRun in a run's marker field names the run by its seed: core.SeedSize
// bytes follow, and the nonces are their expansion. It is the only marker a
// decoder accepts.
const seededRun = ^uint32(0) - 1

// frameRun is one run of a frame's table: the seed that names it, and how
// many of its nonces its longest header uses.
type frameRun struct {
	seed []byte
	n    int
}

// runTable collects the distinct nonce runs of one frame's headers, in the
// order the headers first use them. It is built from the headers alone, by
// marshalFrame and again by the decoder, which is what makes the table
// canonical.
type runTable struct {
	runs  []frameRun
	index map[[core.SeedSize]byte]int // the run of each seed
	refs  []uint32                    // the run of every header with nonces, in frame order
	next  int                         // the reference writeFrameHeader writes next
}

// add returns the run of a header of N > 0: the run of its seed, lengthened
// to N if it is the longest header of it yet, or a new one. No nonce is
// looked at. Such a header without a seed has no nonces to ship, and building
// one is a programming error: add panics, as core.ExpandNonces does for a bad
// seed.
func (t *runTable) add(h *core.Header) int {
	if !h.Seeded() {
		panic(fmt.Sprintf("wire: header of N=%d without a nonce seed", h.N()))
	}
	key := [core.SeedSize]byte(h.Seed)
	if i, ok := t.index[key]; ok {
		t.runs[i].n = max(t.runs[i].n, h.N())
		return i
	}
	if t.index == nil {
		t.index = make(map[[core.SeedSize]byte]int)
	}
	t.runs = append(t.runs, frameRun{seed: h.Seed, n: h.N()})
	t.index[key] = len(t.runs) - 1
	return len(t.runs) - 1
}

func (t *runTable) write(w *writer) {
	w.u32(uint32(len(t.runs)))
	for _, run := range t.runs {
		w.u32(uint32(run.n))
		w.u32(seededRun)
		w.w.Raw(run.seed)
	}
}

// readRunTable decodes the frame's runs, each to its seed and its length;
// nothing is expanded here, whatever length a run claims. The table is not
// presized: it grows with the runs the input brings, so a count the input
// does not back costs nothing.
func readRunTable(r *reader) error {
	nr, err := r.count(maxFrameRuns)
	if err != nil {
		return err
	}
	r.runs = nil
	// Every run is as long as its longest header, and no two runs share that
	// header: the n + 1 X entries it still has to bring bound n, summed over
	// the runs read so far, by the input that remains.
	owed := 0
	for i := 0; i < nr; i++ {
		n, err := r.count((r.r.Remaining() - owed) / 8)
		if err != nil {
			return err
		}
		if n == 0 {
			return fmt.Errorf("wire: nonce run %d is empty", i)
		}
		owed += 8 * (n + 1)
		marker, err := r.u32()
		if err != nil {
			return err
		}
		if marker != seededRun {
			return fmt.Errorf("wire: nonce run %d has marker %#x, not a seed's", i, marker)
		}
		seed, err := r.r.Take(core.SeedSize)
		if err != nil {
			return fmt.Errorf("wire: nonce run %d: %w", i, wireErr(err))
		}
		r.runs = append(r.runs, frameRun{seed: append([]byte(nil), seed...), n: n})
	}
	return nil
}

// checkRunTable holds a decoded frame to the one table its headers produce:
// every header's reference already matched the re-collected table as it was
// read, so what is left is a run nobody used or used to its full length.
func checkRunTable(r *reader) error {
	if len(r.check.runs) != len(r.runs) {
		return fmt.Errorf("wire: %d nonce runs for the %d the headers use", len(r.runs), len(r.check.runs))
	}
	for i, run := range r.runs {
		if r.check.runs[i].n != run.n {
			return fmt.Errorf("wire: nonce run %d has %d nonces, its longest header %d", i, run.n, r.check.runs[i].n)
		}
	}
	return nil
}

// readTabled decodes the body of a data frame between its run table and the
// check that the table is the one the body's headers produce.
func readTabled[T any](r *reader, body func(*reader) (*T, error)) (*T, error) {
	if err := readRunTable(r); err != nil {
		return nil, err
	}
	v, err := body(r)
	if err != nil {
		return nil, err
	}
	return v, checkRunTable(r)
}

// writeFrameHeader encodes a header inside a frame: X and the index of its
// nonce run, which marshalFrame assigned in the same frame order.
func writeFrameHeader(w *writer, h *core.Header) {
	w.vec(h.X)
	if h.N() > 0 {
		w.u32(w.runs.refs[w.runs.next])
		w.runs.next++
	}
}

// readFrameHeader decodes a header inside a frame: X, and for its N = |X| − 1
// nonces the seed of the referenced run. 8·|X| is charged against the message
// budget.
func readFrameHeader(r *reader) (*core.Header, error) {
	x, err := readX(r)
	if err != nil {
		return nil, err
	}
	if len(x) == 0 {
		return nil, errors.New("wire: header shape |X|=0")
	}
	if err := r.takeHeaderBudget(8 * len(x)); err != nil {
		return nil, err
	}
	h := &core.Header{X: x}
	n := len(x) - 1
	if n == 0 {
		return h, nil
	}
	i, err := r.count(len(r.runs) - 1)
	if err != nil {
		return nil, err
	}
	run := &r.runs[i]
	if n > run.n {
		return nil, fmt.Errorf("wire: header of N=%d references a run of %d nonces", n, run.n)
	}
	h.Seed = run.seed
	if r.check.add(h) != i {
		return nil, fmt.Errorf("wire: header references nonce run %d out of canonical order", i)
	}
	return h, nil
}

// frameEncoder is what a data frame is marshalled in: the writer with its
// buffer and the run table. Both grow by doubling and would be garbage after
// every frame — at the origin and again at every relay — so they are pooled,
// and a marshal allocates the frame it returns and the list of its headers.
type frameEncoder struct {
	w    writer
	runs runTable
}

var frameEncoders = sync.Pool{New: func() any { return new(frameEncoder) }}

// maxPooledFrame is the largest buffer an encoder takes back to the pool: a
// million-row snapshot's tens of megabytes are not kept for the next delta.
const maxPooledFrame = 1 << 20

// marshalFrame encodes a data frame: one walk over its headers, in the order
// body encodes them, collects the run table and every header's reference;
// then the table and the body are written. The frame is returned in a buffer
// of exactly its size — the retention rings keep these frames, and the
// writer's buffer, grown by doubling, would pin up to twice the frame.
func marshalFrame(t FrameType, headers []*core.Header, body func(*writer)) []byte {
	e := frameEncoders.Get().(*frameEncoder)
	e.w.runs = &e.runs
	for _, h := range headers {
		if h.N() > 0 {
			e.runs.refs = append(e.runs.refs, uint32(e.runs.add(h)))
		}
	}
	e.w.u8(VersionStream)
	e.w.u8(byte(t))
	e.runs.write(&e.w)
	body(&e.w)
	out := make([]byte, e.w.w.Len())
	copy(out, e.w.out())
	if e.w.w.Cap() <= maxPooledFrame {
		e.w.w.Reset()
		clear(e.runs.runs) // the seeds belong to the headers
		clear(e.runs.index)
		e.runs = runTable{runs: e.runs.runs[:0], index: e.runs.index, refs: e.runs.refs[:0]}
		frameEncoders.Put(e)
	}
	return out
}

// snapshotHeaders lists a snapshot's headers in the order writeSnapshot
// encodes them.
func snapshotHeaders(b *pubsub.Broadcast) (hs []*core.Header) {
	for _, ci := range b.Configs {
		switch {
		case ci.Grouped != nil:
			for _, sh := range ci.Grouped.Shards {
				hs = append(hs, sh.Hdr)
			}
		case ci.Header != nil:
			hs = append(hs, ci.Header)
		}
	}
	return hs
}

// deltaHeaders lists a delta's headers in the order writeDelta encodes them.
func deltaHeaders(d *pubsub.BroadcastDelta) (hs []*core.Header) {
	for _, cp := range d.Configs {
		switch {
		case cp.Grouped != nil:
			hs = append(hs, cp.Grouped.Headers...)
		case cp.Header != nil:
			hs = append(hs, cp.Header)
		}
	}
	return hs
}

// MarshalSnapshotFrame encodes a broadcast as a snapshot frame, revisions
// included.
func MarshalSnapshotFrame(b *pubsub.Broadcast) []byte {
	return marshalFrame(FrameSnapshot, snapshotHeaders(b), func(w *writer) { writeSnapshot(w, b) })
}

// MarshalDeltaFrame encodes a broadcast delta as a delta frame.
func MarshalDeltaFrame(d *pubsub.BroadcastDelta) []byte {
	return marshalFrame(FrameDelta, deltaHeaders(d), func(w *writer) { writeDelta(w, d) })
}

// MarshalHeartbeatFrame encodes a heartbeat frame for the given epoch.
func MarshalHeartbeatFrame(epoch uint64) []byte {
	var w writer
	w.u8(VersionStream)
	w.u8(byte(FrameHeartbeat))
	w.u64(epoch)
	return w.out()
}

// UnmarshalFrame decodes one stream frame.
func UnmarshalFrame(data []byte) (*Frame, error) {
	r := newReader(data)
	v, err := r.u8()
	if err != nil {
		return nil, err
	}
	if v == versionRevPatch {
		return nil, fmt.Errorf("%w: stream frame version %d has no reader (its grouped patches carry every shard's revision)", ErrBadVersion, v)
	}
	if v != VersionStream {
		return nil, ErrBadVersion
	}
	t, err := r.u8()
	if err != nil {
		return nil, err
	}
	f := &Frame{Type: FrameType(t)}
	switch f.Type {
	case FrameSnapshot:
		if f.Snapshot, err = readTabled(r, readSnapshot); err != nil {
			return nil, err
		}
		f.Epoch = f.Snapshot.Epoch
	case FrameDelta:
		if f.Delta, err = readTabled(r, readDelta); err != nil {
			return nil, err
		}
		f.Epoch = f.Delta.Epoch
	case FrameHeartbeat:
		if f.Epoch, err = r.u64(); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", t)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return f, nil
}

func writePolicies(w *writer, ps []pubsub.PolicyInfo) {
	w.u32(uint32(len(ps)))
	for _, pi := range ps {
		w.str(pi.ID)
		w.u32(uint32(len(pi.CondIDs)))
		for _, c := range pi.CondIDs {
			w.str(c)
		}
	}
}

func readPolicies(r *reader) ([]pubsub.PolicyInfo, error) {
	np, err := r.u32()
	if err != nil {
		return nil, err
	}
	if np > 1<<20 {
		return nil, ErrOversize
	}
	var out []pubsub.PolicyInfo
	for i := uint32(0); i < np; i++ {
		var pi pubsub.PolicyInfo
		if pi.ID, err = r.str(); err != nil {
			return nil, err
		}
		nc, err := r.u32()
		if err != nil {
			return nil, err
		}
		if nc > 1<<20 {
			return nil, ErrOversize
		}
		for j := uint32(0); j < nc; j++ {
			c, err := r.str()
			if err != nil {
				return nil, err
			}
			pi.CondIDs = append(pi.CondIDs, c)
		}
		out = append(out, pi)
	}
	return out, nil
}

// writeGroupedFrame encodes a grouped header plus its parallel shard
// revisions.
func writeGroupedFrame(w *writer, g *core.GroupedHeader, revs []uint64) {
	w.bytes(g.RekeyNonce)
	w.u32(uint32(len(g.Shards)))
	for _, sh := range g.Shards {
		writeFrameHeader(w, sh.Hdr)
		w.u64(uint64(sh.Wrap))
	}
	w.u32(uint32(len(revs)))
	for _, rv := range revs {
		w.u64(rv)
	}
}

// readGroupedFrame decodes a grouped header and its shard revisions with the
// hardened clamps: shard count bounded, every sub-header well-shaped
// (readFrameHeader charges it against the message budget), wraps reduced,
// one revision per shard.
func readGroupedFrame(r *reader) (*core.GroupedHeader, []uint64, error) {
	nonce, err := r.bytes()
	if err != nil {
		return nil, nil, err
	}
	if len(nonce) != core.NonceSize {
		return nil, nil, fmt.Errorf("wire: grouped rekey nonce of %d bytes, want %d", len(nonce), core.NonceSize)
	}
	ns, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	if ns == 0 || ns > maxGroupShards {
		return nil, nil, ErrOversize
	}
	// A shard is at least |X|, one X entry and its wrap.
	g := &core.GroupedHeader{RekeyNonce: nonce, Shards: make([]core.GroupShard, 0, r.presize(ns, 4+8+8))}
	for i := uint32(0); i < ns; i++ {
		h, err := readFrameHeader(r)
		if err != nil {
			return nil, nil, err
		}
		raw, err := r.u64()
		if err != nil {
			return nil, nil, err
		}
		if raw >= ff64.Modulus {
			return nil, nil, fmt.Errorf("wire: shard %d wrap not a reduced field element", i)
		}
		g.Shards = append(g.Shards, core.GroupShard{Hdr: h, Wrap: ff64.Elem(raw)})
	}
	nr, err := r.u32()
	if err != nil {
		return nil, nil, err
	}
	if int(nr) != len(g.Shards) {
		return nil, nil, fmt.Errorf("wire: %d shard revisions for %d shards", nr, len(g.Shards))
	}
	revs := make([]uint64, nr)
	for i := range revs {
		if revs[i], err = r.u64(); err != nil {
			return nil, nil, err
		}
	}
	return g, revs, nil
}

func writeItem(w *writer, it *pubsub.Item) {
	w.str(it.Subdoc)
	w.str(string(it.Config))
	w.bytes(it.Ciphertext)
	w.u64(it.Rev)
}

func readItem(r *reader) (pubsub.Item, error) {
	var it pubsub.Item
	var err error
	if it.Subdoc, err = r.str(); err != nil {
		return it, err
	}
	cfg, err := r.str()
	if err != nil {
		return it, err
	}
	it.Config = policy.ConfigKey(cfg)
	if it.Ciphertext, err = r.bytes(); err != nil {
		return it, err
	}
	if it.Rev, err = r.u64(); err != nil {
		return it, err
	}
	return it, nil
}

func writeSnapshot(w *writer, b *pubsub.Broadcast) {
	w.str(b.DocName)
	w.u64(b.Epoch)
	w.u64(b.Gen)
	writePolicies(w, b.Policies)
	w.u32(uint32(len(b.Configs)))
	for _, ci := range b.Configs {
		w.str(string(ci.Key))
		w.u64(ci.Rev)
		switch {
		case ci.Grouped != nil:
			w.u8(2)
			writeGroupedFrame(w, ci.Grouped, ci.ShardRevs)
		case ci.Header != nil:
			w.u8(1)
			writeFrameHeader(w, ci.Header)
		default:
			w.u8(0)
		}
	}
	w.u32(uint32(len(b.Items)))
	for i := range b.Items {
		writeItem(w, &b.Items[i])
	}
}

func readSnapshot(r *reader) (*pubsub.Broadcast, error) {
	b := &pubsub.Broadcast{}
	var err error
	if b.DocName, err = r.str(); err != nil {
		return nil, err
	}
	if b.Epoch, err = r.u64(); err != nil {
		return nil, err
	}
	if b.Gen, err = r.u64(); err != nil {
		return nil, err
	}
	if b.Policies, err = readPolicies(r); err != nil {
		return nil, err
	}
	ncfg, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ncfg > 1<<20 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < ncfg; i++ {
		var ci pubsub.ConfigInfo
		key, err := r.str()
		if err != nil {
			return nil, err
		}
		ci.Key = policy.ConfigKey(key)
		if ci.Rev, err = r.u64(); err != nil {
			return nil, err
		}
		has, err := r.u8()
		if err != nil {
			return nil, err
		}
		switch has {
		case 0:
		case 1:
			if ci.Header, err = readFrameHeader(r); err != nil {
				return nil, err
			}
		case 2:
			if ci.Grouped, ci.ShardRevs, err = readGroupedFrame(r); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wire: bad header presence byte %d", has)
		}
		b.Configs = append(b.Configs, ci)
	}
	ni, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ni > 1<<20 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < ni; i++ {
		it, err := readItem(r)
		if err != nil {
			return nil, err
		}
		b.Items = append(b.Items, it)
	}
	return b, nil
}

func writeDelta(w *writer, d *pubsub.BroadcastDelta) {
	w.str(d.DocName)
	w.u64(d.BaseEpoch)
	w.u64(d.Epoch)
	w.u64(d.Gen)
	if d.PoliciesChanged {
		w.u8(1)
		writePolicies(w, d.Policies)
	} else {
		w.u8(0)
	}
	w.u32(uint32(len(d.Configs)))
	for _, cp := range d.Configs {
		w.str(string(cp.Key))
		w.u64(cp.Rev)
		switch {
		case cp.Grouped != nil:
			w.u8(2)
			writeGroupedPatch(w, cp.Grouped, d.Epoch)
		case cp.Header != nil:
			w.u8(1)
			writeFrameHeader(w, cp.Header)
		default:
			w.u8(0)
		}
	}
	w.u32(uint32(len(d.RemovedConfigs)))
	for _, k := range d.RemovedConfigs {
		w.str(string(k))
	}
	w.u32(uint32(len(d.Items)))
	for i := range d.Items {
		writeItem(w, &d.Items[i])
	}
	w.u32(uint32(len(d.RemovedItems)))
	for _, name := range d.RemovedItems {
		w.str(name)
	}
}

func writeGroupedPatch(w *writer, p *pubsub.GroupedPatch, epoch uint64) {
	w.bytes(p.RekeyNonce)
	w.u32(uint32(len(p.From)))
	exceptions := 0
	for i, from := range p.From {
		w.u64(uint64(p.Wraps[i]))
		if from != i {
			exceptions++
		}
	}
	w.u32(uint32(exceptions))
	next := 0
	for i, from := range p.From {
		if from == i {
			continue
		}
		w.u32(uint32(i))
		if from >= 0 {
			w.u32(uint32(from))
			continue
		}
		if rev := p.Revs[next]; rev == epoch {
			w.u32(fromFresh)
		} else {
			w.u32(fromFreshAt)
			w.u64(rev)
		}
		writeFrameHeader(w, p.Headers[next])
		next++
	}
}

func readDelta(r *reader) (*pubsub.BroadcastDelta, error) {
	d := &pubsub.BroadcastDelta{}
	var err error
	if d.DocName, err = r.str(); err != nil {
		return nil, err
	}
	if d.BaseEpoch, err = r.u64(); err != nil {
		return nil, err
	}
	if d.Epoch, err = r.u64(); err != nil {
		return nil, err
	}
	if d.Gen, err = r.u64(); err != nil {
		return nil, err
	}
	pc, err := r.u8()
	if err != nil {
		return nil, err
	}
	switch pc {
	case 0:
	case 1:
		d.PoliciesChanged = true
		if d.Policies, err = readPolicies(r); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("wire: bad policies-changed byte %d", pc)
	}
	ncfg, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ncfg > 1<<20 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < ncfg; i++ {
		var cp pubsub.ConfigPatch
		key, err := r.str()
		if err != nil {
			return nil, err
		}
		cp.Key = policy.ConfigKey(key)
		if cp.Rev, err = r.u64(); err != nil {
			return nil, err
		}
		kind, err := r.u8()
		if err != nil {
			return nil, err
		}
		switch kind {
		case 0:
		case 1:
			if cp.Header, err = readFrameHeader(r); err != nil {
				return nil, err
			}
		case 2:
			if cp.Grouped, err = readGroupedPatch(r, d.Epoch); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wire: bad config patch kind %d", kind)
		}
		d.Configs = append(d.Configs, cp)
	}
	nrm, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nrm > 1<<20 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < nrm; i++ {
		k, err := r.str()
		if err != nil {
			return nil, err
		}
		d.RemovedConfigs = append(d.RemovedConfigs, policy.ConfigKey(k))
	}
	ni, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ni > 1<<20 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < ni; i++ {
		it, err := readItem(r)
		if err != nil {
			return nil, err
		}
		d.Items = append(d.Items, it)
	}
	nri, err := r.u32()
	if err != nil {
		return nil, err
	}
	if nri > 1<<20 {
		return nil, ErrOversize
	}
	for i := uint32(0); i < nri; i++ {
		name, err := r.str()
		if err != nil {
			return nil, err
		}
		d.RemovedItems = append(d.RemovedItems, name)
	}
	return d, nil
}

// readGroupedPatch decodes one grouped config patch of a delta to epoch with
// the hardened clamps: shard count bounded, wraps reduced, exceptions at
// increasing indices below the shard count, each a base index other than its
// own or a sub-header (readFrameHeader charges it against the message's
// header budget) whose revision, when written, is below the epoch — a
// canonical patch writes the epoch as fromFresh.
func readGroupedPatch(r *reader, epoch uint64) (*pubsub.GroupedPatch, error) {
	p := &pubsub.GroupedPatch{}
	var err error
	if p.RekeyNonce, err = r.bytes(); err != nil {
		return nil, err
	}
	if len(p.RekeyNonce) != core.NonceSize {
		return nil, fmt.Errorf("wire: grouped patch rekey nonce of %d bytes, want %d", len(p.RekeyNonce), core.NonceSize)
	}
	ns, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ns == 0 || ns > maxDeltaShards {
		return nil, ErrOversize
	}
	p.Wraps = make([]ff64.Elem, 0, r.presize(ns, 8))
	for i := uint32(0); i < ns; i++ {
		raw, err := r.u64()
		if err != nil {
			return nil, err
		}
		if raw >= ff64.Modulus {
			return nil, fmt.Errorf("wire: patch shard %d wrap not a reduced field element", i)
		}
		p.Wraps = append(p.Wraps, ff64.Elem(raw))
	}
	// The wraps are read: the shard count is backed by input.
	p.From = make([]int, ns)
	for i := range p.From {
		p.From[i] = i
	}
	m, err := r.count(int(ns))
	if err != nil {
		return nil, err
	}
	prev := -1
	for k := 0; k < m; k++ {
		i, err := r.count(int(ns) - 1)
		if err != nil {
			return nil, err
		}
		if i <= prev {
			return nil, fmt.Errorf("wire: patch exception for shard %d after shard %d", i, prev)
		}
		prev = i
		from, err := r.u32()
		if err != nil {
			return nil, err
		}
		if from != fromFresh && from != fromFreshAt {
			switch {
			case from > maxGroupShards:
				return nil, ErrOversize
			case int(from) == i:
				return nil, fmt.Errorf("wire: patch shard %d references its own base index", i)
			}
			p.From[i] = int(from)
			continue
		}
		rev := epoch
		if from == fromFreshAt {
			if rev, err = r.u64(); err != nil {
				return nil, err
			}
			if rev >= epoch {
				return nil, fmt.Errorf("wire: patch shard %d re-solved at %d, not before the delta's epoch %d", i, rev, epoch)
			}
		}
		h, err := readFrameHeader(r)
		if err != nil {
			return nil, err
		}
		p.From[i] = -1
		p.Headers = append(p.Headers, h)
		p.Revs = append(p.Revs, rev)
	}
	return p, nil
}
