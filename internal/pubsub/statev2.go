package pubsub

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"ppcd/internal/codec"
	"ppcd/internal/core"
	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
	"ppcd/internal/policy"
)

// The state codec: the per-section encodings the segmented state
// (statev2_segments.go) is written in. A cache segment holds one bucket of
// the three cache sections, the meta segment the stamp, the membership
// versions, the group-universe lengths and the diff bases. All integers are
// big-endian; strings and byte fields are uint32-length-prefixed. Decoding
// applies the wire-style hardening budget: every count is clamped, every
// field element must arrive reduced, duplicates are rejected, and cumulative
// header material is charged against a budget the segments of one import
// share.
//
//	stamp:      u64 epoch | u64 gen
//	memVer:     u32 n { str policyID, u64 ver }
//	cfgCache:   u32 n { str id, 32 bytes sig, header, u64 key }
//	shardCache: u32 n { str id, 32 bytes sig, header, u64 key }
//	grpCache:   u32 n { str id, bytes nonce,
//	                    u32 shards { u8 kind(0), str shardID, u64 wrap },
//	                    u64 key }
//	lastPub:    u32 n { str doc, broadcast, u32 digests { str subdoc, 32 bytes } }
//
// where header = u32 |X| { u64 elem } seed — the core.SeedSize bytes that name
// the header's nonce run; its N = |X| − 1 nonces are their expansion — and
// broadcast is the epoch-stamped package with per-config revisions;
// a configuration header inside it is encoded as a reference into the cache
// sections whenever the cache holds its solve (the normal case). A grouped
// entry has no signature: its slots name the shards whose solves it holds.
// Slot kind 1, an inline sub-header, is retired: the cache exports only
// entries whose every slot holds the shard cache's solve.

// maxStateHeaderBudget bounds the cumulative decoded size of all cached and
// broadcast headers (plus the per-group state the meta segment declares) in
// one segmented import.
const maxStateHeaderBudget = 256 << 20

// maxStateIDLen caps cache and configuration IDs (a configuration key joins
// policy IDs and grows with the policy count, far beyond a single condition
// ID).
const maxStateIDLen = 1 << 24

// Errors returned by the state codec.
var (
	errStateTruncated = errors.New("pubsub: truncated state")
	errStateOversize  = errors.New("pubsub: state length field exceeds limits")
)

// stateErr maps the shared codec sentinels (internal/codec, where the
// bounded-decode primitives live) onto this package's pinned state errors.
func stateErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, codec.ErrTruncated):
		return errStateTruncated
	case errors.Is(err, codec.ErrOversize):
		return errStateOversize
	}
	return err
}

// stateWriter and stateReader adapt the shared internal/codec primitives to
// the state codec's limits: every u32 is clamped to maxStateBytes, every
// count to maxStateCount, and header-sized allocations are charged against a
// codec.Budget that parallel segment decodes share.
type stateWriter struct {
	w   codec.Writer
	err error // the first header the format cannot hold (writeStateHeader)
}

func (w *stateWriter) u8(v byte)      { w.w.U8(v) }
func (w *stateWriter) u32(v int)      { w.w.U32(v) }
func (w *stateWriter) u64(v uint64)   { w.w.U64(v) }
func (w *stateWriter) bytes(p []byte) { w.w.Bytes(p) }
func (w *stateWriter) str(s string)   { w.w.Str(s) }
func (w *stateWriter) raw(p []byte)   { w.w.Raw(p) }
func (w *stateWriter) out() []byte    { return w.w.Out() }

type stateReader struct {
	r *codec.Reader
}

// newStateReader wraps data with the shared allocation budget (nil-safe:
// a nil budget is unlimited — only tests use that).
func newStateReader(data []byte, budget *codec.Budget) *stateReader {
	return &stateReader{r: codec.NewReader(data, budget)}
}

func (r *stateReader) u8() (byte, error) {
	v, err := r.r.U8()
	return v, stateErr(err)
}

func (r *stateReader) u32() (int, error) {
	v, err := r.r.Len(maxStateBytes)
	return v, stateErr(err)
}

// count reads a u32 clamped to the generic element-count limit.
func (r *stateReader) count() (int, error) {
	v, err := r.r.Len(maxStateCount)
	return v, stateErr(err)
}

// items reads a count of elements that take at least minSize input bytes
// each. A count the rest of the input cannot hold is truncation, so nothing
// sized by it outgrows the input.
func (r *stateReader) items(minSize int) (int, error) {
	n, err := r.count()
	if err == nil && n*minSize > r.r.Remaining() {
		err = errStateTruncated
	}
	return n, err
}

func (r *stateReader) u64() (uint64, error) {
	v, err := r.r.U64()
	return v, stateErr(err)
}

func (r *stateReader) bytes() ([]byte, error) {
	v, err := r.r.Bytes(maxStateBytes)
	return v, stateErr(err)
}

func (r *stateReader) str(maxLen int) (string, error) {
	s, err := r.r.Str(maxLen)
	return s, stateErr(err)
}

// take returns the next n input bytes (borrowed; callers copy what they keep).
func (r *stateReader) take(n int) ([]byte, error) {
	b, err := r.r.Take(n)
	return b, stateErr(err)
}

// charge draws n bytes from the shared allocation budget.
func (r *stateReader) charge(n int) error {
	if err := r.r.Charge(n); err != nil {
		return errStateOversize
	}
	return nil
}

func (r *stateReader) done() error {
	if n := r.r.Remaining(); n != 0 {
		return fmt.Errorf("pubsub: state has %d trailing bytes", n)
	}
	return nil
}

func (r *stateReader) elem() (ff64.Elem, error) {
	raw, err := r.u64()
	if err != nil {
		return 0, err
	}
	if raw >= ff64.Modulus {
		return 0, errors.New("pubsub: state field element not reduced")
	}
	return ff64.Elem(raw), nil
}

// writeStateHeader encodes a header as X and the seed of its nonce run. Every
// header the engine builds has one; any other fails the export.
func writeStateHeader(w *stateWriter, h *core.Header) {
	if !h.Seeded() && w.err == nil {
		w.err = errors.New("pubsub: state cannot hold a header without a nonce seed")
	}
	w.u32(len(h.X))
	for _, e := range h.X {
		w.u64(uint64(e))
	}
	w.raw(h.Seed)
}

// readStateHeader decodes a header to what it rests as, X and the seed:
// restoring a cache expands nothing.
func readStateHeader(r *stateReader) (*core.Header, error) {
	nx, err := r.count()
	if err != nil {
		return nil, err
	}
	if nx == 0 {
		return nil, errors.New("pubsub: state header shape |X|=0")
	}
	if 8*nx > r.r.Remaining() {
		return nil, errStateTruncated
	}
	if err := r.charge(8 * nx); err != nil {
		return nil, err
	}
	x := make(linalg.Vector, nx)
	for i := range x {
		if x[i], err = r.elem(); err != nil {
			return nil, err
		}
	}
	seed, err := r.take(core.SeedSize)
	if err != nil {
		return nil, err
	}
	return &core.Header{X: x, Seed: bytes.Clone(seed)}, nil
}

// Grouped cache slot kinds: a reference into the shard cache, and the retired
// inline sub-header.
const (
	stShardRef    = 0
	stShardInline = 1
)

// Broadcast configuration header encodings inside lastPub.
const (
	stCfgNone       = 0 // inaccessible configuration
	stCfgInline     = 1 // inline single header
	stCfgRef        = 2 // reference into the ungrouped config cache
	stCfgGroupedIn  = 3 // inline grouped header
	stCfgGroupedRef = 4 // reference into the grouped config cache
)

// writeStateStamp encodes the epoch counter and the incarnation generation,
// and returns the diff bases read under the same lock.
func (p *Publisher) writeStateStamp(w *stateWriter) map[string]*lastBroadcast {
	p.pubMu.Lock()
	defer p.pubMu.Unlock()
	w.u64(p.epoch)
	w.u64(p.gen)
	last := make(map[string]*lastBroadcast, len(p.lastPub))
	for name, lb := range p.lastPub {
		last[name] = lb
	}
	return last
}

func readStateStamp(r *stateReader) (epoch, gen uint64, err error) {
	if epoch, err = r.u64(); err != nil {
		return 0, 0, err
	}
	if gen, err = r.u64(); err != nil {
		return 0, 0, err
	}
	if gen == 0 {
		return 0, 0, errors.New("pubsub: state has zero generation")
	}
	return epoch, gen, nil
}

// writeStateVersions encodes the per-policy membership versions.
func writeStateVersions(w *stateWriter, memVer map[string]uint64) {
	ids := sortedKeys(memVer)
	w.u32(len(ids))
	for _, id := range ids {
		w.str(id)
		w.u64(memVer[id])
	}
}

func readStateVersions(r *stateReader) (map[string]uint64, error) {
	n, err := r.items(4 + 8)
	if err != nil {
		return nil, err
	}
	memVer := make(map[string]uint64, n)
	for i := 0; i < n; i++ {
		id, err := r.str(maxStateCondLen)
		if err != nil {
			return nil, err
		}
		if memVer[id], err = r.u64(); err != nil {
			return nil, err
		}
	}
	return memVer, nil
}

// writeStateCaches encodes entries of the engine's three cache levels (the
// cfgCache, shardCache and grpCache sections of the layout above), one hash
// bucket's worth in a cache segment.
func writeStateCaches(w *stateWriter, cfgs []core.CachedConfig, shards []core.CachedShard, grouped []core.CachedGrouped) {
	w.u32(len(cfgs))
	for _, c := range cfgs {
		w.str(c.ID)
		w.raw(c.Sig[:])
		writeStateHeader(w, c.Hdr)
		w.u64(uint64(c.Key))
	}
	w.u32(len(shards))
	for _, s := range shards {
		w.str(s.ID)
		w.raw(s.Sig[:])
		writeStateHeader(w, s.Hdr)
		w.u64(uint64(s.Key))
	}
	w.u32(len(grouped))
	for _, g := range grouped {
		w.str(g.ID)
		w.bytes(g.RekeyNonce)
		w.u32(len(g.Shards))
		for _, sh := range g.Shards {
			w.u8(stShardRef)
			w.str(sh.ShardID)
			w.u64(uint64(sh.Wrap))
		}
		w.u64(uint64(g.Key))
	}
}

// readStateCaches decodes what writeStateCaches wrote. Grouped shard
// references stay unresolved: they may point into another bucket.
func readStateCaches(r *stateReader) (cfgs []core.CachedConfig, shards []core.CachedShard, grouped []core.CachedGrouped, err error) {
	n, err := r.count()
	if err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < n; i++ {
		var c core.CachedConfig
		if c.ID, c.Sig, c.Hdr, c.Key, err = readStateCacheEntry(r); err != nil {
			return nil, nil, nil, err
		}
		cfgs = append(cfgs, c)
	}
	if n, err = r.count(); err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < n; i++ {
		var s core.CachedShard
		if s.ID, s.Sig, s.Hdr, s.Key, err = readStateCacheEntry(r); err != nil {
			return nil, nil, nil, err
		}
		shards = append(shards, s)
	}
	if n, err = r.count(); err != nil {
		return nil, nil, nil, err
	}
	for i := 0; i < n; i++ {
		var g core.CachedGrouped
		if g.ID, err = r.str(maxStateIDLen); err != nil {
			return nil, nil, nil, err
		}
		if g.RekeyNonce, err = r.bytes(); err != nil {
			return nil, nil, nil, err
		}
		if len(g.RekeyNonce) != core.NonceSize {
			return nil, nil, nil, fmt.Errorf("pubsub: state rekey nonce of %d bytes, want %d", len(g.RekeyNonce), core.NonceSize)
		}
		ns, err := r.items(1 + 4 + 8)
		if err != nil {
			return nil, nil, nil, err
		}
		g.Shards = make([]core.CachedGroupedShard, ns)
		for j := range g.Shards {
			sh := &g.Shards[j]
			kind, err := r.u8()
			if err != nil {
				return nil, nil, nil, err
			}
			switch kind {
			case stShardRef:
			case stShardInline:
				return nil, nil, nil, errors.New("pubsub: state holds an inline grouped sub-header, a retired slot kind")
			default:
				return nil, nil, nil, fmt.Errorf("pubsub: bad state shard kind %d", kind)
			}
			if sh.ShardID, err = r.str(maxStateIDLen); err != nil {
				return nil, nil, nil, err
			}
			if sh.ShardID == "" {
				return nil, nil, nil, errors.New("pubsub: state shard reference is empty")
			}
			if sh.Wrap, err = r.elem(); err != nil {
				return nil, nil, nil, err
			}
		}
		if g.Key, err = r.elem(); err != nil {
			return nil, nil, nil, err
		}
		grouped = append(grouped, g)
	}
	return cfgs, shards, grouped, nil
}

// readStateCacheEntry decodes the common shape of a configuration and a shard
// cache entry.
func readStateCacheEntry(r *stateReader) (id string, sig core.Sig, hdr *core.Header, key ff64.Elem, err error) {
	if id, err = r.str(maxStateIDLen); err != nil {
		return
	}
	if err = stateErr(r.r.Fill(sig[:])); err != nil {
		return
	}
	if hdr, err = readStateHeader(r); err != nil {
		return
	}
	key, err = r.elem()
	return
}

// writeStateBases encodes the per-document diff bases (the lastPub section).
// A configuration header whose solve the engine cache also holds is written
// as a reference into it, found by name.
func writeStateBases(w *stateWriter, last map[string]*lastBroadcast, cfgs []core.CachedConfig, grouped []core.CachedGrouped) {
	cfgByName := make(map[uint64]string, len(cfgs))
	for i := range cfgs {
		cfgByName[cfgs[i].Hdr.Name()] = cfgs[i].ID
	}
	grpByName := make(map[uint64]string, len(grouped))
	for i := range grouped {
		grpByName[grouped[i].Name()] = grouped[i].ID
	}
	docs := sortedKeys(last)
	w.u32(len(docs))
	for _, name := range docs {
		lb := last[name]
		w.str(name)
		writeStateBroadcast(w, lb.b, cfgByName, grpByName)
		subdocs := sortedKeys(lb.digests)
		w.u32(len(subdocs))
		for _, sd := range subdocs {
			w.str(sd)
			d := lb.digests[sd]
			w.raw(d[:])
		}
	}
}

// readStateBases decodes the diff bases of a state of generation gen, their
// header references resolved against the decoded caches.
func readStateBases(r *stateReader, gen uint64, refs *cacheRefs) (map[string]*lastBroadcast, error) {
	n, err := r.items(4 + (4 + 8 + 8 + 3*4) + 4) // key, an empty broadcast, no digests
	if err != nil {
		return nil, err
	}
	last := make(map[string]*lastBroadcast, n)
	for i := 0; i < n; i++ {
		name, err := r.str(maxStateCondLen)
		if err != nil {
			return nil, err
		}
		if _, dup := last[name]; dup {
			return nil, fmt.Errorf("pubsub: state contains duplicate document %q", name)
		}
		b, err := readStateBroadcast(r, refs)
		if err != nil {
			return nil, err
		}
		if b.DocName != name {
			return nil, fmt.Errorf("pubsub: state diff base keyed %q holds document %q", name, b.DocName)
		}
		if b.Gen != gen {
			return nil, fmt.Errorf("pubsub: state diff base %q carries foreign generation", name)
		}
		nd, err := r.items(4 + 32)
		if err != nil {
			return nil, err
		}
		digests := make(map[string][32]byte, nd)
		for j := 0; j < nd; j++ {
			sd, err := r.str(maxStateCondLen)
			if err != nil {
				return nil, err
			}
			raw, err := r.take(32)
			if err != nil {
				return nil, err
			}
			digests[sd] = [32]byte(raw)
		}
		last[name] = &lastBroadcast{b: b, digests: digests}
	}
	return last, nil
}

func writeStateBroadcast(w *stateWriter, b *Broadcast, cfgByName, grpByName map[uint64]string) {
	w.str(b.DocName)
	w.u64(b.Epoch)
	w.u64(b.Gen)
	w.u32(len(b.Policies))
	for _, pi := range b.Policies {
		w.str(pi.ID)
		w.u32(len(pi.CondIDs))
		for _, c := range pi.CondIDs {
			w.str(c)
		}
	}
	w.u32(len(b.Configs))
	for i := range b.Configs {
		ci := &b.Configs[i]
		w.str(string(ci.Key))
		w.u64(ci.Rev)
		switch {
		case ci.Grouped != nil:
			if id, ok := grpByName[ci.Grouped.Name()]; ok {
				w.u8(stCfgGroupedRef)
				w.str(id)
			} else {
				w.u8(stCfgGroupedIn)
				w.bytes(ci.Grouped.RekeyNonce)
				w.u32(len(ci.Grouped.Shards))
				for _, sh := range ci.Grouped.Shards {
					writeStateHeader(w, sh.Hdr)
					w.u64(uint64(sh.Wrap))
				}
			}
			w.u32(len(ci.ShardRevs))
			for _, rv := range ci.ShardRevs {
				w.u64(rv)
			}
		case ci.Header != nil:
			if id, ok := cfgByName[ci.Header.Name()]; ok {
				w.u8(stCfgRef)
				w.str(id)
			} else {
				w.u8(stCfgInline)
				writeStateHeader(w, ci.Header)
			}
		default:
			w.u8(stCfgNone)
		}
	}
	w.u32(len(b.Items))
	for i := range b.Items {
		it := &b.Items[i]
		w.str(it.Subdoc)
		w.str(string(it.Config))
		w.bytes(it.Ciphertext)
		w.u64(it.Rev)
	}
}

// decodedState is a decoded durable state ready to install, less table T and
// the group states, which the segmented import rebuilds in place.
type decodedState struct {
	epoch, gen  uint64
	memVer      map[string]uint64
	grpUniverse map[string]int // per-policy group-universe length
	cfgs        []core.CachedConfig
	shards      []core.CachedShard
	grouped     []core.CachedGrouped
	last        map[string]*lastBroadcast
	dropped     bool
}

// installState installs a decoded state into the publisher; restoreReg
// installs the registry's share.
func (p *Publisher) installState(st *decodedState, restoreReg func()) error {
	if err := p.keys.engine.RestoreCache(st.cfgs, st.shards, st.grouped); err != nil {
		return err
	}
	restoreReg()
	if st.dropped {
		// The policy set changed since export: restored caches may encode
		// memberships that no longer hold. Dirty everything.
		p.reg.bumpAll()
	}
	p.pubMu.Lock()
	p.epoch = st.epoch
	p.gen = st.gen
	p.lastPub = st.last
	p.pubMu.Unlock()
	return nil
}

// cacheRefs resolves the diff bases' references into the decoded cache
// sections: a configuration's to its cached header, a grouped one's to a
// header assembled over the decoded shard headers.
type cacheRefs struct {
	cfgs    map[string]*core.Header
	shards  map[string]*core.Header
	grouped map[string]*core.CachedGrouped
}

func newCacheRefs(cfgs []core.CachedConfig, shards []core.CachedShard, grouped []core.CachedGrouped) *cacheRefs {
	refs := &cacheRefs{
		cfgs:    make(map[string]*core.Header, len(cfgs)),
		shards:  make(map[string]*core.Header, len(shards)),
		grouped: make(map[string]*core.CachedGrouped, len(grouped)),
	}
	for _, c := range cfgs {
		refs.cfgs[c.ID] = c.Hdr
	}
	for _, s := range shards {
		refs.shards[s.ID] = s.Hdr
	}
	for i := range grouped {
		refs.grouped[grouped[i].ID] = &grouped[i]
	}
	return refs
}

func (refs *cacheRefs) shard(id string) (*core.Header, bool) {
	h, ok := refs.shards[id]
	return h, ok
}

func readStateBroadcast(r *stateReader, refs *cacheRefs) (*Broadcast, error) {
	b := &Broadcast{}
	var err error
	if b.DocName, err = r.str(maxStateCondLen); err != nil {
		return nil, err
	}
	if b.Epoch, err = r.u64(); err != nil {
		return nil, err
	}
	if b.Gen, err = r.u64(); err != nil {
		return nil, err
	}
	np, err := r.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < np; i++ {
		var pi PolicyInfo
		if pi.ID, err = r.str(maxStateCondLen); err != nil {
			return nil, err
		}
		nc, err := r.count()
		if err != nil {
			return nil, err
		}
		for j := 0; j < nc; j++ {
			c, err := r.str(maxStateCondLen)
			if err != nil {
				return nil, err
			}
			pi.CondIDs = append(pi.CondIDs, c)
		}
		b.Policies = append(b.Policies, pi)
	}
	ncfg, err := r.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < ncfg; i++ {
		var ci ConfigInfo
		key, err := r.str(maxStateIDLen)
		if err != nil {
			return nil, err
		}
		ci.Key = policy.ConfigKey(key)
		if ci.Rev, err = r.u64(); err != nil {
			return nil, err
		}
		kind, err := r.u8()
		if err != nil {
			return nil, err
		}
		switch kind {
		case stCfgNone:
		case stCfgInline:
			if ci.Header, err = readStateHeader(r); err != nil {
				return nil, err
			}
		case stCfgRef:
			id, err := r.str(maxStateIDLen)
			if err != nil {
				return nil, err
			}
			h, ok := refs.cfgs[id]
			if !ok {
				return nil, fmt.Errorf("pubsub: state broadcast references unknown configuration %q", id)
			}
			ci.Header = h
		case stCfgGroupedIn, stCfgGroupedRef:
			if kind == stCfgGroupedRef {
				id, err := r.str(maxStateIDLen)
				if err != nil {
					return nil, err
				}
				g, ok := refs.grouped[id]
				if !ok {
					return nil, fmt.Errorf("pubsub: state broadcast references unknown grouped configuration %q", id)
				}
				if ci.Grouped, err = g.Header(refs.shard); err != nil {
					return nil, err
				}
			} else {
				nonce, err := r.bytes()
				if err != nil {
					return nil, err
				}
				if len(nonce) != core.NonceSize {
					return nil, fmt.Errorf("pubsub: state rekey nonce of %d bytes, want %d", len(nonce), core.NonceSize)
				}
				ns, err := r.items(4 + 8 + core.SeedSize + 8) // a one-element X and its wrap
				if err != nil {
					return nil, err
				}
				g := &core.GroupedHeader{RekeyNonce: nonce, Shards: make([]core.GroupShard, ns)}
				for j := 0; j < ns; j++ {
					h, err := readStateHeader(r)
					if err != nil {
						return nil, err
					}
					wrap, err := r.elem()
					if err != nil {
						return nil, err
					}
					g.Shards[j] = core.GroupShard{Hdr: h, Wrap: wrap}
				}
				ci.Grouped = g
			}
			nr, err := r.count()
			if err != nil {
				return nil, err
			}
			if nr != len(ci.Grouped.Shards) {
				return nil, fmt.Errorf("pubsub: state has %d shard revisions for %d shards", nr, len(ci.Grouped.Shards))
			}
			ci.ShardRevs = make([]uint64, nr)
			for j := range ci.ShardRevs {
				if ci.ShardRevs[j], err = r.u64(); err != nil {
					return nil, err
				}
			}
		default:
			return nil, fmt.Errorf("pubsub: bad state config kind %d", kind)
		}
		b.Configs = append(b.Configs, ci)
	}
	ni, err := r.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < ni; i++ {
		var it Item
		if it.Subdoc, err = r.str(maxStateCondLen); err != nil {
			return nil, err
		}
		cfg, err := r.str(maxStateIDLen)
		if err != nil {
			return nil, err
		}
		it.Config = policy.ConfigKey(cfg)
		if it.Ciphertext, err = r.bytes(); err != nil {
			return nil, err
		}
		if it.Rev, err = r.u64(); err != nil {
			return nil, err
		}
		b.Items = append(b.Items, it)
	}
	return b, nil
}

// sortedKeys returns a map's keys in sorted order (deterministic encoding).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
