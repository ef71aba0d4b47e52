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

// State v2 binary format: the full durable publisher state. All integers are
// big-endian; strings and byte fields are uint32-length-prefixed. Decoding
// applies the wire-style hardening budget: every count is clamped, every
// field element must arrive reduced, duplicate pseudonyms are rejected, and
// cumulative header material is charged against a fixed budget.
//
// Layout after the magic:
//
//	u64 epoch | u64 gen
//	table:     u32 n { str nym, u32 cells { str cond, u64 css } }
//	memVer:    u32 n { str policyID, u64 ver }
//	grouping:  u32 n { str policyID, u32 groups, u32 members { str nym, u32 gid } }
//	cfgCache:  u32 n { str id, str sig, header, u64 key }
//	shardCache:u32 n { str id, str sig, header, u64 key }
//	grpCache:  u32 n { str id, str sig, bytes nonce,
//	                   u32 shards { u8 kind(0 ref|1 inline), str shardID | header, u64 wrap },
//	                   u64 key }
//	lastPub:   u32 n { str doc, broadcast, u32 digests { str subdoc, 32 bytes } }
//
// where header = u32 |X| { u64 elem } seed — the core.SeedSize bytes that name
// the header's nonce run; its N = |X| − 1 nonces are their expansion — and
// broadcast is the epoch-stamped package with per-config revisions;
// configuration headers inside it are encoded as references into the cache
// sections whenever the live objects are shared (the normal case),
// re-establishing the pointer sharing the delta layer's change detection
// relies on.

// stateMagic prefixes v2 state blobs: "PPCDST" and the blob version. Version
// 3 stores a header's seed where version 2 stored its nonces; there is no
// reader for version 2.
var stateMagic = []byte{'P', 'P', 'C', 'D', 'S', 'T', stateBlobVersion}

const stateBlobVersion = 3

// maxStateHeaderBudget bounds the cumulative decoded size of all cached and
// broadcast headers (plus the per-policy group-count lists) in one state
// blob.
const maxStateHeaderBudget = 256 << 20

// maxStateSigLen caps cache IDs and signatures (configuration keys join
// policy IDs, grouped signatures concatenate per-shard digests — both grow
// with the policy/shard count, far beyond a single condition ID).
const maxStateSigLen = 1 << 24

// Errors returned by the v2 state codec.
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
// the v2 state format's limits: every u32 is clamped to maxStateBytes, every
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

// Broadcast configuration header encodings inside lastPub.
const (
	stCfgNone       = 0 // inaccessible configuration
	stCfgInline     = 1 // inline single header
	stCfgRef        = 2 // reference into the ungrouped config cache
	stCfgGroupedIn  = 3 // inline grouped header
	stCfgGroupedRef = 4 // reference into the grouped config cache
)

func (p *Publisher) exportStateV2() ([]byte, error) {
	reg := p.reg.exportFull()
	cfgs, shards, grouped := p.keys.engine.ExportCache()
	// Deterministic output: identical state always encodes to identical
	// bytes (tests pin the round trip; operators can diff sealed states by
	// re-sealing).
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].ID < cfgs[j].ID })
	sort.Slice(shards, func(i, j int) bool { return shards[i].ID < shards[j].ID })
	sort.Slice(grouped, func(i, j int) bool { return grouped[i].ID < grouped[j].ID })

	w := &stateWriter{}
	w.raw(stateMagic)
	last := p.writeStateStamp(w)

	// Table T, in sorted order for deterministic output.
	nyms := sortedKeys(reg.table)
	w.u32(len(nyms))
	for _, nym := range nyms {
		w.str(nym)
		row := reg.table[nym]
		conds := sortedKeys(row)
		w.u32(len(conds))
		for _, cond := range conds {
			w.str(cond)
			w.u64(uint64(row[cond]))
		}
	}

	writeStateVersions(w, reg.memVer)

	// Sticky group assignments.
	ids := sortedKeys(reg.grpAssign)
	w.u32(len(ids))
	for _, id := range ids {
		w.str(id)
		w.u32(reg.grpGroups[id])
		members := sortedKeys(reg.grpAssign[id])
		w.u32(len(members))
		for _, nym := range members {
			w.str(nym)
			w.u32(reg.grpAssign[id][nym])
		}
	}

	writeStateCaches(w, cfgs, shards, grouped)
	writeStateBases(w, last, cfgs, grouped)
	return w.out(), w.err
}

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
	n, err := r.count()
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
// cfgCache, shardCache and grpCache sections of the layout above) — all of
// them in the monolithic blob, one hash bucket's worth in a cache segment.
func writeStateCaches(w *stateWriter, cfgs []core.CachedConfig, shards []core.CachedShard, grouped []core.CachedGrouped) {
	w.u32(len(cfgs))
	for _, c := range cfgs {
		w.str(c.ID)
		w.str(c.Sig)
		writeStateHeader(w, c.Hdr)
		w.u64(uint64(c.Key))
	}
	w.u32(len(shards))
	for _, s := range shards {
		w.str(s.ID)
		w.str(s.Sig)
		writeStateHeader(w, s.Hdr)
		w.u64(uint64(s.Key))
	}
	w.u32(len(grouped))
	for _, g := range grouped {
		w.str(g.ID)
		w.str(g.Sig)
		w.bytes(g.RekeyNonce)
		w.u32(len(g.Shards))
		for _, sh := range g.Shards {
			if sh.ShardID != "" {
				w.u8(0)
				w.str(sh.ShardID)
			} else {
				w.u8(1)
				writeStateHeader(w, sh.Hdr)
			}
			w.u64(uint64(sh.Wrap))
		}
		w.u64(uint64(g.Key))
	}
}

// readStateCaches decodes what writeStateCaches wrote. Grouped shard
// references stay unresolved (restoreCacheHeaders): in a segmented state
// they may point into another bucket.
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
		if g.ID, err = r.str(maxStateSigLen); err != nil {
			return nil, nil, nil, err
		}
		if g.Sig, err = r.str(maxStateSigLen); err != nil {
			return nil, nil, nil, err
		}
		if g.RekeyNonce, err = r.bytes(); err != nil {
			return nil, nil, nil, err
		}
		if len(g.RekeyNonce) != core.NonceSize {
			return nil, nil, nil, fmt.Errorf("pubsub: state rekey nonce of %d bytes, want %d", len(g.RekeyNonce), core.NonceSize)
		}
		ns, err := r.count()
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
			case 0:
				if sh.ShardID, err = r.str(maxStateSigLen); err != nil {
					return nil, nil, nil, err
				}
				if sh.ShardID == "" {
					return nil, nil, nil, errors.New("pubsub: state shard reference is empty")
				}
			case 1:
				if sh.Hdr, err = readStateHeader(r); err != nil {
					return nil, nil, nil, err
				}
			default:
				return nil, nil, nil, fmt.Errorf("pubsub: bad state shard kind %d", kind)
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
func readStateCacheEntry(r *stateReader) (id, sig string, hdr *core.Header, key ff64.Elem, err error) {
	if id, err = r.str(maxStateSigLen); err != nil {
		return
	}
	if sig, err = r.str(maxStateSigLen); err != nil {
		return
	}
	if hdr, err = readStateHeader(r); err != nil {
		return
	}
	key, err = r.elem()
	return
}

// writeStateBases encodes the per-document diff bases (the lastPub section).
// Configuration headers the engine cache also holds are written as references
// into it, which is what re-establishes the pointer sharing on import.
func writeStateBases(w *stateWriter, last map[string]*lastBroadcast, cfgs []core.CachedConfig, grouped []core.CachedGrouped) {
	cfgByHdr := make(map[*core.Header]string, len(cfgs))
	for i := range cfgs {
		cfgByHdr[cfgs[i].Hdr] = cfgs[i].ID
	}
	grpIDByPtr := make(map[*core.GroupedHeader]string, len(grouped))
	for i := range grouped {
		grpIDByPtr[grouped[i].Hdr] = grouped[i].ID
	}
	docs := sortedKeys(last)
	w.u32(len(docs))
	for _, name := range docs {
		lb := last[name]
		w.str(name)
		writeStateBroadcast(w, lb.b, cfgByHdr, grpIDByPtr)
		subdocs := sortedKeys(lb.digests)
		w.u32(len(subdocs))
		for _, sd := range subdocs {
			w.str(sd)
			d := lb.digests[sd]
			w.raw(d[:])
		}
	}
}

// readStateBases decodes the diff bases of a state of generation gen. Header
// references resolve against the decoded caches, so the restored broadcasts
// share objects with the restored engine exactly like the live ones did —
// which is what keeps the first post-restart publish pointer-identical
// (revisions carry forward, deltas stay small).
func readStateBases(r *stateReader, gen uint64, cfgHdrByID map[string]*core.Header, grpByID map[string]*core.GroupedHeader) (map[string]*lastBroadcast, error) {
	n, err := r.count()
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
		b, err := readStateBroadcast(r, cfgHdrByID, grpByID)
		if err != nil {
			return nil, err
		}
		if b.DocName != name {
			return nil, fmt.Errorf("pubsub: state diff base keyed %q holds document %q", name, b.DocName)
		}
		if b.Gen != gen {
			return nil, fmt.Errorf("pubsub: state diff base %q carries foreign generation", name)
		}
		nd, err := r.count()
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

func writeStateBroadcast(w *stateWriter, b *Broadcast, cfgByHdr map[*core.Header]string, grpIDByPtr map[*core.GroupedHeader]string) {
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
			if id, ok := grpIDByPtr[ci.Grouped]; ok {
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
			if id, ok := cfgByHdr[ci.Header]; ok {
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

func (p *Publisher) importStateV2(data []byte) error {
	r := newStateReader(data[len(stateMagic):], codec.NewBudget(maxStateHeaderBudget))

	epoch, gen, err := readStateStamp(r)
	if err != nil {
		return err
	}

	// Table T, with the same stale-column filtering as v1 plus duplicate-nym
	// rejection. Dropping anything means the policy set changed since export,
	// so the restored caches may cover memberships that no longer hold; every
	// policy is then marked dirty (conservative full re-solve).
	n, err := r.count()
	if err != nil {
		return err
	}
	dropped := false
	table := make(map[string]map[string]core.CSS, n)
	for i := 0; i < n; i++ {
		nym, err := r.str(maxStateNymLen)
		if err != nil {
			return err
		}
		if err := validateStateNym(nym); err != nil {
			return err
		}
		if _, dup := table[nym]; dup {
			return fmt.Errorf("pubsub: state contains duplicate pseudonym %q", nym)
		}
		nc, err := r.count()
		if err != nil {
			return err
		}
		if nc > maxStateRowCells {
			return errStateOversize
		}
		row := make(map[string]core.CSS, nc)
		for j := 0; j < nc; j++ {
			cond, err := r.str(maxStateCondLen)
			if err != nil {
				return err
			}
			css, err := r.u64()
			if err != nil {
				return err
			}
			if css == 0 || css >= ff64.Modulus {
				return fmt.Errorf("pubsub: state contains invalid CSS for (%q, %q)", nym, cond)
			}
			if _, known := p.condByID[cond]; !known {
				dropped = true
				continue
			}
			row[cond] = core.CSS(css)
		}
		if len(row) > 0 {
			table[nym] = row
		} else {
			dropped = true
		}
	}

	memVer, err := readStateVersions(r)
	if err != nil {
		return err
	}

	// Sticky group assignments.
	n, err = r.count()
	if err != nil {
		return err
	}
	grpAssign := make(map[string]map[string]int, n)
	grpGroups := make(map[string]int, n)
	for i := 0; i < n; i++ {
		id, err := r.str(maxStateCondLen)
		if err != nil {
			return err
		}
		groups, err := r.count()
		if err != nil {
			return err
		}
		// The group-count list is the one allocation here not naturally
		// bounded by input length (a policy legitimately keeps empty groups
		// after revocations, so groups may exceed members) — charge it
		// against the shared budget so a crafted blob cannot amplify a few
		// bytes into gigabytes of retained slices.
		if err := r.charge(8 * groups); err != nil {
			return err
		}
		members, err := r.count()
		if err != nil {
			return err
		}
		assign := make(map[string]int, members)
		for j := 0; j < members; j++ {
			nym, err := r.str(maxStateNymLen)
			if err != nil {
				return err
			}
			gid, err := r.u32()
			if err != nil {
				return err
			}
			if gid >= groups {
				return fmt.Errorf("pubsub: state assigns %q to group %d of %d", nym, gid, groups)
			}
			if _, dup := assign[nym]; dup {
				return fmt.Errorf("pubsub: state assigns %q twice in policy %q", nym, id)
			}
			assign[nym] = gid
		}
		// Occupancy is recomputed from the assignments rather than trusted,
		// preserving the fill invariant; only the number of groups (which
		// fixes future group numbering) is taken as stored.
		grpAssign[id] = assign
		grpGroups[id] = groups
	}

	cfgs, shards, grouped, err := readStateCaches(r)
	if err != nil {
		return err
	}
	cfgHdrByID, restoredGrp, err := restoreCacheHeaders(cfgs, shards, grouped)
	if err != nil {
		return err
	}
	last, err := readStateBases(r, gen, cfgHdrByID, restoredGrp)
	if err != nil {
		return err
	}
	if err := r.done(); err != nil {
		return err
	}

	st := &decodedState{
		epoch: epoch, gen: gen, memVer: memVer,
		cfgs: cfgs, shards: shards, grouped: grouped,
		restoredGrp: restoredGrp, last: last, dropped: dropped,
	}
	return p.installState(st, func() {
		p.reg.restore(registryState{table: table, memVer: memVer, grpAssign: grpAssign, grpGroups: grpGroups})
	})
}

// decodedState is a decoded durable state ready to install, less table T and
// the group assignment — the convergence point of the monolithic v2 blob
// (which hands those over as a registryState) and the segmented import (which
// rebuilds them in place).
type decodedState struct {
	epoch, gen  uint64
	memVer      map[string]uint64
	grpUniverse map[string]int // segmented import only: per-policy group-universe length
	cfgs        []core.CachedConfig
	shards      []core.CachedShard
	grouped     []core.CachedGrouped
	restoredGrp map[string]*core.GroupedHeader
	last        map[string]*lastBroadcast
	dropped     bool
}

// installState installs a decoded state into the publisher; restoreReg
// installs the registry's share. The grouped cache entries carry the
// pre-resolved header objects, so the engine shares them with the restored
// diff bases (pointer identity = delta-small publishes).
func (p *Publisher) installState(st *decodedState, restoreReg func()) error {
	for i := range st.grouped {
		st.grouped[i].Hdr = st.restoredGrp[st.grouped[i].ID]
	}
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

// restoreCacheHeaders indexes the decoded configuration headers by ID and
// rebuilds the grouped cache's live header objects, resolving shard references
// against the decoded shard cache so the pointers are shared.
func restoreCacheHeaders(cfgs []core.CachedConfig, shards []core.CachedShard, grouped []core.CachedGrouped) (map[string]*core.Header, map[string]*core.GroupedHeader, error) {
	cfgHdrByID := make(map[string]*core.Header, len(cfgs))
	for _, c := range cfgs {
		cfgHdrByID[c.ID] = c.Hdr
	}
	byID := make(map[string]*core.Header, len(shards))
	for _, s := range shards {
		byID[s.ID] = s.Hdr
	}
	out := make(map[string]*core.GroupedHeader, len(grouped))
	for _, g := range grouped {
		hdr := &core.GroupedHeader{RekeyNonce: g.RekeyNonce, Shards: make([]core.GroupShard, len(g.Shards))}
		for i, sh := range g.Shards {
			h := sh.Hdr
			if sh.ShardID != "" {
				var ok bool
				if h, ok = byID[sh.ShardID]; !ok {
					return nil, nil, fmt.Errorf("pubsub: state configuration %q references unknown shard %q", g.ID, sh.ShardID)
				}
			}
			hdr.Shards[i] = core.GroupShard{Hdr: h, Wrap: sh.Wrap}
		}
		out[g.ID] = hdr
	}
	return cfgHdrByID, out, nil
}

func readStateBroadcast(r *stateReader, cfgHdrByID map[string]*core.Header, grpByID map[string]*core.GroupedHeader) (*Broadcast, error) {
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
		key, err := r.str(maxStateSigLen)
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
			id, err := r.str(maxStateSigLen)
			if err != nil {
				return nil, err
			}
			h, ok := cfgHdrByID[id]
			if !ok {
				return nil, fmt.Errorf("pubsub: state broadcast references unknown configuration %q", id)
			}
			ci.Header = h
		case stCfgGroupedIn, stCfgGroupedRef:
			if kind == stCfgGroupedRef {
				id, err := r.str(maxStateSigLen)
				if err != nil {
					return nil, err
				}
				g, ok := grpByID[id]
				if !ok {
					return nil, fmt.Errorf("pubsub: state broadcast references unknown grouped configuration %q", id)
				}
				ci.Grouped = g
			} else {
				nonce, err := r.bytes()
				if err != nil {
					return nil, err
				}
				if len(nonce) != core.NonceSize {
					return nil, fmt.Errorf("pubsub: state rekey nonce of %d bytes, want %d", len(nonce), core.NonceSize)
				}
				ns, err := r.count()
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
		cfg, err := r.str(maxStateSigLen)
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
