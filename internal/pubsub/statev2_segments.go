package pubsub

import (
	"errors"
	"fmt"
	"hash/fnv"
	"maps"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"sync/atomic"

	"ppcd/internal/codec"
	"ppcd/internal/core"
	"ppcd/internal/ff64"
)

// Segmented state: the publisher's one durable-state format, split into
// independently sealable segments so a snapshot after churn rewrites only
// what changed and recovery decodes in parallel:
//
//   - TABLE segments cover contiguous columnar slot ranges of table T
//     (columnar.go), laid out as the slab the table already is (layout at
//     encodeTableColumns). Live slots never move — neither under churn
//     (compact only recycles dead slots) nor across a restart (a segment
//     decodes back into the slots its index names) — so the per-slot dirty
//     bitmap the registry maintains maps straight onto "which segments must
//     be rewritten", before and after a recovery. Assignment changes
//     re-dirty the row (grouping.go), so a restored assignment is exact: a
//     segment's gid columns are windows of the live ones (columnar.go), which
//     an import installs. Pseudonym order and index, member slot lists and
//     group signatures are not stored but rebuilt.
//   - CACHE segments partition the engine's exported cache entries into
//     hash buckets by entry ID. Each bucket has an identity digest (over
//     ID, content signature, key material — all of which change on any
//     re-solve); an unchanged digest means the on-disk bucket is still
//     byte-equivalent in meaning and is carried forward unencoded.
//   - One META segment holds everything small: epoch, generation, membership
//     versions, per-policy group-universe lengths, and the per-document diff
//     bases (whose header references resolve into the cache segments).
//
// Segment payloads are plaintext here — internal/store seals each one and
// binds the set together under a manifest, recording content digests at
// write time. A full export is deterministic all the same: the same state
// encodes to the same bytes, before a restart and after it.

// DefaultSegmentSlots is the default table-slot span of one table segment.
// At ~100 B/row a segment is a few hundred KB: small enough that single-row
// churn stays cheap, large enough that a million-row table needs only a few
// hundred files.
const DefaultSegmentSlots = 4096

// segPayloadVersion versions every segment payload independently of the
// store's framing. Version 2 made table segments columnar, version 3 stores a
// cached header's seed where its nonces were, version 4 a signature as its 32
// bytes, and a grouped cache entry without one; there is a reader for no
// earlier version.
const segPayloadVersion = 4

// SegmentGeometry is the shape of one segmented export.
type SegmentGeometry struct {
	SegSlots  int // table slots per table segment
	TableSegs int
	CacheSegs int
}

// SegmentBase identifies the previous DURABLY INSTALLED segmented snapshot.
// The store passes it back into ExportStateSegments so the export can skip
// clean segments; after any failed install the store must discard it (the
// dirty bits consumed by the failed export are gone, so only a full export
// is sound).
type SegmentBase struct {
	Geometry     SegmentGeometry
	TabGen       uint64
	CacheDigests [][32]byte
}

// SegmentExport is one segmented state export. Table and Cache are indexed
// by segment and hold a payload only for the segments that must be
// (re)written — all of them when Full; nil carries the base's segment.
// CacheDigests always covers every bucket (the store records them in the
// manifest for the next export's base).
type SegmentExport struct {
	Geometry     SegmentGeometry
	TabGen       uint64
	Full         bool
	Meta         []byte
	Table        [][]byte
	Cache        [][]byte
	CacheDigests [][32]byte
}

// ExportStateSegments exports the publisher state as segments, rewriting
// only segments dirtied since base (nil base, a geometry change, or a
// wholesale table replacement since base forces a full export). Consuming
// the registry's dirty bitmap is destructive: the caller owns persisting
// every returned segment or falling back to a full export next time.
//
// The returned payloads are SECRET plaintext (CSS cells, configuration keys).
func (p *Publisher) ExportStateSegments(segSlots int, base *SegmentBase) (*SegmentExport, error) {
	if segSlots <= 0 {
		segSlots = DefaultSegmentSlots
	}
	r := p.reg

	cfgs, shards, grouped := p.keys.engine.ExportCache()
	sort.Slice(cfgs, func(i, j int) bool { return cfgs[i].ID < cfgs[j].ID })
	sort.Slice(shards, func(i, j int) bool { return shards[i].ID < shards[j].ID })
	sort.Slice(grouped, func(i, j int) bool { return grouped[i].ID < grouped[j].ID })

	// One hold of the registry write lock reads the table side: the stolen
	// dirty bits, the dirty table segments, the grouped policies with their
	// group-universe lengths, and the membership versions. The stored gid
	// columns are then consistent with the stored universe lengths. Mutations
	// landing after the hold re-accumulate for the next snapshot; the WAL
	// records they journal sit above the store's captured sequence, so replay
	// covers them. Cache buckets are encoded outside the hold, and the epoch
	// and diff bases are read after it (encodeMetaSegment): a publish holds
	// pubMu across its journal ticket while the journal's applies take mu, so
	// waiting for pubMu under mu could deadlock.
	r.mu.Lock()
	tabGen := r.tabGen
	slotsLen := len(r.tab.nyms)
	tableSegs := (slotsLen + segSlots - 1) / segSlots
	full := base == nil ||
		base.TabGen != tabGen ||
		base.Geometry.SegSlots != segSlots ||
		base.Geometry.TableSegs > tableSegs ||
		base.Geometry.CacheSegs <= 0
	// Dirty table segments: every stolen bit's segment, plus any segment
	// range that did not exist at the base (appended slots mark themselves,
	// so this is belt-and-braces for the geometry edge).
	dirty := make([]bool, tableSegs)
	for w, mask := range r.tab.stealDirty() {
		for mask != 0 {
			slot := w*64 + bits.TrailingZeros64(mask)
			mask &= mask - 1
			if slot < slotsLen {
				dirty[slot/segSlots] = true
			}
		}
	}
	polIDs := sortedKeys(r.grp)
	universe := make([]int, len(polIDs))
	for k, pid := range polIDs {
		universe[k] = len(r.grp[pid].counts)
	}
	memVer := maps.Clone(r.memVer)
	table := make([][]byte, tableSegs)
	for seg := range dirty {
		if full || dirty[seg] || seg >= base.Geometry.TableSegs {
			lo := seg * segSlots
			table[seg] = r.encodeTableSegment(lo, min(lo+segSlots, slotsLen), polIDs)
		}
	}
	r.mu.Unlock()

	// Cache bucket geometry is independent of the table carry: when the cache
	// has grown enough to deserve more buckets, re-bucket it inside this
	// otherwise-incremental export (every bucket rewritten once — the base
	// digests are not comparable across a re-partition) rather than pinning
	// the base's count forever. A snapshot taken before the first publish
	// would otherwise lock a near-empty cache's 8 coarse buckets in place and
	// make every later churn snapshot rewrite the whole cache. Shrink keeps
	// the base count: extra small buckets are harmless, and growing only
	// monotonically prevents re-partition flapping around a threshold.
	cacheSegs := cacheBucketCount(len(cfgs) + len(shards) + len(grouped))
	rebucket := full
	if !full {
		if cacheSegs <= base.Geometry.CacheSegs {
			cacheSegs = base.Geometry.CacheSegs
		} else {
			rebucket = true
		}
	}

	exp := &SegmentExport{
		Geometry: SegmentGeometry{SegSlots: segSlots, TableSegs: tableSegs, CacheSegs: cacheSegs},
		TabGen:   tabGen,
		Full:     full,
		Table:    table,
		Cache:    make([][]byte, cacheSegs),
	}

	// Cache buckets: partition deterministically by entry ID, digest each
	// bucket's identity, and re-encode only buckets whose digest moved.
	cfgB, shardB, grpB := partitionCacheEntries(cacheSegs, cfgs, shards, grouped)
	exp.CacheDigests = make([][32]byte, cacheSegs)
	var err error
	for b := 0; b < cacheSegs; b++ {
		exp.CacheDigests[b] = cacheBucketDigest(cfgB[b], shardB[b], grpB[b])
		if !rebucket && b < len(base.CacheDigests) && base.CacheDigests[b] == exp.CacheDigests[b] {
			continue
		}
		if exp.Cache[b], err = encodeCacheBucket(cfgB[b], shardB[b], grpB[b]); err != nil {
			return nil, err
		}
	}

	exp.Meta, err = p.encodeMetaSegment(cfgs, grouped, memVer, polIDs, universe)
	return exp, err
}

// cacheBucketCount picks a power-of-two bucket count targeting ~16 entries
// per bucket, clamped to [8, 1024]. Cached shard builds are kilobytes each,
// so a K-shard churn rewrite costs ~K buckets × 16 entries — a sliver of the
// cache even at a million rows — while 1024 files stays filesystem-friendly.
func cacheBucketCount(entries int) int {
	b := 8
	for b < 1024 && b*16 < entries {
		b <<= 1
	}
	return b
}

// cacheBucketOf maps one entry ID (tagged by kind so the three cache levels
// hash independently) to its bucket.
func cacheBucketOf(kind byte, id string, nbuckets int) int {
	h := fnv.New64a()
	h.Write([]byte{kind})
	h.Write([]byte(id))
	return int(h.Sum64() & uint64(nbuckets-1))
}

func partitionCacheEntries(nbuckets int, cfgs []core.CachedConfig, shards []core.CachedShard, grouped []core.CachedGrouped) (cfgB [][]core.CachedConfig, shardB [][]core.CachedShard, grpB [][]core.CachedGrouped) {
	cfgB = make([][]core.CachedConfig, nbuckets)
	shardB = make([][]core.CachedShard, nbuckets)
	grpB = make([][]core.CachedGrouped, nbuckets)
	for _, c := range cfgs {
		b := cacheBucketOf('C', c.ID, nbuckets)
		cfgB[b] = append(cfgB[b], c)
	}
	for _, sh := range shards {
		b := cacheBucketOf('S', sh.ID, nbuckets)
		shardB[b] = append(shardB[b], sh)
	}
	for _, g := range grouped {
		b := cacheBucketOf('G', g.ID, nbuckets)
		grpB[b] = append(grpB[b], g)
	}
	return
}

// cacheBucketDigest computes one bucket's identity digest. The tuple hashed
// per entry — ID, content signature, key material, rekey nonce, wraps and
// shard references — pins a specific solved build: signatures are content
// digests of the membership and keys/nonces are drawn fresh on every solve,
// so any re-solve (even one reproducing the same signature after a cache
// reset) moves the digest. Ungrouped configuration headers are hashed in
// full — they are few. Shard sub-headers are pinned by (Sig, Key) instead of
// content, which is what keeps this digest pass O(entries), not O(state
// bytes). Digests cover SECRET key material; the
// store persists them only inside the sealed manifest.
func cacheBucketDigest(cfgs []core.CachedConfig, shards []core.CachedShard, grouped []core.CachedGrouped) [32]byte {
	d := newSigHash()
	for i := range cfgs {
		c := &cfgs[i]
		d.num('C')
		d.str(c.ID)
		d.h.Write(c.Sig[:])
		d.num(uint64(c.Key))
		d.num(uint64(len(c.Hdr.X)))
		for _, e := range c.Hdr.X {
			d.num(uint64(e))
		}
		d.h.Write(c.Hdr.Seed)
	}
	for i := range shards {
		s := &shards[i]
		d.num('S')
		d.str(s.ID)
		d.h.Write(s.Sig[:])
		d.num(uint64(s.Key))
	}
	for i := range grouped {
		g := &grouped[i]
		d.num('G')
		d.str(g.ID)
		d.num(uint64(g.Key))
		d.num(uint64(len(g.RekeyNonce)))
		d.h.Write(g.RekeyNonce)
		d.num(uint64(len(g.Shards)))
		for _, sh := range g.Shards {
			d.num(uint64(sh.Wrap))
			d.num('r')
			d.str(sh.ShardID)
		}
	}
	return d.sum()
}

// encodeTableSegment encodes slots [lo, hi): the table's own columns plus one
// gid column per grouped policy: a window of the live column, copied only to
// blank the gid a leaver's dead slot holds until its hint is consumed (a dead
// slot stores no group). Callers hold at least the registry read lock.
func (r *registry) encodeTableSegment(lo, hi int, polIDs []string) []byte {
	nyms := r.tab.nyms[lo:hi]
	gids := make([][]int32, len(polIDs))
	for k, pid := range polIDs {
		col, own := r.tab.gids[pid][lo:hi], false
		for i, nym := range nyms {
			if nym == "" && col[i] != gidNone {
				if !own {
					col, own = slices.Clone(col), true
				}
				col[i] = gidNone
			}
		}
		gids[k] = col
	}
	return encodeTableColumns(r.tab.conds, polIDs, nyms, r.tab.cells[lo*r.tab.width:hi*r.tab.width], gids)
}

// encodeTableColumns writes one table segment payload for n = len(nyms) slots:
//
//	u8 version | u32 n
//	u32 nd { str cond }      dictionary = column order of the CSS block
//	u32 np { str policyID }  one gid column each, in this order
//	n × u32 name length (0 = dead slot) | u32 blob length | names, concatenated
//	n × nd × u64 CSS, row-major (0 = no CSS)
//	np × n × i32 group ID (gidNone = not grouped in that policy)
func encodeTableColumns(conds, pols, nyms []string, cells []core.CSS, gids [][]int32) []byte {
	lens := make([]uint32, len(nyms))
	blob := 0
	for i, nym := range nyms {
		lens[i] = uint32(len(nym))
		blob += len(nym)
	}
	w := &stateWriter{}
	w.w.Grow(4096 + blob + 8*len(cells) + 4*len(nyms)*(1+len(gids))) // the columns, and room for the dictionaries
	w.u8(segPayloadVersion)
	w.u32(len(nyms))
	w.u32(len(conds))
	for _, c := range conds {
		w.str(c)
	}
	w.u32(len(pols))
	for _, pid := range pols {
		w.str(pid)
	}
	codec.WriteU32s(&w.w, lens)
	w.u32(blob)
	for _, nym := range nyms {
		w.w.RawStr(nym)
	}
	codec.WriteU64s(&w.w, cells)
	for _, col := range gids {
		codec.WriteU32s(&w.w, col)
	}
	return w.out()
}

// encodeCacheBucket encodes one bucket's cache entries, in the state codec's
// cache sections (statev2.go). Grouped shard references may point at
// shards in OTHER buckets; resolution happens after all buckets decode.
func encodeCacheBucket(cfgs []core.CachedConfig, shards []core.CachedShard, grouped []core.CachedGrouped) ([]byte, error) {
	w := &stateWriter{}
	w.u8(segPayloadVersion)
	writeStateCaches(w, cfgs, shards, grouped)
	return w.out(), w.err
}

// encodeMetaSegment encodes the small always-rewritten remainder: epoch,
// generation, membership versions, the grouped policies' group-universe
// lengths (universe[k] is polIDs[k]'s) and the per-document diff bases. The
// caller read the registry's share under one registry lock hold and holds no
// lock now: the epoch and the diff bases are read here, under pubMu.
func (p *Publisher) encodeMetaSegment(cfgs []core.CachedConfig, grouped []core.CachedGrouped, memVer map[string]uint64, polIDs []string, universe []int) ([]byte, error) {
	w := &stateWriter{}
	w.u8(segPayloadVersion)
	last := p.writeStateStamp(w)
	writeStateVersions(w, memVer)
	w.u32(len(polIDs))
	for k, pid := range polIDs {
		w.str(pid)
		w.u32(universe[k])
	}
	writeStateBases(w, last, cfgs, grouped)
	return w.out(), w.err
}

// --- import ----------------------------------------------------------------

// decodedCacheSeg is one decoded cache bucket.
type decodedCacheSeg struct {
	cfgs    []core.CachedConfig
	shards  []core.CachedShard
	grouped []core.CachedGrouped
	err     error
}

// ImportStateSegments restores a publisher from a full set of segment
// payloads (every table segment and cache bucket the manifest lists, in index
// order, plus the meta segment) written with segSlots table slots per segment,
// in three phases parallel across up to workers goroutines: cache buckets
// decode; table segments validate and copy into a pre-sized columnar table at
// the slots their index names, each sorting its own pseudonyms; then the
// pseudonym index and every policy's group state are rebuilt side by side.
// All decodes share one allocation budget.
//
// Slots survive, so the returned table generation makes the imported payloads
// (with their geometry and cache digests) a sound SegmentBase for the next
// export. If conditions the publisher no longer has were dropped, every policy
// is dirty and the registry has already left that generation: the base then
// forces a full export.
func (p *Publisher) ImportStateSegments(segSlots int, meta []byte, table, cache [][]byte, workers int) (uint64, error) {
	total := len(meta)
	for _, seg := range table {
		total += len(seg)
	}
	for _, seg := range cache {
		total += len(seg)
	}
	if total > maxStateBytes {
		return 0, fmt.Errorf("pubsub: state of %d bytes exceeds the %d limit", total, maxStateBytes)
	}
	budget := codec.NewBudget(maxStateHeaderBudget)

	cacheSegs := make([]decodedCacheSeg, len(cache))
	core.Parallel(workers, len(cache), func(i int) {
		cacheSegs[i] = decodeCacheSegment(cache[i], budget)
	})
	var cfgs []core.CachedConfig
	var shards []core.CachedShard
	var grouped []core.CachedGrouped
	for i := range cacheSegs {
		if cacheSegs[i].err != nil {
			return 0, fmt.Errorf("pubsub: cache segment %d: %w", i, cacheSegs[i].err)
		}
		cfgs = append(cfgs, cacheSegs[i].cfgs...)
		shards = append(shards, cacheSegs[i].shards...)
		grouped = append(grouped, cacheSegs[i].grouped...)
	}
	st, err := decodeMetaSegment(meta, budget, newCacheRefs(cfgs, shards, grouped))
	if err != nil {
		return 0, fmt.Errorf("pubsub: meta segment: %w", err)
	}
	st.cfgs, st.shards, st.grouped = cfgs, shards, grouped

	tr, err := p.reg.newTableRestore(segSlots, table, st.grpUniverse, budget)
	if err != nil {
		return 0, err
	}
	errs := make([]error, len(table))
	core.Parallel(workers, len(table), func(i int) {
		errs[i] = tr.decodeSegment(i)
	})
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("pubsub: table segment %d: %w", i, err)
		}
	}
	sorted, err := mergeRuns(tr.tab.nyms, tr.runs, workers)
	if err != nil {
		return 0, err
	}

	// The pseudonym index, and beside it every policy's group state regrouped
	// over its restored gid column (changed: the slots whose assignment moved).
	polIDs := sortedKeys(tr.tab.gids)
	groups := make(map[string]*groupState, len(polIDs))
	for _, pid := range polIDs {
		groups[pid] = &groupState{counts: make([]int, st.grpUniverse[pid]), ver: st.memVer[pid]}
	}
	changed := make([][]int32, len(polIDs))
	errs = make([]error, len(polIDs))
	core.Parallel(workers, 1+len(polIDs), func(i int) {
		if i == 0 {
			tr.tab.index(sorted)
			return
		}
		changed[i-1], errs[i-1] = p.reg.regroup(tr.tab, sorted, polIDs[i-1], groups[polIDs[i-1]])
	})
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}

	st.dropped = tr.dropped.Load()
	var tabGen uint64
	err = p.installState(st, func() {
		tabGen = p.reg.installRestored(tr.tab, st.memVer, groups, slices.Concat(changed...))
	})
	return tabGen, err
}

// tableRestore is table T under reconstruction by a segmented import.
// Segments own disjoint slot ranges of tab, its gid columns and runs, so they
// decode concurrently without synchronization.
type tableRestore struct {
	tab      *cssTable
	segSlots int
	segs     []*stateReader // one per segment, positioned past its slot count
	counts   []int          // slots each segment declares
	universe map[string]int // declared group-universe length per policy (meta segment)
	runs     [][]int32      // per segment: live slots in pseudonym order
	dropped  atomic.Bool    // a condition the publisher no longer has held cells
}

// newTableRestore sizes the table from the segments' declared slot counts:
// every segment but the last spans exactly segSlots, and each must be long
// enough to carry its own name-length column — which bounds the allocation by
// the input before anything is decoded.
func (r *registry) newTableRestore(segSlots int, table [][]byte, universe map[string]int, budget *codec.Budget) (*tableRestore, error) {
	if segSlots <= 0 {
		return nil, fmt.Errorf("pubsub: segment span of %d slots", segSlots)
	}
	tr := &tableRestore{segSlots: segSlots, segs: make([]*stateReader, len(table)), counts: make([]int, len(table)), universe: universe, runs: make([][]int32, len(table))}
	slots := 0
	for i, seg := range table {
		rd, err := segmentReader(seg, budget)
		n := 0
		if err == nil {
			n, err = rd.count()
		}
		if err == nil && (n > segSlots || n == 0 || (n < segSlots && i != len(table)-1) || 4*n > len(seg)) {
			err = fmt.Errorf("segment declares %d slots (span %d, %d bytes)", n, segSlots, len(seg))
		}
		if err != nil {
			return nil, fmt.Errorf("pubsub: table segment %d: %w", i, err)
		}
		tr.segs[i], tr.counts[i] = rd, n
		slots += n
	}
	if slots > maxStateCount {
		return nil, errStateOversize
	}
	r.mu.RLock()
	tr.tab = newCSSTable(r.tab.conds)
	r.mu.RUnlock()
	tr.tab.nyms = make([]string, slots)
	tr.tab.cells = make([]core.CSS, slots*tr.tab.width)
	if r.groupSize > 0 {
		for id := range r.polConds {
			if _, ok := universe[id]; ok {
				tr.tab.addGidColumn(id)
			}
		}
	}
	return tr, nil
}

// decodeSegment validates table segment seg and copies its columns into the
// restore at slots [seg·segSlots, +n): one bounds-checked read per column, a
// validation pass over each, and a sort of the segment's own pseudonyms.
func (tr *tableRestore) decodeSegment(seg int) error {
	r, n := tr.segs[seg], tr.counts[seg] // positioned past the slot count
	tab, lo := tr.tab, seg*tr.segSlots

	// Dictionaries: an unknown condition maps to column -1 (its cells are
	// dropped), a policy must be one the meta segment declares. Each entry
	// takes at least its 4-byte length.
	nd, err := r.items(4)
	if err != nil {
		return err
	}
	if nd > maxStateRowCells {
		return errStateOversize
	}
	colMap := make([]int, nd)
	seen := make(map[string]bool, nd)
	for d := range colMap {
		cond, err := r.str(maxStateCondLen)
		if err != nil {
			return err
		}
		if seen[cond] {
			return fmt.Errorf("condition %q listed twice", cond)
		}
		seen[cond] = true
		ci, ok := tab.condIdx[cond]
		if !ok {
			ci = -1
		}
		colMap[d] = ci
	}
	np, err := r.count()
	if err != nil {
		return err
	}
	if np > len(tr.universe) {
		return fmt.Errorf("%d policy columns, %d policies declared", np, len(tr.universe))
	}
	pols := make([]string, np)
	for k := range pols {
		if pols[k], err = r.str(maxStateCondLen); err != nil {
			return err
		}
		if _, ok := tr.universe[pols[k]]; !ok || slices.Contains(pols[:k], pols[k]) {
			return fmt.Errorf("policy column %q undeclared or listed twice", pols[k])
		}
	}
	// Charge what the segment's length does not bound: slot bookkeeping and
	// columns its own dictionaries lack.
	if err := r.charge(n * (16 + 8*max(0, tab.width-nd) + 4*max(0, len(tab.gids)-np))); err != nil {
		return err
	}

	// Names: every pseudonym of the segment is a substring of one copy of
	// its blob.
	lens := make([]uint32, n)
	if err := codec.ReadU32s(r.r, lens); err != nil {
		return stateErr(err)
	}
	blobLen, err := r.u32()
	if err != nil {
		return err
	}
	raw, err := r.take(blobLen)
	if err != nil {
		return err
	}
	live, sum := 0, 0
	for _, l := range lens {
		if l > maxStateNymLen {
			return errStateOversize
		}
		if l != 0 {
			live++
		}
		sum += int(l)
	}
	if sum != blobLen {
		return fmt.Errorf("name lengths sum to %d, blob holds %d bytes", sum, blobLen)
	}
	blob, off := string(raw), 0
	nyms := tab.nyms[lo : lo+n]
	for i, l := range lens {
		nyms[i] = blob[off : off+int(l)]
		off += int(l)
	}

	// CSS block.
	if 8*n*nd > r.r.Remaining() {
		return errStateTruncated
	}
	slab := make([]core.CSS, n*nd)
	if err := codec.ReadU64s(r.r, slab); err != nil {
		return stateErr(err)
	}
	rows := tab.cells[lo*tab.width : (lo+n)*tab.width]
	valid, lost := scatterSlab(rows, tab.width, colMap, slab, lens)
	if !valid {
		return errors.New("CSS block holds an unreduced cell, a live slot without a CSS or a dead slot with one")
	}
	if lost {
		// A row left with nothing goes with the dropped cells.
		tr.dropped.Store(true)
		for i := range nyms {
			if nyms[i] != "" && rowEmpty(rows[i*tab.width:(i+1)*tab.width]) {
				nyms[i] = ""
				live--
			}
		}
	}

	// Group-ID columns.
	col := make([]int32, n)
	for _, pid := range pols {
		if err := codec.ReadU32s(r.r, col); err != nil {
			return stateErr(err)
		}
		universe, dst := tr.universe[pid], tab.gids[pid]
		for i, g := range col {
			if g == gidNone {
				continue
			}
			if g < 0 || int(g) >= universe || lens[i] == 0 {
				return fmt.Errorf("slot %d assigned to group %d of %d in policy %q", lo+i, g, universe, pid)
			}
			if dst != nil && nyms[i] != "" {
				dst[lo+i] = g
			}
		}
	}
	if err := r.done(); err != nil {
		return err
	}

	run := make([]int32, 0, live)
	for i, nym := range nyms {
		if nym != "" {
			run = append(run, int32(lo+i))
		}
	}
	slices.SortFunc(run, func(a, b int32) int { return strings.Compare(tab.nyms[a], tab.nyms[b]) })
	for k := 1; k < len(run); k++ {
		if tab.nyms[run[k]] == tab.nyms[run[k-1]] {
			return fmt.Errorf("duplicate pseudonym %q", tab.nyms[run[k]])
		}
	}
	tr.runs[seg] = run
	return nil
}

// scatterSlab is the validation pass over one segment's CSS block: every cell
// reduced, and a slot holds a CSS exactly when it has a name. Valid or not, it
// copies each cell to its table column (colMap, -1 = the publisher no longer
// has the condition); lost reports a non-zero cell dropped that way.
//
//ppcd:hotpath
func scatterSlab(rows []core.CSS, width int, colMap []int, slab []core.CSS, lens []uint32) (valid, lost bool) {
	nd := len(colMap)
	valid = true
	for i, l := range lens {
		row := rows[i*width : (i+1)*width]
		var any core.CSS
		for d, v := range slab[i*nd : (i+1)*nd] {
			if uint64(v) >= ff64.Modulus {
				valid = false
			}
			any |= v
			if ci := colMap[d]; ci >= 0 {
				row[ci] = v
			} else if v != 0 {
				lost = true
			}
		}
		if (l != 0) != (any != 0) {
			valid = false
		}
	}
	return valid, lost
}

// segmentReader opens one segment payload, vetting its version.
func segmentReader(data []byte, budget *codec.Budget) (*stateReader, error) {
	r := newStateReader(data, budget)
	ver, err := r.u8()
	if err == nil && ver != segPayloadVersion {
		err = fmt.Errorf("unsupported segment version %d", ver)
	}
	return r, err
}

func decodeCacheSegment(data []byte, budget *codec.Budget) (out decodedCacheSeg) {
	r, err := segmentReader(data, budget)
	if err == nil {
		out.cfgs, out.shards, out.grouped, err = readStateCaches(r)
	}
	if err == nil {
		err = r.done()
	}
	out.err = err
	return out
}

func decodeMetaSegment(data []byte, budget *codec.Budget, refs *cacheRefs) (*decodedState, error) {
	r, err := segmentReader(data, budget)
	if err != nil {
		return nil, err
	}
	st := &decodedState{}
	if st.epoch, st.gen, err = readStateStamp(r); err != nil {
		return nil, err
	}
	if st.memVer, err = readStateVersions(r); err != nil {
		return nil, err
	}
	n, err := r.items(4 + 4)
	if err != nil {
		return nil, err
	}
	st.grpUniverse = make(map[string]int, n)
	for i := 0; i < n; i++ {
		id, err := r.str(maxStateCondLen)
		if err != nil {
			return nil, err
		}
		groups, err := r.count()
		if err != nil {
			return nil, err
		}
		// Per-group state (occupancy, member list, tracker bits, the
		// rebuild's scratch) is retained memory the input length does not
		// bound — empty groups keep their numbers — so charge it.
		if err := r.charge(64 * groups); err != nil {
			return nil, err
		}
		st.grpUniverse[id] = groups
	}
	if st.last, err = readStateBases(r, st.gen, refs); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return st, nil
}
