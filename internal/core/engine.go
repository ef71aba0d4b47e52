package core

import (
	"fmt"
	"hash/maphash"
	"maps"
	"runtime"
	"sync"
	"sync/atomic"

	"ppcd/internal/ff64"
	"ppcd/internal/linalg"
)

// This file implements the publisher-side rekey engine: an incremental,
// concurrent ACV builder. The paper's §VIII-A asks the Pub to eliminate
// redundant calculations; the engine does so on three levels:
//
//  1. Incremental rekeying. Every configuration build is cached together
//     with a membership signature (Sig) supplied by the caller. As long as
//     the signature is unchanged (no join, leave, revocation or credential
//     update touched the configuration), the cached header and key are
//     reused and no null-space solve runs at all — which is exactly the
//     scheme's "rekey only on membership change" semantics: rekeying is
//     never time-driven, it is a consequence of a table-T mutation.
//
//  2. Shared row-hash blocks. All configurations rebuilt in one session
//     share a single nonce sequence z_1…z_Nmax (the §VIII-D session trick,
//     applied across configurations instead of documents). The hash rows
//     a_j = H(r_1‖…‖r_m‖z_j) therefore depend only on the row group (one
//     group per policy), not on the configuration, and each group is hashed
//     once even when its policy appears in several configurations (acp3
//     covers four configurations in the paper's Example 4).
//
//  3. Parallel solves. Distinct configurations are independent linear
//     systems; their kernel solves fan out across one shared bounded worker
//     pool (scheduler.go) fed by every rekey session at once, with blocked
//     elimination (linalg blocked path) over per-worker reusable scratch.
//     One large configuration uses every worker too: its rows hash in
//     hashChunk-row tasks, and its elimination stripes each panel's trailing
//     update over up to the pool's cap of goroutines once the panel's work
//     passes linalg's split threshold — the paper's §VII N = 512 system on
//     both cores, where no shard of ≤ 128 rows ever splits.
type Engine struct {
	workers int
	sched   *solveScheduler

	mu    sync.Mutex
	cache map[string]engineEntry
	// shardCache and groupedCache are the grouped (§VIII-C) counterparts of
	// cache: per-shard solved sub-headers with their group keys, and
	// per-configuration assembled grouped headers. See grouped.go.
	shardCache   map[string]shardEntry
	groupedCache map[string]groupedEntry

	stats engineCounters
}

// Sig is a cache signature: the SHA-256 digest of what the caller built a
// solve from — a configuration's membership, a shard's rows. Equal signatures
// mean the cached solve may be reused.
type Sig [32]byte

type engineEntry struct {
	sig Sig
	hdr *Header
	key ff64.Elem
}

type shardEntry struct {
	sig Sig
	ShardLease
}

type groupedEntry struct {
	hdr *GroupedHeader
	key ff64.Elem // the configuration key K
}

type engineCounters struct {
	rekeys    atomic.Uint64
	rebuilds  atomic.Uint64
	cacheHits atomic.Uint64
	solves    atomic.Uint64
}

// EngineStats is a snapshot of the engine's work counters.
type EngineStats struct {
	// Rekeys counts RekeyAll sessions (one per publish).
	Rekeys uint64
	// Rebuilds counts configurations whose ACV was actually re-solved.
	Rebuilds uint64
	// CacheHits counts configurations served from the incremental cache.
	CacheHits uint64
	// Solves counts null-space solves (≥ Rebuilds only on degenerate
	// retries; a steady-state publish performs zero).
	Solves uint64
}

// RowGroup is a named block of subscriber CSS rows shared between
// configurations — one group per policy, so a policy appearing in several
// configurations is hashed against the session nonces only once.
type RowGroup struct {
	ID   string
	Rows [][]CSS
}

// ConfigSpec describes one policy configuration to rekey.
type ConfigSpec struct {
	// ID identifies the configuration across sessions (the cache key).
	ID string
	// Sig is the caller's membership signature: equal signatures mean the
	// configuration's subscriber set is unchanged and the cached header may
	// be reused verbatim.
	Sig Sig
	// Groups are the row blocks whose concatenation forms matrix A.
	Groups []RowGroup
	// MinN forces header capacity headroom (0 = exactly the row count).
	MinN int
}

// ConfigKeys is the rekey outcome for one configuration.
type ConfigKeys struct {
	Hdr *Header
	Key ff64.Elem
	// Rebuilt reports whether this session solved a fresh ACV (false =
	// cache hit).
	Rebuilt bool
}

// NewEngine creates a rekey engine. workers bounds the parallel solve pool;
// 0 means GOMAXPROCS.
func NewEngine(workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		workers:      workers,
		sched:        newSolveScheduler(workers),
		cache:        make(map[string]engineEntry),
		shardCache:   make(map[string]shardEntry),
		groupedCache: make(map[string]groupedEntry),
	}
}

// Stats returns a snapshot of the work counters.
func (e *Engine) Stats() EngineStats {
	return EngineStats{
		Rekeys:    e.stats.rekeys.Load(),
		Rebuilds:  e.stats.rebuilds.Load(),
		CacheHits: e.stats.cacheHits.Load(),
		Solves:    e.stats.solves.Load(),
	}
}

// Reset drops every cached build (e.g. after a wholesale table import).
func (e *Engine) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cache = make(map[string]engineEntry)
	e.shardCache = make(map[string]shardEntry)
	e.groupedCache = make(map[string]groupedEntry)
}

// CachedConfig is one exported ungrouped cache entry: the configuration's
// membership signature, solved header and key. The key is SECRET material.
type CachedConfig struct {
	ID  string
	Sig Sig
	Hdr *Header
	Key ff64.Elem
}

// CachedShard is one exported per-shard cache entry of the grouped engine:
// the shard's content signature, sub-header and long-lived group key S_i.
type CachedShard struct {
	ID  string
	Sig Sig
	Hdr *Header
	Key ff64.Elem
}

// CachedGroupedShard is one shard slot of an exported grouped configuration:
// the CachedShard whose sub-header it holds and the wrap of the configuration
// key under that shard's group key.
type CachedGroupedShard struct {
	ShardID string
	Wrap    ff64.Elem
}

// CachedGrouped is one exported grouped-configuration cache entry: rekey
// nonce, shard slots and configuration key K.
type CachedGrouped struct {
	ID         string
	RekeyNonce []byte
	Shards     []CachedGroupedShard
	Key        ff64.Elem
}

// Name is the name of the assembly the entry holds: its grouped header's.
func (g *CachedGrouped) Name() uint64 { return maphash.Bytes(nameSeed, g.RekeyNonce) }

// ExportCache snapshots the engine's three cache levels for durable-state
// serialization. A grouped entry's slots name the shard whose solve they
// hold, found by the sub-header's name; an entry is exported only when every
// slot holds the solve the shard cache holds — the rule Install applies.
func (e *Engine) ExportCache() ([]CachedConfig, []CachedShard, []CachedGrouped) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cfgs := make([]CachedConfig, 0, len(e.cache))
	for id, ent := range e.cache {
		cfgs = append(cfgs, CachedConfig{ID: id, Sig: ent.sig, Hdr: ent.hdr, Key: ent.key})
	}
	shards := make([]CachedShard, 0, len(e.shardCache))
	byName := make(map[uint64]string, len(e.shardCache))
	for id, ent := range e.shardCache {
		shards = append(shards, CachedShard{ID: id, Sig: ent.sig, Hdr: ent.hdr, Key: ent.key})
		byName[ent.hdr.Name()] = id
	}
	grouped := make([]CachedGrouped, 0, len(e.groupedCache))
next:
	for id, ent := range e.groupedCache {
		slots := make([]CachedGroupedShard, len(ent.hdr.Shards))
		for i, sh := range ent.hdr.Shards {
			sid, ok := byName[sh.Hdr.Name()]
			if !ok {
				continue next
			}
			slots[i] = CachedGroupedShard{ShardID: sid, Wrap: sh.Wrap}
		}
		grouped = append(grouped, CachedGrouped{ID: id, RekeyNonce: ent.hdr.RekeyNonce, Shards: slots, Key: ent.key})
	}
	return cfgs, shards, grouped
}

// cacheEntries validates exported entries and builds the engine's
// configuration and shard entries from them, for RestoreCache to swap in and
// Install to merge.
func cacheEntries(cfgs []CachedConfig, shards []CachedShard, grouped []CachedGrouped) (map[string]engineEntry, map[string]shardEntry, error) {
	cache := make(map[string]engineEntry, len(cfgs))
	for _, c := range cfgs {
		if c.ID == "" || c.Hdr == nil {
			return nil, nil, fmt.Errorf("core: config cache: empty entry %q", c.ID)
		}
		cache[c.ID] = engineEntry{sig: c.Sig, hdr: c.Hdr, key: c.Key}
	}
	shardCache := make(map[string]shardEntry, len(shards))
	for _, s := range shards {
		if s.ID == "" || s.Hdr == nil {
			return nil, nil, fmt.Errorf("core: shard cache: empty entry %q", s.ID)
		}
		shardCache[s.ID] = shardEntry{sig: s.Sig, ShardLease: ShardLease{hdr: s.Hdr, key: s.Key}}
	}
	for _, g := range grouped {
		if g.ID == "" || len(g.Shards) == 0 {
			return nil, nil, fmt.Errorf("core: grouped cache: empty entry %q", g.ID)
		}
	}
	return cache, shardCache, nil
}

// Header assembles the grouped header g describes over the sub-headers of
// the shard cache entries shard returns by ID.
func (g *CachedGrouped) Header(shard func(id string) (*Header, bool)) (*GroupedHeader, error) {
	hdr := &GroupedHeader{RekeyNonce: g.RekeyNonce, Shards: make([]GroupShard, len(g.Shards))}
	for i, sh := range g.Shards {
		h, ok := shard(sh.ShardID)
		if !ok {
			return nil, fmt.Errorf("core: grouped configuration %q references unknown shard %q", g.ID, sh.ShardID)
		}
		hdr.Shards[i] = GroupShard{Hdr: h, Wrap: sh.Wrap}
	}
	return hdr, nil
}

// shardLookup resolves shard IDs against a shard cache, for CachedGrouped.Header.
func shardLookup(shardCache map[string]shardEntry) func(string) (*Header, bool) {
	return func(id string) (*Header, bool) {
		ent, ok := shardCache[id]
		return ent.hdr, ok
	}
}

// RestoreCache replaces the engine's caches wholesale with previously
// exported entries (durable-state recovery), assembling every grouped header
// over the restored shard cache; an unresolvable shard reference is an error
// — the state is internally inconsistent and the caller should fall back to
// a cold engine.
func (e *Engine) RestoreCache(cfgs []CachedConfig, shards []CachedShard, grouped []CachedGrouped) error {
	cache, shardCache, err := cacheEntries(cfgs, shards, grouped)
	if err != nil {
		return err
	}
	groupedCache := make(map[string]groupedEntry, len(grouped))
	for _, g := range grouped {
		hdr, err := g.Header(shardLookup(shardCache))
		if err != nil {
			return err
		}
		groupedCache[g.ID] = groupedEntry{hdr: hdr, key: g.Key}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cache = cache
	e.shardCache = shardCache
	e.groupedCache = groupedCache
	return nil
}

// Install merges the entries one rekey session created back into the caches
// (crash recovery replaying a journaled publish), where RestoreCache replaces
// them wholesale. Configurations and shards are installed as given, shards
// first; a grouped entry is assembled over the shard cache when every slot
// holds the solve the cache holds for its ID, which the wrap tells: it is made
// under the group key of the solve the slot held. A slot naming a shard the
// cache lacks, or whose wrap the cached group key does not reproduce (a later
// session re-solved the shard), leaves the entry out: it would be assembled
// over a solve it was not built from.
func (e *Engine) Install(cfgs []CachedConfig, shards []CachedShard, grouped []CachedGrouped) error {
	cache, shardCache, err := cacheEntries(cfgs, shards, grouped)
	if err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	maps.Copy(e.cache, cache)
	maps.Copy(e.shardCache, shardCache)
next:
	for _, g := range grouped {
		hdr, err := g.Header(shardLookup(e.shardCache))
		if err != nil {
			continue
		}
		for _, sh := range g.Shards {
			if hdr.WrapKey(g.Key, e.shardCache[sh.ShardID].key) != sh.Wrap {
				continue next
			}
		}
		e.groupedCache[g.ID] = groupedEntry{hdr: hdr, key: g.Key}
	}
	return nil
}

// RekeyAll produces a header and key for every configuration, reusing cached
// builds for configurations whose signature is unchanged and re-solving the
// rest concurrently over a shared nonce session. Specs with zero total rows
// are rejected (the caller encrypts those under a throwaway key with no
// header).
func (e *Engine) RekeyAll(specs []ConfigSpec) (map[string]ConfigKeys, error) {
	e.stats.rekeys.Add(1)
	out := make(map[string]ConfigKeys, len(specs))

	type dirtyCfg struct {
		spec ConfigSpec
		n    int // header capacity N for this configuration
	}
	var dirty []dirtyCfg
	maxN := 0

	e.mu.Lock()
	for _, s := range specs {
		if ent, ok := e.cache[s.ID]; ok && ent.sig == s.Sig {
			out[s.ID] = ConfigKeys{Hdr: ent.hdr, Key: ent.key}
			continue
		}
		total := 0
		for _, g := range s.Groups {
			total += len(g.Rows)
		}
		if total == 0 {
			e.mu.Unlock()
			return nil, fmt.Errorf("core: configuration %q has no rows: %w", s.ID, ErrNoRows)
		}
		n := total
		if s.MinN > n {
			n = s.MinN
		}
		if n > maxN {
			maxN = n
		}
		dirty = append(dirty, dirtyCfg{spec: s, n: n})
	}
	e.mu.Unlock()
	e.stats.cacheHits.Add(uint64(len(out)))

	if len(dirty) == 0 {
		return out, nil
	}

	// One nonce sequence for the whole session; a configuration with
	// capacity n uses the prefix z_1…z_n.
	run, err := drawNonces(maxN)
	if err != nil {
		return nil, err
	}

	// Deduplicate row groups across the dirty configurations: each policy's
	// rows are hashed against the session nonces exactly once, and only up
	// to the largest capacity among the configurations that contain the
	// group (solveConfig reads no further).
	var groups []RowGroup
	groupN := make(map[string]int)
	for _, d := range dirty {
		for _, g := range d.spec.Groups {
			if _, ok := groupN[g.ID]; !ok {
				groups = append(groups, g)
			}
			if d.n > groupN[g.ID] {
				groupN[g.ID] = d.n
			}
		}
	}
	blocks, err := e.hashGroups(groups, groupN, run.zs)
	if err != nil {
		return nil, err
	}

	type solved struct {
		id  string
		sig Sig
		hdr *Header
		key ff64.Elem
		err error
	}
	results := make([]solved, len(dirty))
	var wg sync.WaitGroup
	wg.Add(len(dirty))
	for i, d := range dirty {
		e.sched.submit(func(sc *solveScratch) {
			defer wg.Done()
			hdr, key, err := e.solveConfig(d.spec, d.n, run, blocks, sc)
			results[i] = solved{id: d.spec.ID, sig: d.spec.Sig, hdr: hdr, key: key, err: err}
		})
	}
	wg.Wait()

	e.mu.Lock()
	defer e.mu.Unlock()
	for _, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("core: rekeying %q: %w", r.id, r.err)
		}
		e.cache[r.id] = engineEntry{sig: r.sig, hdr: r.hdr, key: r.key}
		out[r.id] = ConfigKeys{Hdr: r.hdr, Key: r.key, Rebuilt: true}
		e.stats.rebuilds.Add(1)
	}
	return out, nil
}

// hashChunk is how many rows one hashing task covers, so one large policy
// hashes on every worker: the paper's N = 512 system is eight tasks.
const hashChunk = 64

// hashGroups computes, for every distinct row group, the hash block
// a[i][j] = H(row_i ‖ z_j) once, fanning the groups' rows across the shared
// scheduler hashChunk at a time. Each group is hashed only against the first
// groupN[id] session nonces — the largest capacity among the configurations
// containing it — into one block of its own.
func (e *Engine) hashGroups(groups []RowGroup, groupN map[string]int, zs [][]byte) (map[string][]linalg.Vector, error) {
	for _, g := range groups {
		for _, css := range g.Rows {
			if len(css) == 0 {
				return nil, ErrEmptyCSS
			}
		}
	}
	blocks := make(map[string][]linalg.Vector, len(groups))
	var wg sync.WaitGroup
	for _, g := range groups {
		nz := groupN[g.ID]
		block := linalg.NewVector(len(g.Rows) * nz)
		rows := make([]linalg.Vector, len(g.Rows))
		for i := range rows {
			rows[i] = block[i*nz : (i+1)*nz : (i+1)*nz]
		}
		blocks[g.ID] = rows
		for lo := 0; lo < len(rows); lo += hashChunk {
			hi := min(lo+hashChunk, len(rows))
			wg.Add(1)
			e.sched.submit(func(*solveScratch) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					HashRows(rows[i], g.Rows[i], zs[:nz])
				}
			})
		}
	}
	wg.Wait()
	return blocks, nil
}

// solveConfig assembles matrix A for one configuration from the shared hash
// blocks — into the worker's reusable scratch — and solves for a fresh ACV
// and key with the blocked elimination path.
func (e *Engine) solveConfig(s ConfigSpec, n int, run nonceRun, blocks map[string][]linalg.Vector, sc *solveScratch) (*Header, ff64.Elem, error) {
	total := 0
	for _, g := range s.Groups {
		total += len(g.Rows)
	}
	a := sc.ws.Matrix(total, n+1)
	i := 0
	for _, g := range s.Groups {
		for _, hashRow := range blocks[g.ID] {
			row := a.Row(i)
			row[0] = ff64.One
			copy(row[1:], hashRow[:n])
			i++
		}
	}
	e.stats.solves.Add(1)
	y, err := a.RandomKernelVectorBlocked(sc.ws)
	if err != nil {
		return nil, 0, fmt.Errorf("solving AY=0: %w", err)
	}
	key, err := ff64.RandNonZero()
	if err != nil {
		return nil, 0, err
	}
	x := y
	x[0] = ff64.Add(x[0], key)
	if tailZero(x) {
		// Cannot happen with ≥1 row (the all-ones first column forces a
		// non-zero tail on every non-zero kernel vector), but stay defensive.
		return nil, 0, errDegenerate
	}
	return run.header(x), key, nil
}
