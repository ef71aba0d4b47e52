package core

import (
	"fmt"
	"sync"

	"ppcd/internal/ff64"
)

// This file is the grouped (§VIII-C) half of the rekey engine. A grouped
// configuration's rows are partitioned into shards; each shard is an
// independent small ACV system delivering a long-lived GROUP key, and the
// per-publish configuration key travels wrapped under every group key
// (multi.go, GroupedHeader). The engine caches on two levels:
//
//   - shardCache, keyed by the shard's stable ID (policy + group number),
//     holds the solved sub-header and group key for the shard's current row
//     content. A shard re-solves only when its signature — a digest of its
//     rows — changes, so a single join/leave/revocation costs ONE small
//     solve of (N/g)³ work instead of a full N³ configuration solve. The
//     caller leases the cached solve (Lease) when it snapshots the rows, and
//     hands over rows only for a shard it could not lease.
//   - groupedCache, keyed by the configuration ID, holds the assembled
//     GroupedHeader and configuration key. It keeps no signature: it is
//     reused exactly when its slots hold, in order, the solves leased for the
//     configuration's shards. Any shard change (or shard appearing/vanishing)
//     triggers a cheap reassembly — fresh configuration key, fresh rekey
//     nonce, one hash per shard for the wraps — while clean shards keep
//     their sub-headers, nonces and therefore the subscribers' cached KEVs.
//
// Forward and backward secrecy across the two levels: a leaver knows its old
// shard's group key, but the dirty shard re-solves to a fresh one and every
// other shard's key was never derivable by it, so no wrap of the new
// configuration key opens for the leaver. A joiner's fresh group key
// likewise unwraps only configuration keys published after the join.

// ShardSpec describes one row shard of a grouped configuration. ID is stable
// across sessions and configurations (shards are shared between
// configurations that contain the same policy, exactly like RowGroups in the
// ungrouped path); Sig changes iff the shard's row content changes. A spec
// carries either the N rows Sig digests, which the session solves, or the
// Lease of the solve the engine held for (ID, Sig) when the caller asked,
// which the session wraps under; one with neither is a programming error.
type ShardSpec struct {
	ID    string
	Sig   Sig
	N     int
	Rows  [][]CSS
	Lease ShardLease
}

// ShardLease is a solve of the shard cache as Lease found it: the sub-header
// and group key a session wraps under, whatever the cache holds by the time
// the session runs. The zero lease holds nothing.
type ShardLease struct {
	hdr *Header
	key ff64.Elem // the shard's long-lived group key S_i
}

// GroupedConfigSpec describes one policy configuration to rekey in grouped
// mode. The shard order is the caller's (deterministic) order; it defines
// the sub-header order inside the resulting GroupedHeader.
type GroupedConfigSpec struct {
	// ID identifies the configuration across sessions (the cache key).
	ID string
	// Shards are the row shards whose union forms the configuration's
	// subscriber set.
	Shards []ShardSpec
}

// GroupedConfigKeys is the grouped rekey outcome for one configuration.
type GroupedConfigKeys struct {
	Hdr *GroupedHeader
	Key ff64.Elem
	// Rebuilt reports whether this session reassembled the grouped header
	// (false = full cache hit).
	Rebuilt bool
	// Solved lists the shards of a rebuilt configuration that this session
	// solved: with the configuration, the entries the session created in the
	// caches — what a journal records so Install can put them back.
	Solved []CachedShard
}

// Lease returns the solve the shard cache holds for shard id at the rows sig
// digests, for a ShardSpec to carry instead of its rows.
func (e *Engine) Lease(id string, sig Sig) (ShardLease, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if ent := e.shardCache[id]; ent.hdr != nil && ent.sig == sig {
		return ent.ShardLease, true
	}
	return ShardLease{}, false
}

// holds reports whether the assembly's slots hold, in order, the solves the
// shards lease. Objects are compared first and names only where they differ,
// as a broadcast's shard index does, so a hit hashes no header.
func (g groupedEntry) holds(shards []ShardSpec) bool {
	if len(g.hdr.Shards) != len(shards) {
		return false
	}
	for i, sh := range shards {
		h, l := g.hdr.Shards[i].Hdr, sh.Lease.hdr
		if l == nil || (h != l && h.Name() != l.Name()) {
			return false
		}
	}
	return true
}

// RekeyAllGrouped is the grouped counterpart of RekeyAll: it produces a
// grouped header and key for every configuration, solving only the shards
// handed over with rows — once, however many configurations share one — and
// reassembling only configurations whose slots do not hold the leased solves.
// A leased solve is wrapped under as leased: a Reset or a re-solve between
// the lease and the session does not reach this session, and the session
// does not put the lease back into a cache that dropped it. Specs with zero
// total rows are rejected, mirroring RekeyAll.
func (e *Engine) RekeyAllGrouped(specs []GroupedConfigSpec) (map[string]GroupedConfigKeys, error) {
	e.stats.rekeys.Add(1)
	out := make(map[string]GroupedConfigKeys, len(specs))

	var dirty []GroupedConfigSpec
	e.mu.Lock()
	for _, s := range specs {
		if ent, ok := e.groupedCache[s.ID]; ok && ent.holds(s.Shards) {
			out[s.ID] = GroupedConfigKeys{Hdr: ent.hdr, Key: ent.key}
			continue
		}
		dirty = append(dirty, s)
	}
	e.mu.Unlock()
	e.stats.cacheHits.Add(uint64(len(out)))

	if len(dirty) == 0 {
		return out, nil
	}
	var solveList []ShardSpec
	queued := make(map[string]bool)
	maxN := 0
	for _, s := range dirty {
		total := 0
		for _, sh := range s.Shards {
			total += sh.N
			if sh.Lease.hdr != nil || queued[sh.ID] {
				continue
			}
			if len(sh.Rows) != sh.N {
				return nil, fmt.Errorf("core: shard %q has no lease and %d rows of %d", sh.ID, len(sh.Rows), sh.N)
			}
			queued[sh.ID] = true
			solveList = append(solveList, sh)
			maxN = max(maxN, sh.N)
		}
		if total == 0 {
			return nil, fmt.Errorf("core: configuration %q has no rows: %w", s.ID, ErrNoRows)
		}
	}

	// One nonce sequence for all shards solved this session; a shard of n
	// rows uses the prefix z_1…z_n (the same cross-system nonce sharing the
	// ungrouped engine applies across configurations).
	run, err := drawNonces(maxN)
	if err != nil {
		return nil, err
	}

	solved := make([]shardEntry, len(solveList))
	errs := make([]error, len(solveList))
	var wg sync.WaitGroup
	wg.Add(len(solveList))
	for i, sh := range solveList {
		e.sched.submit(func(sc *solveScratch) {
			defer wg.Done()
			hdr, key, err := e.solveShard(sh, run, sc)
			solved[i], errs[i] = shardEntry{sig: sh.Sig, ShardLease: ShardLease{hdr: hdr, key: key}}, err
		})
	}
	wg.Wait()

	e.mu.Lock()
	defer e.mu.Unlock()
	fresh := make(map[string]shardEntry, len(solveList))
	for i, sh := range solveList {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: rekeying shard %q: %w", sh.ID, errs[i])
		}
		fresh[sh.ID], e.shardCache[sh.ID] = solved[i], solved[i]
	}
	for _, s := range dirty {
		key, err := ff64.RandNonZero()
		if err != nil {
			return nil, err
		}
		nonce := make([]byte, NonceSize)
		if err := fillRandom(nonce); err != nil {
			return nil, err
		}
		hdr := &GroupedHeader{RekeyNonce: nonce, Shards: make([]GroupShard, len(s.Shards))}
		ck := GroupedConfigKeys{Hdr: hdr, Key: key, Rebuilt: true}
		for i, sh := range s.Shards {
			l := sh.Lease
			if l.hdr == nil {
				ent := fresh[sh.ID]
				l = ent.ShardLease
				ck.Solved = append(ck.Solved, CachedShard{ID: sh.ID, Sig: ent.sig, Hdr: ent.hdr, Key: ent.key})
			}
			hdr.Shards[i] = GroupShard{Hdr: l.hdr, Wrap: hdr.WrapKey(key, l.key)}
		}
		e.groupedCache[s.ID] = groupedEntry{hdr: hdr, key: key}
		out[s.ID] = ck
		e.stats.rebuilds.Add(1)
	}
	return out, nil
}

// solveShard solves one shard's small ACV system over the session nonce
// prefix, delivering a fresh random group key. Shard capacity is exactly the
// row count: with content-signature dirtiness, capacity headroom cannot save
// a solve (any join changes the signature anyway), so the sub-header stays
// as small as §VIII-C promises. The system is assembled into the worker's
// reusable scratch and solved with blocked elimination — after warm-up a
// shard solve allocates only its result vector.
func (e *Engine) solveShard(sh ShardSpec, run nonceRun, sc *solveScratch) (*Header, ff64.Elem, error) {
	n := len(sh.Rows)
	a := sc.ws.Matrix(n, n+1)
	for i, css := range sh.Rows {
		if len(css) == 0 {
			return nil, 0, ErrEmptyCSS
		}
		row := a.Row(i)
		row[0] = ff64.One
		HashRows(row[1:], css, run.zs[:n])
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
		// As in solveConfig: unreachable with ≥1 row, but stay defensive.
		return nil, 0, errDegenerate
	}
	return run.header(x), key, nil
}
