package core

import (
	"errors"
	"fmt"
	"strings"
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
//     solve of (N/g)³ work instead of a full N³ configuration solve.
//   - groupedCache, keyed by the configuration ID, holds the assembled
//     GroupedHeader and configuration key. Its signature is the vector of
//     shard signatures: any shard change (or shard appearing/vanishing)
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
// ungrouped path); Sig changes iff the shard's row content changes. Rows are
// the N rows Sig digests; a caller that has seen HasShard(ID, Sig) may leave
// them out, and a shard that must be solved after all fails the session with
// ErrShardRows.
type ShardSpec struct {
	ID   string
	Sig  string
	N    int
	Rows [][]CSS
}

// ErrShardRows reports a shard the engine holds no solve for and got no (or
// not N) rows for: its cache moved; the caller rebuilds its specs and retries.
var ErrShardRows = errors.New("core: shard must be solved but its rows were not supplied")

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

// groupedSig combines the shard identities and signatures into the
// configuration-level cache signature.
func groupedSig(s GroupedConfigSpec) string {
	var b strings.Builder
	for _, sh := range s.Shards {
		b.WriteString(sh.ID)
		b.WriteByte('=')
		b.WriteString(sh.Sig)
		b.WriteByte('|')
	}
	return b.String()
}

// HasShard reports whether the shard cache holds a solve of shard id for the
// rows sig digests, i.e. whether a ShardSpec for it needs no rows.
func (e *Engine) HasShard(id, sig string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	ent, ok := e.shardCache[id]
	return ok && ent.sig == sig
}

// RekeyAllGrouped is the grouped counterpart of RekeyAll: it produces a
// grouped header and key for every configuration, re-solving only shards
// whose row content changed and reassembling only configurations touched by
// a dirty shard. Dirty shards shared between configurations are solved once.
// Specs with zero total rows are rejected, mirroring RekeyAll.
func (e *Engine) RekeyAllGrouped(specs []GroupedConfigSpec) (map[string]GroupedConfigKeys, error) {
	e.stats.rekeys.Add(1)
	out := make(map[string]GroupedConfigKeys, len(specs))

	var dirty []GroupedConfigSpec
	var dirtySigs []string
	var solveList []ShardSpec
	// held is every shard of a dirty configuration with the solve its wraps are
	// made under: the cached one as matched here (a Reset in mid-session cannot
	// pull it away) or the fresh one.
	held := make(map[string]shardEntry)
	maxN := 0

	e.mu.Lock()
	for _, s := range specs {
		sig := groupedSig(s)
		if ent, ok := e.groupedCache[s.ID]; ok && ent.sig == sig {
			out[s.ID] = GroupedConfigKeys{Hdr: ent.hdr, Key: ent.key}
			continue
		}
		total := 0
		for _, sh := range s.Shards {
			total += sh.N
		}
		if total == 0 {
			e.mu.Unlock()
			return nil, fmt.Errorf("core: configuration %q has no rows: %w", s.ID, ErrNoRows)
		}
		dirty, dirtySigs = append(dirty, s), append(dirtySigs, sig)
		for _, sh := range s.Shards {
			if _, seen := held[sh.ID]; seen {
				continue
			}
			ent, ok := e.shardCache[sh.ID]
			if ok && ent.sig == sh.Sig {
				held[sh.ID] = ent // clean shard: sub-header and group key reused
				continue
			}
			held[sh.ID] = shardEntry{}
			if len(sh.Rows) != sh.N {
				e.mu.Unlock()
				return nil, fmt.Errorf("core: shard %q (%d rows supplied of %d): %w", sh.ID, len(sh.Rows), sh.N, ErrShardRows)
			}
			solveList = append(solveList, sh)
			maxN = max(maxN, sh.N)
		}
	}
	e.mu.Unlock()
	e.stats.cacheHits.Add(uint64(len(out)))

	if len(dirty) == 0 {
		return out, nil
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
			solved[i], errs[i] = shardEntry{sig: sh.Sig, hdr: hdr, key: key}, err
		})
	}
	wg.Wait()

	e.mu.Lock()
	defer e.mu.Unlock()
	fresh := make(map[string]bool, len(solveList))
	for i, sh := range solveList {
		if errs[i] != nil {
			return nil, fmt.Errorf("core: rekeying shard %q: %w", sh.ID, errs[i])
		}
		held[sh.ID], e.shardCache[sh.ID] = solved[i], solved[i]
		fresh[sh.ID] = true
	}
	for d, s := range dirty {
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
			ent := held[sh.ID]
			hdr.Shards[i] = GroupShard{Hdr: ent.hdr, Wrap: hdr.WrapKey(key, ent.key)}
			if fresh[sh.ID] {
				ck.Solved = append(ck.Solved, CachedShard{ID: sh.ID, Sig: ent.sig, Hdr: ent.hdr, Key: ent.key})
			}
		}
		e.groupedCache[s.ID] = groupedEntry{sig: dirtySigs[d], hdr: hdr, key: key}
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
